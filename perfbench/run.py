"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.py``): ``ingest``, ``lookup-spill`` and
``server-mixed``.  The seed makes every input; the engine sees only the
generated operations.

``--trace 0`` measures the end-to-end metrics untraced, over ROUNDS
rounds on fresh set-ups (see ``run_round``).  Its timings are scaled to
a reference host speed by a calibration loop run between quarter-second
segments (``speed.py``); the record keeps the raw figures as well.
``--trace 1`` runs an untraced steady phase for reference throughput, then one round with
every layer's public entry points wrapped in spans (``tracing.py``), and
reports per-layer metrics and the tracing overhead; the spans go to
``perfbench/out/trace_<workload>_seed<n>.json.gz``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.  Every run also writes its full record, with host,
commit and seed provenance, paper counters and sample counts, to
``perfbench/out/<workload>_seed<n>_trace<t>.json``; ``compare.py``
compares such records.  The exit code is 0 only when every correctness
check passed.  Without the engine's sources (``src/repro``) next to
this directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: An untraced run has ROUNDS rounds, each on a fresh set-up: a restart,
#: SLICES steady slices each followed by a probe slice, and another
#: restart.  Spreading every metric's samples over the whole run keeps
#: one stretch of it from setting a metric.
ROUNDS = 3
SLICES = 4
#: Restarts in a row after each set-up.  Each replays a log fixed by the
#: seed, so ``restart_s`` is their median; the restart that ends a round
#: replays as much as the round managed to write.
FIRST_RESTARTS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # noqa: E402 - needs the engine on sys.path

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    record = {
        "host": host_info(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    problems: list[str] = []
    try:
        if args.trace:
            traced_run(workloads, workload, args, record)
        else:
            untraced_run(workloads, workload, args, record, problems)
    except workloads.OracleError as exc:
        problems.append(f"oracle: {exc}")
    record["problems"] = problems
    record["correct"] = not problems
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    for line in summary_lines(record):
        print(line)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record.get("attempted", 0),
        "failed": record.get("failed", 0),
        "metrics": record.get("metrics", {}),
    }))
    return 0 if record["correct"] else 1


# -- one round -------------------------------------------------------------------


class Round:
    """What one round measured (see ``run_round``)."""

    def __init__(self, workloads) -> None:
        self.steady = workloads.PhaseResult()
        self.probe = workloads.PhaseResult()
        #: Per slice: the steady slice's samples plus its probe slice's.
        self.slices: list = []
        #: The FIRST_RESTARTS restarts after set-up, then the restart
        #: that ends the round.
        self.restarts: list[dict] = []
        self.prefix: dict | None = None


def run_round(workloads, workload, env, seconds: float, part: int, last: bool,
              span=None) -> Round:
    """FIRST_RESTARTS restarts, SLICES steady slices of ``seconds /
    SLICES`` each followed by a probe slice (workloads with
    PROBE_GROUPS), and a restart whose durability check also verifies
    the whole table.  The first restarts run on ``env`` itself, except
    where a restarted database cannot serve the steady phase (not
    ``restart_first``): there they run on a set-up of their own.  Oracle
    work runs under ``env.untraced``."""
    span = span or workloads.no_span
    result = Round(workloads)
    per_slice = math.ceil(workload.PROBE_GROUPS / (ROUNDS * SLICES))
    if workload.restart_first:
        first = env
    else:
        with env.untraced():
            first = workload.setup(env.seed)
    try:
        for n in range(FIRST_RESTARTS):
            restart = workloads.crash_restart(first, f"setup.{n}", span)
            with env.untraced():
                workloads.verify_durability(first, restart, walcheck=False, full=n == 0)
            result.restarts.append(restart)
    finally:
        if first is not env:
            first.close()
    for k in range(SLICES):
        tag = f"{part}.{k}"
        steady = workload.steady(
            env, seconds / SLICES, tag, span,
            min_count=workloads.PREFIX_TXNS if k == 0 else 0,
        )
        if k == 0:
            result.prefix = steady.prefix_counters
        result.steady.add(steady)
        both = workloads.Samples()
        both.merge(steady.samples)
        if per_slice:
            probe = workload.probe(env, per_slice, tag, span)
            result.probe.add(probe)
            both.merge(probe.samples)
        both.req = steady.samples.req
        result.slices.append(both)
    end = workloads.crash_restart(env, "final" if last else f"end.{part}", span)
    with env.untraced():
        workloads.verify_durability(env, end, walcheck=last)
    result.restarts.append(end)
    return result


# -- untraced run: end-to-end metrics ----------------------------------------


def untraced_run(workloads, workload, args, record, problems) -> None:
    setup_times: list[float] = []
    setup_raw: list[float] = []
    rounds: list[Round] = []
    for part in range(ROUNDS):
        gc.collect()
        env = workload.setup(args.seed)
        setup_times.append(env.setup_s)
        setup_raw.append(env.setup_raw_s)
        try:
            rounds.append(run_round(workloads, workload, env, args.seconds / ROUNDS,
                                    part, last=part == ROUNDS - 1))
        finally:
            env.close()
    steady = workloads.PhaseResult()
    probe = workloads.PhaseResult()
    for one in rounds:
        steady.add(one.steady)
        probe.add(one.probe)
    slice_samples = [part for one in rounds for part in one.slices]
    restart_times = [r["restart_s"] for one in rounds for r in one.restarts]
    restart_raw = [r["restart_raw_s"] for one in rounds for r in one.restarts]

    # Paper counters: each round's restarts after set-up replay the same
    # seeded log, and on the single-threaded embedded workloads so do
    # each round's first PREFIX_TXNS steady transactions; both must
    # agree exactly from round to round.
    recovery = [
        [{k: r[k] for k in workloads.RECOVERY_COUNTERS} for r in one.restarts[:-1]]
        for one in rounds
    ]
    prefixes = [one.prefix for one in rounds]
    if any(r != recovery[0] for r in recovery):
        problems.append(f"recovery counters did not repeat: {recovery}")
    if workload.restart_first:
        if any(p != prefixes[0] for p in prefixes):
            problems.append(f"paper counters did not repeat: {prefixes}")
        counted, txns = prefixes[0], workloads.PREFIX_TXNS
    else:
        counted, txns = workloads.paper_counters(steady.counters), steady.committed
    paper = {f"{name}_per_txn": counted[name] / max(1, txns) for name in workloads.PAPER_COUNTERS}
    paper.update(recovery[0][0])

    # Medians pool the run's (scaled) samples.  A p99 is the median of
    # the rounds' p99s when every round has the 1000 samples a p99 with
    # ten beyond it needs, so a burst of stalls in one round does not set
    # the run's tail; otherwise it is pooled.  The p99s go to the record
    # but not to the gated metrics: on a shared 2-CPU host they are set
    # by the neighbours' load (see TAILS).
    samples = workloads.Samples()
    for part in slice_samples:
        samples.merge(part)
    reqs = samples.req
    per_round = []
    for one in rounds:
        pooled = workloads.Samples()
        for part in one.slices:
            pooled.merge(part)
        per_round.append(pooled)

    def p99(values_of) -> float:
        if all(len(values_of(r)) >= 1000 for r in per_round):
            return statistics.median(percentile(values_of(r), 0.99) for r in per_round) * 1e3
        return percentile(values_of(samples), 0.99) * 1e3

    def flushes(part) -> list[float]:
        return part.flush

    def p50(values_of) -> float:
        pooled = [v for part in slice_samples for v in values_of(part)]
        return percentile(pooled, 0.50) * 1e3

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "txn_per_s": (steady.committed / steady.seconds, "1/s"),
    }
    tails = {}
    counts = {}
    for op in ("fetch", "scan", "insert", "delete"):
        counts[op] = len(samples.by_op.get(op, []))

        def values_of(part, op=op) -> list[float]:
            return part.by_op.get(op, [])

        metrics[f"{op}_p50_ms"] = (p50(values_of), "ms")
        tails[f"{op}_p99_ms"] = p99(values_of)
    counts["req"] = len(reqs)
    metrics["req_p50_ms"] = (p50(lambda part: part.req), "ms")
    tails["req_p99_ms"] = p99(lambda part: part.req)
    metrics["pipeline_p50_ms"] = (p50(flushes), "ms")
    fixed = [r["restart_s"] for one in rounds for r in one.restarts[:-1]]
    metrics["restart_s"] = (statistics.median(fixed), "s")
    metrics["log_bytes_per_user_byte"] = (
        (steady.log_bytes + probe.log_bytes) / max(1, steady.user_bytes + probe.user_bytes),
        "ratio",
    )
    metrics["rss_peak_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    record["warnings"] = [
        f"{name}: {count} samples, too few for a p99 with ten beyond it"
        for name, count in counts.items()
        if count < 1000
    ]
    counts["pipeline"] = sum(len(flushes(part)) for part in slice_samples)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["tails_ms"] = tails
    record["samples"] = counts
    record["setup_s_all"] = setup_times
    record["setup_raw_s_all"] = setup_raw
    record["restart_s_all"] = restart_times
    record["restart_raw_s_all"] = restart_raw
    scales = steady.scales + probe.scales
    record["speed_scale"] = {
        "segments": len(scales),
        "median": statistics.median(scales),
        "min": min(scales),
        "max": max(scales),
    }
    record["paper_counters"] = paper
    record["prefix_counters"] = prefixes
    record["recovery_counters"] = recovery
    record["attempted"] = steady.attempted + probe.attempted
    record["failed"] = steady.failed + probe.failed
    record["failures"] = {**steady.failures, **probe.failures}
    record["statement_misses"] = steady.statement_misses + probe.statement_misses
    record["steady"] = {
        "committed": steady.committed,
        "seconds": steady.seconds,
        "raw_seconds": steady.raw_seconds,
        "raw_txn_per_s": steady.committed / steady.raw_seconds,
    }


# -- traced run: per-layer metrics ----------------------------------------------


def traced_run(workloads, workload, args, record) -> None:
    """An untraced steady phase for reference throughput, then one traced
    round on a fresh set-up.  Both throughputs are scaled to the
    reference speed (``speed.py``); spans and layer times are raw."""
    from tracing import Tracer

    env = workload.setup(args.seed)
    try:
        if workload.restart_first:
            restart = workloads.crash_restart(env, "setup")
            workloads.verify_durability(env, restart, walcheck=False)
        reference = workload.steady(env, args.seconds, "reference")
        workloads.verify_table(env)
    finally:
        env.close()
    untraced_tps = reference.committed / reference.seconds

    gc.collect()
    env = workload.setup(args.seed)
    db = env.db
    tracer = Tracer()
    env.untraced = tracer.paused
    log_start = db.log.end_lsn
    tracer.install()
    try:
        traced = run_round(workloads, workload, env, args.seconds, 0, last=True,
                           span=tracer.span)
        log_bytes = db.log.end_lsn - log_start
    finally:
        tracer.uninstall()
        env.close()
    steady, probe = traced.steady, traced.probe
    traced_tps = steady.committed / steady.seconds

    totals = tracer.layer_totals()
    counters: dict[str, int] = {}
    for diff in [steady.counters, probe.counters] + [r["counters"] for r in traced.restarts]:
        for key, value in diff.items():
            counters[key] = counters.get(key, 0) + value
    txns = steady.committed + probe.committed + len(traced.restarts) * (workloads.TAIL_TXNS + 1)
    metrics = layer_metrics(totals, counters, txns, log_bytes, db.config.page_size)
    metrics["trace.overhead_pct"] = (100.0 * (untraced_tps - traced_tps) / untraced_tps, "%")
    metrics["trace.unattributed_s"] = (totals["unattributed_s"], "s")
    if workload.restart_first:
        prefix, prefix_txns = traced.prefix, workloads.PREFIX_TXNS
    else:
        prefix, prefix_txns = workloads.paper_counters(steady.counters), steady.committed
    for name in workloads.PAPER_COUNTERS:
        metrics[f"paper.{name}_per_txn"] = (prefix[name] / max(1, prefix_txns), "count/txn")

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["trace_totals"] = totals
    record["txn_per_s"] = {"untraced": untraced_tps, "traced": traced_tps}
    record["attempted"] = steady.attempted + probe.attempted
    record["failed"] = steady.failed + probe.failed
    record["failures"] = {**steady.failures, **probe.failures}
    record["statement_misses"] = steady.statement_misses + probe.statement_misses
    record["counters"] = counters
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace_{workload.name}_seed{args.seed}.json.gz"
    with gzip.open(trace_path, "wt") as fh:
        json.dump({
            "fields": ["span_id", "parent_id", "name", "thread", "txn_id", "start", "end"],
            "spans": tracer.spans,
            "totals": totals,
            "layer_of": tracer.layer_of,
        }, fh)
    record["trace_file"] = str(trace_path.relative_to(ROOT))


def layer_metrics(totals: dict, c: dict, txns: int, log_bytes: int, page_size: int) -> dict:
    calls = totals["calls"]
    layers = totals["layers"]

    def self_s(*names: str) -> float:
        return sum(calls.get(n, {}).get("self_s", 0.0) for n in names)

    def ncalls(*names: str) -> int:
        return sum(calls.get(n, {}).get("calls", 0) for n in names)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    fixes = c.get("buffer.hits", 0) + c.get("buffer.misses", 0)
    records = c.get("log.records_written", 0)
    locks = sum(v for k, v in c.items() if k.startswith("lock.requests."))
    per_txn = "count/txn"
    return {
        "btree.traverse_s": (layers.get("btree", {}).get("self_s", 0.0), "s"),
        "btree.pages_per_traverse": (ratio(c.get("btree.pages_visited", 0), c.get("btree.traversals", 0)), "count"),
        "btree.restarts": (c.get("btree.traversal_restarts", 0), "count"),
        "btree.splits": (c.get("btree.page_splits", 0), "count"),
        "buffer.fix_s": (self_s("buffer.fix", "buffer.unfix"), "s"),
        "buffer.fixes_per_txn": (ratio(fixes, txns), per_txn),
        "buffer.hit_ratio": (ratio(c.get("buffer.hits", 0), fixes), "ratio"),
        "buffer.evictions": (c.get("buffer.evictions", 0), "count"),
        "disk.read_s": (self_s("disk.read"), "s"),
        "disk.write_s": (self_s("disk.write"), "s"),
        "disk.reads_per_txn": (ratio(c.get("disk.reads", 0), txns), per_txn),
        "disk.bytes_written": (c.get("disk.writes", 0) * page_size, "B"),
        "latch.acquire_s": (self_s("latch.acquire"), "s"),
        "latch.acquisitions_per_txn": (ratio(c.get("latch.acquisitions", 0), txns), per_txn),
        "latch.waits": (c.get("latch.waits", 0), "count"),
        "locks.request_s": (self_s("locks.request", "locks.release_all"), "s"),
        "locks.per_txn": (ratio(locks, txns), per_txn),
        "locks.waits": (c.get("lock.waits", 0), "count"),
        "locks.deadlocks": (c.get("lock.deadlocks", 0), "count"),
        "locks.timeouts": (c.get("lock.timeouts", 0), "count"),
        "wal.append_s": (self_s("wal.append"), "s"),
        "wal.records_per_txn": (ratio(records, txns), per_txn),
        "wal.bytes_per_record": (ratio(log_bytes, records), "B"),
        "wal.force_s": (self_s("wal.force", "wal.force_for_commit"), "s"),
        "wal.forces_per_commit": (ratio(c.get("log.sync_forces", 0), c.get("txn.committed", 0)), "ratio"),
        "wal.group_batch_mean": (ratio(c.get("log.group_commit_requests", 0), c.get("log.group_commit_batches", 0)), "count"),
        "codec.encode_s": (self_s("codec.encode_value"), "s"),
        "codec.decode_s": (self_s("codec.decode_value"), "s"),
        "codec.bytes_encoded": (totals["bytes"].get("codec.encode_value", 0), "B"),
        "codec.frames": (ncalls("codec.encode_frame", "codec.try_parse_frame"), "count"),
        "heap.insert_s": (self_s("heap.insert"), "s"),
        "heap.delete_s": (self_s("heap.delete"), "s"),
        "heap.fetch_s": (self_s("heap.fetch"), "s"),
        "txn.commit_self_s": (self_s("txn.commit", "txn.commit_deferred", "txn.finish_deferred"), "s"),
        "txn.deferred_batch_mean": (ratio(c.get("txn.deferred_commits", 0), ncalls("txn.finish_deferred")), "count"),
        "recovery.analysis_s": (self_s("recovery.analysis"), "s"),
        "recovery.redo_s": (self_s("recovery.redo"), "s"),
        "recovery.undo_s": (self_s("recovery.undo"), "s"),
        "recovery.records_redone": (c.get("recovery.records_redone", 0), "count"),
        "recovery.redo_pages_accessed": (c.get("recovery.redo_pages_accessed", 0), "count"),
        "recovery.records_undone": (c.get("recovery.records_undone", 0), "count"),
        "recovery.log_passes": (sum(c.get(f"recovery.{p}_passes", 0) for p in ("analysis", "redo", "undo")), "count"),
        "server.batch_size_mean": (ratio(c.get("server.requests", 0), ncalls("server.submit", "server.submit_batch")), "count"),
        "server.queue_peak": (c.get("server.queue_peak", 0), "count"),
    }


# -- helpers -----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_info() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit() -> str | None:
    """HEAD's sha read straight from ``.git`` (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the engine's sources, which identifies the code
    measured even where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def summary_lines(record: dict) -> list[str]:
    host = record["host"]
    lines = [
        f"{record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} cpus={host['cpu_count']} python={host['python']} "
        f"commit={host['commit'] or 'n/a'} src={host['src_sha256'][:12]}",
    ]
    for name, metric in record.get("metrics", {}).items():
        lines.append(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    if "tails_ms" in record:
        lines.append("  p99 (not gated): " + ", ".join(
            f"{name} {value:.4g}" for name, value in record["tails_ms"].items()))
    if "paper_counters" in record:
        lines.append("  paper counters: " + json.dumps(record["paper_counters"], sort_keys=True))
    if "trace_totals" in record:
        trace = record["trace_totals"]
        lines.append(
            f"  traced wall {trace['wall_s']:.3f} s; {trace['threads']} thread(s) active "
            f"{trace['thread_s']:.3f} s = self time by layer (below) + "
            f"unattributed {trace['unattributed_s']:.3f} s"
        )
        for layer, entry in sorted(trace["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                f"    {layer:16s} self {entry['self_s']:9.4f} s  wait {entry['wait_s']:9.4f} s  "
                f"calls {entry['calls']}"
            )
    lines.append(
        f"  attempted={record.get('attempted', 0)} failed={record.get('failed', 0)} "
        f"statement_misses={record.get('statement_misses', 0)} correct={record['correct']}"
    )
    for warning in record.get("warnings", []):
        lines.append(f"  WARNING: {warning}")
    for problem in record.get("problems", []):
        lines.append(f"  PROBLEM: {problem}")
    return lines


if __name__ == "__main__":
    sys.exit(main())

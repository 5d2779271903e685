"""The benchmark's three seeded workloads and the phases they share.

Every workload runs against one table ``t`` with a unique index ``pk``
on column ``k``.  A row is a pure function of its key (about 110 bytes
encoded), so the oracle only has to track which keys are live.

Phases of a workload, run on one set-up:

``setup``     build a database and preload it (timed: ``setup_s``).
``restart``   flush, checkpoint, a fixed seeded tail of committed
              writes, one loser whose records are forced, ``crash()``,
              ``restart()`` and the first post-restart commit (timed:
              ``restart_s``); then the durability check, whose full
              scan also warms the buffer pool.
``steady``    a slice of the measured closed loop.  The engine's
              counters are diffed around the first ``PREFIX_TXNS``
              transactions after a set-up's restart; on the
              single-threaded workloads they must repeat exactly.
``probe``     on the embedded workloads, a slice of fixed-size extra
              operations the steady mix lacks, so every latency metric
              has samples on every workload: a read-back on ``ingest``,
              a write probe on ``lookup-spill``.  Its ops come in groups
              of PIPELINE_DEPTH whose back-to-back time stands in for a
              pipelined flush.

The run interleaves steady and probe slices so that each metric samples
the whole run rather than one stretch of it.  Every timed phase runs on
a ``speed.Clock``: its samples and seconds are scaled to the reference
host speed segment by segment (see ``speed.py``).  Oracle checks run
outside the timed windows: their time is excluded from throughput.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import time

from repro import Database, DatabaseConfig, KeyNotFoundError, UniqueKeyViolationError
from repro.analysis.walcheck import check_log
from repro.codec.values import encode_value as _encode_value
from repro.common.errors import DeadlockError, LockTimeoutError, ServerError
from repro.server.server import DatabaseServer, ServerConfig
from speed import Clock

TABLE = "t"
INDEX = "pk"
COLUMN = "k"
PAD_LEN = 80
SCAN_LEN = 40
PRELOAD_BATCH = 64
PREFIX_TXNS = 500
TAIL_TXNS = 20
TAIL_OPS = 25
LOSER_INSERTS = 20
LOSER_DELETES = 10
NEW_KEY_BITS = 40
#: Ops per pipelined flush (server-mixed) or probe group (embedded).
PIPELINE_DEPTH = 8

#: Engine counters that make up the paper's cost measures (§1).
PAPER_COUNTERS = ("locks", "log_records", "sync_forces", "btree_pages", "buffer_fixes")

#: Restart counters that must repeat exactly on identical set-ups.
RECOVERY_COUNTERS = ("records_redone", "redo_pages_accessed", "records_undone", "log_passes")


def row_for(key: int) -> dict:
    digest = f"{(key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF:016x}"
    return {COLUMN: key, "pad": (digest * 6)[:PAD_LEN]}


def row_bytes(key: int) -> int:
    return len(_encode_value(row_for(key)))


def paper_counters(diff: dict[str, int]) -> dict[str, int]:
    """Fold a stats-registry diff into the paper's counters."""
    return {
        "locks": sum(v for k, v in diff.items() if k.startswith("lock.requests.")),
        "log_records": diff.get("log.records_written", 0),
        "sync_forces": diff.get("log.sync_forces", 0),
        "btree_pages": diff.get("btree.pages_visited", 0),
        "buffer_fixes": diff.get("buffer.hits", 0) + diff.get("buffer.misses", 0),
    }


_NULL = contextlib.nullcontext()


def no_span(name: str):
    return _NULL


class OracleError(AssertionError):
    """The engine returned something the model says it must not."""


class Model:
    """The committed table contents: the set of live keys, with O(1)
    random choice and removal."""

    def __init__(self, keys=()) -> None:
        self.keys: list[int] = list(keys)
        self.pos = {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: int) -> bool:
        return key in self.pos

    def add(self, key: int) -> None:
        self.pos[key] = len(self.keys)
        self.keys.append(key)

    def remove(self, key: int) -> None:
        index = self.pos.pop(key)
        last = self.keys.pop()
        if index < len(self.keys):
            self.keys[index] = last
            self.pos[last] = index

    def pick(self, rng: random.Random) -> int:
        return self.keys[rng.randrange(len(self.keys))]


class Env:
    """One database with its model and seeded input streams."""

    def __init__(self, workload: "Workload", seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.db = Database(workload.config())
        self.model = Model()
        #: Every key ever inserted, so "new" keys are never reused.
        self.used: set[int] = set()
        self.user_bytes = 0
        #: The embedded steady stream, continued across slices.
        self.stream = None
        #: Context for oracle work a traced run keeps out of its trace.
        self.untraced = contextlib.nullcontext
        #: Scaled and raw seconds of ``Workload.setup``.
        self.setup_s = 0.0
        self.setup_raw_s = 0.0

    def clock(self) -> Clock:
        return Clock(self.untraced)

    def rng(self, phase: str) -> random.Random:
        return random.Random(f"{self.workload.name}:{self.seed}:{phase}")

    def new_key(self, rng: random.Random) -> int:
        while True:
            key = rng.getrandbits(NEW_KEY_BITS)
            if key not in self.used:
                self.used.add(key)
                return key

    def close(self) -> None:
        if not self.db.closed:
            self.db.close()


class Samples:
    """Latencies in seconds: per operation type, per request, and per
    pipeline flush."""

    def __init__(self) -> None:
        self.by_op: dict[str, list[float]] = {}
        self.req: list[float] = []
        self.flush: list[float] = []

    def add(self, op: str, seconds: float) -> None:
        self.by_op.setdefault(op, []).append(seconds)
        self.req.append(seconds)

    def merge(self, other: "Samples", scale: float = 1.0) -> None:
        """Add ``other``'s samples, each multiplied by ``scale``."""
        for op, values in other.by_op.items():
            self.by_op.setdefault(op, []).extend(v * scale for v in values)
        self.req.extend(v * scale for v in other.req)
        self.flush.extend(v * scale for v in other.flush)


class PhaseResult:
    def __init__(self) -> None:
        self.samples = Samples()
        self.committed = 0
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.statement_misses = 0
        #: Timed seconds scaled to the reference speed, and raw.
        self.seconds = 0.0
        self.raw_seconds = 0.0
        self.scales: list[float] = []
        self.counters: dict[str, int] = {}
        self.prefix_counters: dict[str, int] | None = None
        self.log_bytes = 0
        self.user_bytes = 0

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def add(self, other: "PhaseResult") -> None:
        """Pool ``other`` (another slice of the same phase) into this one."""
        self.samples.merge(other.samples)
        for name in ("committed", "attempted", "failed", "statement_misses",
                     "seconds", "raw_seconds", "log_bytes", "user_bytes"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.scales.extend(other.scales)
        for kind, n in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value


# -- single-operation transactions ---------------------------------------------


def embedded_txn(db: Database):
    """An executor running each op as one embedded transaction."""

    def execute(op: str, key: int, high: int | None):
        txn = db.begin()
        if op == "insert":
            db.insert(txn, TABLE, row_for(key))
            result = None
        elif op == "delete":
            result = db.delete_by_key(txn, TABLE, INDEX, key)
        elif op == "fetch":
            result = db.fetch(txn, TABLE, INDEX, key)
        else:
            result = [row for _, row in db.scan(txn, TABLE, INDEX, low=key, high=high)]
        db.commit(txn)
        return result

    return execute


def client_request(client):
    """An executor sending each op as one autocommit server request."""

    def execute(op: str, key: int, high: int | None):
        if op == "fetch":
            return client.fetch(TABLE, INDEX, key)
        if op == "scan":
            return client.scan(TABLE, INDEX, low=key, high=high)
        if op == "insert":
            return client.insert(TABLE, row_for(key))
        return client.delete_by_key(TABLE, INDEX, key)

    return execute


def check_result(env: Env, op: str, key: int, high, result, live_sorted) -> None:
    """Compare one op's outcome with the model and apply it there
    (``live_sorted``, when given, is kept equal to the sorted model)."""
    model = env.model
    if op == "insert":
        model.add(key)
        env.user_bytes += row_bytes(key)
        if live_sorted is not None:
            bisect.insort(live_sorted, key)
    elif op == "delete":
        if result != row_for(key):
            raise OracleError(f"delete of {key} returned {result!r}")
        model.remove(key)
        if live_sorted is not None:
            del live_sorted[bisect.bisect_left(live_sorted, key)]
    elif op == "fetch":
        expected = row_for(key) if key in model else None
        if result != expected:
            raise OracleError(f"fetch of {key} returned {result!r}, expected {expected!r}")
    else:
        lo = bisect.bisect_left(live_sorted, key)
        hi = bisect.bisect_right(live_sorted, high)
        expected = [row_for(k) for k in live_sorted[lo:hi]]
        if result != expected:
            raise OracleError(
                f"scan [{key}, {high}] returned {len(result)} rows, expected {len(expected)}"
            )


def run_ops(env: Env, execute, ops, span, live_sorted=None, deadline: float | None = None,
            min_count: int = 0) -> PhaseResult:
    """Run ``ops`` (an iterator of (op, key, high)) through ``execute``
    one at a time, timing each and checking it against the model outside
    the timed window.  Stops when ``ops`` ends, or at ``deadline`` once
    ``min_count`` ops are done; the counters of the first ``min_count``
    ops become the result's ``prefix_counters``."""
    result = PhaseResult()
    db = env.db
    pending = Samples()
    perf = time.perf_counter
    stats = db.stats
    before = stats.snapshot()
    log_start = db.log.end_lsn
    bytes_start = env.user_bytes
    clock = env.clock()
    done = 0
    for op, key, high in ops:
        with span("bench.txn"):
            t0 = perf()
            got = execute(op, key, high)
            t1 = perf()
        pending.add(op, t1 - t0)
        check_result(env, op, key, high, got, live_sorted)
        clock.exclude(perf() - t1)
        done += 1
        if done == min_count:
            result.prefix_counters = paper_counters(stats.diff(before))
        scale = clock.tick()
        if scale is not None:
            result.samples.merge(pending, scale)
            pending = Samples()
        if deadline is not None and t1 >= deadline and done >= min_count:
            break
    result.samples.merge(pending, clock.close())
    result.seconds, result.raw_seconds, result.scales = clock.scaled_s, clock.raw_s, clock.scales
    result.committed = result.attempted = done
    result.counters = stats.diff(before)
    result.log_bytes = db.log.end_lsn - log_start
    result.user_bytes = env.user_bytes - bytes_start
    return result


# -- workloads -----------------------------------------------------------------


class Workload:
    name = ""
    #: Probe groups per untraced run (see ``probe``).
    PROBE_GROUPS = 0
    #: Whether the steady phase runs on the database restarted right
    #: after set-up (see ``run.run_round``).
    restart_first = True

    def config(self) -> DatabaseConfig:
        raise NotImplementedError

    def preload_keys(self, env: Env) -> list[int]:
        raise NotImplementedError

    def setup(self, seed: int) -> Env:
        """A fresh database with the preloaded table; the time it takes
        (scaled, and raw) is left in ``env.setup_s``/``setup_raw_s``."""
        clock = Clock()
        env = Env(self, seed)
        db = env.db
        db.create_table(TABLE)
        db.create_index(TABLE, INDEX, column=COLUMN, unique=True)
        keys = self.preload_keys(env)
        for start in range(0, len(keys), PRELOAD_BATCH):
            txn = db.begin()
            for key in keys[start:start + PRELOAD_BATCH]:
                db.insert(txn, TABLE, row_for(key))
            db.commit(txn)
            clock.tick()
        clock.close()
        env.setup_s, env.setup_raw_s = clock.scaled_s, clock.raw_s
        for key in keys:
            env.model.add(key)
            env.used.add(key)
        return env

    def steady_ops(self, env: Env):
        """Endless seeded (op, key, high) stream of the steady phase."""
        raise NotImplementedError

    def live_sorted(self, env: Env):
        """The sorted model, for workloads whose steady phase scans."""
        return None

    def steady(self, env: Env, seconds: float, tag: str, span=no_span,
               min_count: int = 0) -> PhaseResult:
        if env.stream is None:
            env.stream = self.steady_ops(env)
        return run_ops(env, embedded_txn(env.db), env.stream, span,
                       live_sorted=self.live_sorted(env),
                       deadline=time.perf_counter() + seconds, min_count=min_count)

    def probe_groups(self, env: Env, rng: random.Random, count: int) -> list[list]:
        """``count`` groups of PIPELINE_DEPTH probe ops, every group of
        the same composition."""
        raise NotImplementedError

    def probe(self, env: Env, count: int, tag: str, span=no_span) -> PhaseResult:
        """``count`` probe groups, each op its own transaction.  The time
        of a whole group, its ops run back to back, is the embedded
        counterpart of a pipelined flush; a fixed composition keeps the
        median of those times off the step between one mix and the
        next."""
        groups = self.probe_groups(env, env.rng(f"probe:{tag}"), count)
        ops = [op for group in groups for op in group]
        result = run_ops(env, embedded_txn(env.db), iter(ops), span,
                         live_sorted=sorted(env.model.keys))
        req = result.samples.req
        result.samples.flush = [
            sum(req[i:i + PIPELINE_DEPTH]) for i in range(0, len(req), PIPELINE_DEPTH)
        ]
        return result


def _grouped(rng: random.Random, ops: list, per_group: int) -> list[list]:
    """Cut ``ops`` into groups of ``per_group`` and shuffle each group."""
    groups = [ops[i:i + per_group] for i in range(0, len(ops), per_group)]
    for group in groups:
        rng.shuffle(group)
    return groups


class Ingest(Workload):
    """Writes on a table that fits the buffer pool; reads only in the
    read-back probe."""

    name = "ingest"
    PRELOAD = 3000
    #: A probe group: 6 fetches and 2 scans of live keys.
    GROUP_SCANS = 2
    PROBE_GROUPS = 504

    def config(self) -> DatabaseConfig:
        return DatabaseConfig(buffer_pool_pages=4096)

    def preload_keys(self, env: Env) -> list[int]:
        rng = env.rng("preload")
        return [env.new_key(rng) for _ in range(self.PRELOAD)]

    def steady_ops(self, env: Env):
        rng = env.rng("steady")
        model = env.model
        while True:
            if rng.random() < 0.5 or not len(model):
                yield "insert", env.new_key(rng), None
            else:
                yield "delete", model.pick(rng), None

    def probe_groups(self, env: Env, rng: random.Random, count: int) -> list[list]:
        """Read-back: fetches of live keys and scans of 40 live keys."""
        live = sorted(env.model.keys)
        ops = []
        for _ in range(count):
            for _ in range(PIPELINE_DEPTH - self.GROUP_SCANS):
                ops.append(("fetch", live[rng.randrange(len(live))], None))
            for _ in range(self.GROUP_SCANS):
                i = rng.randrange(len(live) - SCAN_LEN + 1)
                ops.append(("scan", live[i], live[i + SCAN_LEN - 1]))
        return _grouped(rng, ops, PIPELINE_DEPTH)


class LookupSpill(Workload):
    """Reads on a table about 4.5x the buffer pool (4000 rows fill about
    200 pages); writes only in the write probe."""

    name = "lookup-spill"
    ROWS = 4000
    #: A probe group: 4 inserts and 4 deletes.
    PROBE_GROUPS = 252

    def config(self) -> DatabaseConfig:
        return DatabaseConfig(buffer_pool_pages=45)

    def preload_keys(self, env: Env) -> list[int]:
        # Even keys, loaded in random order; the write probe inserts odd ones.
        keys = [2 * i for i in range(self.ROWS)]
        env.rng("preload").shuffle(keys)
        return keys

    def live_sorted(self, env: Env):
        return sorted(env.model.keys)

    def steady_ops(self, env: Env):
        rng = env.rng("steady")
        rows = self.ROWS
        while True:
            if rng.random() < 0.8:
                yield "fetch", 2 * rng.randrange(rows), None
            else:
                low = 2 * rng.randrange(rows - SCAN_LEN + 1)
                yield "scan", low, low + 2 * (SCAN_LEN - 1)

    def probe(self, env: Env, count: int, tag: str, span=no_span) -> PhaseResult:
        result = super().probe(env, count, tag, span)
        # Write back the probe's pages, untimed, so the next read slice
        # does not pay for them.
        with env.untraced():
            env.db.flush_all_pages()
        return result

    def probe_groups(self, env: Env, rng: random.Random, count: int) -> list[list]:
        """Write probe: inserts of absent odd keys, deletes of live keys."""
        half = PIPELINE_DEPTH // 2
        odd = [k for k in range(1, 2 * self.ROWS, 2) if k not in env.used]
        inserts = rng.sample(odd, count * half)
        deletes = rng.sample(env.model.keys, count * half)
        env.used.update(inserts)
        ops = []
        for g in range(count):
            ops += [("insert", key, None) for key in inserts[g * half:(g + 1) * half]]
            ops += [("delete", key, None) for key in deletes[g * half:(g + 1) * half]]
        return _grouped(rng, ops, PIPELINE_DEPTH)


class Zipf:
    """YCSB Zipfian ranks over ``[0, n)``, scattered over the key space
    so hot keys do not share leaves."""

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        self.n = n
        self.rng = rng
        self.zetan = sum(1.0 / (i + 1) ** theta for i in range(n))
        self.zeta2 = 1.0 + 2.0 ** -theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - self.zeta2 / self.zetan)

    def next_key(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            rank = 0
        elif uz < self.zeta2:
            rank = 1
        else:
            rank = int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)
        return (rank * 2654435761) % self.n


class _Caller:
    """One client session of ``server-mixed``.

    Reads are fetches (25%) or 40-key scans (25%); a write inserts a key
    the sessions believe absent or deletes one they believe present
    (``present`` is shared by both sessions and follows the replies).
    The op class and key are seeded."""

    def __init__(self, env: Env, role: str, tag: str, present: set[int]) -> None:
        self.rng = env.rng(f"steady:{role}:{tag}")
        self.zipf = Zipf(ServerMixed.KEYS, 0.99, self.rng)
        self.present = present
        self.result = PhaseResult()
        self.acked_inserts = 0
        self.acked_deletes = 0
        self.wrong = 0

    def next_op(self) -> tuple[str, int, int | None]:
        roll = self.rng.random()
        key = self.zipf.next_key()
        if roll < 0.25:
            return "fetch", key, None
        if roll < 0.50:
            low = min(key, ServerMixed.KEYS - SCAN_LEN)
            return "scan", low, low + SCAN_LEN - 1
        return ("delete" if key in self.present else "insert"), key, None

    def settle(self, op: str, key: int, high, outcome, error) -> None:
        result = self.result
        result.attempted += 1
        if error is None:
            result.committed += 1
            if op == "insert":
                self.acked_inserts += 1
                self.present.add(key)
                result.user_bytes += row_bytes(key)
            elif op == "delete":
                self.acked_deletes += 1
                self.present.discard(key)
                if outcome != row_for(key):
                    self.wrong += 1
            elif op == "fetch":
                if outcome is not None and outcome != row_for(key):
                    self.wrong += 1
            else:
                keys = [row[COLUMN] for row in outcome]
                if keys != sorted(keys) or any(
                    not key <= k <= high or row != row_for(k)
                    for k, row in zip(keys, outcome)
                ):
                    self.wrong += 1
        elif isinstance(error, UniqueKeyViolationError):
            result.statement_misses += 1
            self.present.add(key)
        elif isinstance(error, KeyNotFoundError):
            result.statement_misses += 1
            self.present.discard(key)
        else:
            result.fail(getattr(error, "kind", None) or type(error).__name__)

    def request(self, execute, samples: Samples, span) -> None:
        """One strict request: send, wait for the reply, time it."""
        op, key, high = self.next_op()
        error = outcome = None
        with span("bench.request"):
            t0 = time.perf_counter()
            try:
                outcome = execute(op, key, high)
            except (UniqueKeyViolationError, KeyNotFoundError, DeadlockError,
                    LockTimeoutError, ServerError) as exc:
                error = exc
            t1 = time.perf_counter()
        if error is None:
            samples.add(op, t1 - t0)
        elif isinstance(error, (UniqueKeyViolationError, KeyNotFoundError)):
            samples.req.append(t1 - t0)
        self.settle(op, key, high, outcome, error)

    def flush(self, client, depth: int, samples: Samples, span) -> None:
        """One pipelined flush of ``depth`` ops, timed as a whole."""
        ops = [self.next_op() for _ in range(depth)]
        with span("bench.flush"):
            t0 = time.perf_counter()
            pipe = client.pipeline(depth=depth + 1)
            futures = [_queue(pipe, op, key, high) for op, key, high in ops]
            pipe.flush()
            t1 = time.perf_counter()
        samples.flush.append(t1 - t0)
        for (op, key, high), future in zip(ops, futures):
            error = future.error
            self.settle(op, key, high, None if error else future.result(), error)


def _queue(pipe, op: str, key: int, high):
    if op == "fetch":
        return pipe.fetch(TABLE, INDEX, key)
    if op == "scan":
        return pipe.request("scan", table=TABLE, index=INDEX, low=key, high=high)
    if op == "insert":
        return pipe.insert(TABLE, row_for(key))
    return pipe.delete_by_key(TABLE, INDEX, key)


class ServerMixed(Workload):
    """A strict and a pipelined session on a loopback server, taking
    turns from one load thread.

    Run concurrently from two threads on a 2-CPU host, the sessions'
    figures were set by the scheduler and the GIL, not by the program:
    the median fetch of one quarter-second slice ranged from 0.7 to
    8 ms.  Taking turns keeps both kinds of caller and every server
    layer (admission, batching, deferred and group commit, frames) in
    the measurement, but no longer makes the sessions wait for each
    other's locks."""

    name = "server-mixed"
    KEYS = 4096
    #: Strict requests between two pipelined flushes.
    STRICT_PER_FLUSH = 4
    #: The server never runs on a restarted database, which serves
    #: pipelined batches with stalls: ``Database.restart`` installs a
    #: lock manager without the transaction manager's pending-commit
    #: resolver, so a request blocked on a batch's deferred commit waits
    #: out the lock timeout.  The restarts after set-up get a set-up of
    #: their own; the round still ends with a restart.
    restart_first = False

    def config(self) -> DatabaseConfig:
        # No coalescing window: with one caller at a time there is no
        # other commit to wait for, and a pipelined batch already pays
        # one force for all its commits.
        return DatabaseConfig(
            buffer_pool_pages=1024,
            group_commit=True,
            group_commit_max_wait_seconds=0.0,
            log_flush_latency_seconds=0.001,
        )

    def preload_keys(self, env: Env) -> list[int]:
        keys = list(range(self.KEYS))
        env.rng("preload").shuffle(keys)
        return keys[: self.KEYS // 2]

    def steady(self, env: Env, seconds: float, tag: str, span=no_span,
               min_count: int = 0) -> PhaseResult:
        """Both sessions for ``seconds``: STRICT_PER_FLUSH strict
        requests, then one pipelined flush of PIPELINE_DEPTH ops, and
        again; the strict session's mix holds every op type, so there is
        no probe.  Then the indexes must be sound and the row count must
        equal the rows before plus acknowledged inserts minus
        acknowledged deletes; the model becomes the table's key set."""
        db = env.db
        stats_before = db.stats.snapshot()
        log_start = db.log.end_lsn
        present = set(env.model.keys)
        strict = _Caller(env, "strict", tag, present)
        pipelined = _Caller(env, "pipelined", tag, present)
        server = DatabaseServer(db, ServerConfig(workers=2)).start(listen=False)
        clients = []
        try:
            clients = [server.connect_loopback() for _ in range(2)]
            execute = client_request(clients[0])
            samples, pending = Samples(), Samples()
            clock = env.clock()
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                for _ in range(self.STRICT_PER_FLUSH):
                    strict.request(execute, pending, span)
                pipelined.flush(clients[1], PIPELINE_DEPTH, pending, span)
                scale = clock.tick()
                if scale is not None:
                    samples.merge(pending, scale)
                    pending = Samples()
            samples.merge(pending, clock.close())
        finally:
            for client in clients:
                client.close()
            drained = server.shutdown(drain=True)
        if not drained:
            raise RuntimeError("server-mixed did not stop cleanly")

        result = PhaseResult()
        callers = (strict, pipelined)
        for caller in callers:
            result.add(caller.result)
        result.samples = samples
        result.seconds, result.raw_seconds, result.scales = clock.scaled_s, clock.raw_s, clock.scales
        result.counters = db.stats.diff(stats_before)
        result.log_bytes = db.log.end_lsn - log_start

        with env.untraced():
            problems = db.verify_indexes()
            keys = table_keys(db)
        if problems:
            raise OracleError(f"verify_indexes: {problems}")
        wrong = sum(c.wrong for c in callers)
        if wrong:
            raise OracleError(f"{wrong} replies disagreed with the row-for-key rule")
        expected = len(env.model) + sum(c.acked_inserts - c.acked_deletes for c in callers)
        if len(keys) != expected:
            raise OracleError(f"row count {len(keys)} != expected {expected}")
        env.model = Model(keys)
        env.used.update(keys)
        return result


WORKLOADS = {w.name: w for w in (Ingest(), LookupSpill(), ServerMixed())}


# -- shared: verification and the restart phase --------------------------------


def table_keys(db: Database) -> list[int]:
    """Every row's key, in index order, checking each row's contents."""
    keys = []
    with db.transaction() as txn:
        for _, row in db.scan(txn, TABLE, INDEX):
            if row != row_for(row[COLUMN]):
                raise OracleError(f"row {row!r} does not match its key")
            keys.append(row[COLUMN])
    return keys


def verify_table(env: Env) -> None:
    """The table holds exactly the model's rows and its index is sound."""
    keys = table_keys(env.db)
    if keys != sorted(env.model.keys):
        missing = len(set(env.model.keys) - set(keys))
        extra = len(set(keys) - set(env.model.keys))
        raise OracleError(f"table differs from the model: {missing} missing, {extra} extra")
    problems = env.db.verify_indexes()
    if problems:
        raise OracleError(f"verify_indexes: {problems}")


def crash_restart(env: Env, tag: str, span=no_span) -> dict:
    """Flush and checkpoint, commit a fixed seeded tail, leave one loser
    on the forced log, crash, restart and commit once more.  Returns
    the restart time, the recovery counters and the stats diff of the
    whole phase."""
    db = env.db
    model = env.model
    rng = env.rng(f"tail:{tag}")
    before = db.stats.snapshot()
    with span("bench.checkpoint"):
        db.flush_all_pages()
        db.checkpoint()
    for _ in range(TAIL_TXNS):
        with span("bench.txn"):
            txn = db.begin()
            for _ in range(TAIL_OPS):
                if rng.random() < 0.5 or len(model) < TAIL_OPS:
                    key = env.new_key(rng)
                    db.insert(txn, TABLE, row_for(key))
                    model.add(key)
                else:
                    key = model.pick(rng)
                    db.delete_by_key(txn, TABLE, INDEX, key)
                    model.remove(key)
            db.commit(txn)
    loser_inserts = [env.new_key(rng) for _ in range(LOSER_INSERTS)]
    loser_deletes = rng.sample(model.keys, LOSER_DELETES)
    with span("bench.loser"):
        txn = db.begin()
        for key in loser_inserts:
            db.insert(txn, TABLE, row_for(key))
        for key in loser_deletes:
            db.delete_by_key(txn, TABLE, INDEX, key)
        db.log.force()
    db.crash()
    with span("bench.restart"):
        clock = env.clock()
        report = db.restart()
        key = env.new_key(rng)
        txn = db.begin()
        db.insert(txn, TABLE, row_for(key))
        db.commit(txn)
        clock.close()
    model.add(key)
    diff = db.stats.diff(before)
    if report.undo.transactions_rolled_back != 1:
        raise OracleError(
            f"restart rolled back {report.undo.transactions_rolled_back} losers, expected 1"
        )
    return {
        "restart_s": clock.scaled_s,
        "restart_raw_s": clock.raw_s,
        "records_redone": diff.get("recovery.records_redone", 0),
        "redo_pages_accessed": diff.get("recovery.redo_pages_accessed", 0),
        "records_undone": diff.get("recovery.records_undone", 0),
        "log_passes": sum(
            diff.get(f"recovery.{p}_passes", 0) for p in ("analysis", "redo", "undo")
        ),
        "counters": diff,
        "loser_inserts": loser_inserts,
        "loser_deletes": loser_deletes,
    }


def verify_durability(env: Env, restart: dict, walcheck: bool, full: bool = True) -> None:
    """After the crash none of the loser's inserts remain and its deletes
    are undone; with ``full`` the whole table equals the committed model
    and the indexes are sound; with ``walcheck`` the surviving log has no
    findings."""
    if full:
        verify_table(env)
    else:
        db = env.db
        with db.transaction() as txn:
            for key in restart["loser_inserts"]:
                if db.fetch(txn, TABLE, INDEX, key) is not None:
                    raise OracleError(f"a loser's insert of {key} survived the restart")
            for key in restart["loser_deletes"]:
                if db.fetch(txn, TABLE, INDEX, key) != row_for(key):
                    raise OracleError(f"a loser's delete of {key} survived the restart")
    model = env.model
    if any(k in model for k in restart["loser_inserts"]):
        raise OracleError("the model holds a loser's insert")
    if not all(k in model for k in restart["loser_deletes"]):
        raise OracleError("the model lost a loser's delete")
    if walcheck:
        report = check_log(env.db.log)
        if not report.ok:
            raise OracleError("walcheck: " + report.format())

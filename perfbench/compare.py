"""Compare two sets of benchmark records.

    python3 perfbench/compare.py --base out_a/*.json --head out_b/*.json

Each side is a list of records written by ``run.py`` (one per run, same
workload and trace mode).  For every end-to-end metric the tool prints
both medians, the relative change, and whether the change is worse
than the metric's bound in ``BENCHMARK.json``; it also reports paper
counters that differ between records with the same seed.  Records taken
on a different CPU count or Python version are refused: such numbers
are never compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def host_key(record: dict) -> tuple:
    host = record["host"]
    return (host["cpu_count"], host["python"], host["implementation"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = load(args.base), load(args.head)
    records = base + head

    hosts = {host_key(r) for r in records}
    if len(hosts) != 1:
        print(f"refused: records come from different hosts {sorted(hosts)}", file=sys.stderr)
        return 2
    kinds = {(r["workload"], r["trace"], r["seconds"]) for r in records}
    if len(kinds) != 1:
        print(f"refused: mixed workloads, trace modes or run lengths {sorted(kinds)}",
              file=sys.stderr)
        return 2
    if not all(r["correct"] for r in records):
        print("refused: a record failed its correctness checks", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    print(f"{'metric':28s} {'base':>12s} {'head':>12s} {'change':>8s}  verdict")
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        h = statistics.median(r["metrics"][name]["value"] for r in head)
        change = (h - b) / b if b else 0.0
        verdict = ""
        metric = bounds.get(name)
        if metric is not None:
            regress = change if metric["better"] == "lower" else -change
            if regress > metric["bound"]:
                verdict = f"WORSE than bound {metric['bound']:.2f}"
                worse += 1
        print(f"{name:28s} {b:12.5g} {h:12.5g} {change:+8.1%}  {verdict}")

    by_seed: dict[int, dict] = {}
    for record in base:
        by_seed.setdefault(record["seed"], record.get("paper_counters"))
    for record in head:
        before = by_seed.get(record["seed"])
        after = record.get("paper_counters")
        if before is not None and after is not None and before != after:
            print(f"paper counters moved on seed {record['seed']}: {before} -> {after}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

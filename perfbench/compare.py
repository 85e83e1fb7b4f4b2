"""Compare two saved benchmark result sets, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that ``run.py --save`` appends, one per run (one
workload and seed). For each workload and metric this prints both sides'
medians and quartiles over runs, and the change of the medians as a share of
the base median. An end-to-end metric reads:

- ``unresolved`` when either side's spread (q3 - q1 as a share of its median)
  is wider than the metric's bound, unless every new run is better than every
  base run;
- ``WORSE`` when the new median is worse than the base one by more than the
  bound;
- ``better`` when it is better by more than the bound, ``ok`` otherwise.

Per-layer metrics have no bound; only their change is shown. Exits with 1 if
any end-to-end metric reads ``WORSE``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace flag)."""
    groups: dict[tuple[str, int], list[dict]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                groups.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return groups


def summary(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    if not med:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    b, n = summary(base)[1], summary(new)[1]
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (n - b) / abs(b) if b else 0.0  # > 0 means worse
    if bound is None:
        return ""
    all_better = max(new) < min(base) if better == "lower" else min(new) > max(base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    if change > bound:
        return "WORSE"
    if change < -bound:
        return "better"
    return "ok"


def compare(base_path, new_path, spec: dict) -> int:
    metrics = [(m, m.get("bound"), 0) for m in spec["end_to_end"]]
    metrics += [(m, None, 1) for m in spec["per_layer"]]
    base, new = load(base_path), load(new_path)
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"== {workload} ({'traced' if trace else 'timed'}): {len(base[key])} base runs, {len(new[key])} new runs")
        print(f"   {'metric':44} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'change':>8}  verdict")
        for m, bound, traced in metrics:
            if traced != trace:
                continue
            name = m["name"]
            b = [r["metrics"][name] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name] for r in new[key] if name in r["metrics"]]
            if not b or not n:
                continue
            bq, nq = summary(b), summary(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            v = verdict(b, n, m["better"], bound)
            worse += v == "WORSE"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"   {name:44} {fmt(bq):>32} {fmt(nq):>32} {change:+8.1%}  {v}")
    for key in sorted(set(base) ^ set(new)):
        print(f"== {key[0]} ({'traced' if key[1] else 'timed'}): only in one result set")
    return 1 if worse else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(argv[0], argv[1], spec)


if __name__ == "__main__":
    sys.exit(main())

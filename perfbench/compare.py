"""Compare two sets of runs recorded with ``run.py --out``.

For each workload and metric: the median and quartiles of each side, the
ratio of the medians (change / parent), and a verdict against the bound in
BENCHMARK.json:

* ``unresolved``: the parent's own quartile spread exceeds the bound, and
  not every change run reads better than every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``better`` / ``same``: otherwise, by the direction of the medians.

Per-layer metrics have no bound; they are listed with their ratios only.
"""

from __future__ import annotations

import json
import statistics


def _load(path: str) -> dict:
    """(workload, trace) -> metric -> list of values."""
    runs: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            slot = runs.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["result"]["metrics"].items():
                slot.setdefault(name, []).append(m["value"])
    return runs


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    p1, pm, p3 = _quartiles(parent)
    cm = statistics.median(change)
    sign = 1 if better == "higher" else -1
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved"
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return "worse"
    return "better" if sign * (cm - pm) > 0 else "same"


def main(parent_path: str, change_path: str, bench: dict) -> None:
    parent, change = _load(parent_path), _load(change_path)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'workload':<16} {'metric':<44} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'ratio':>7}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        for name, pvals in parent[key].items():
            cvals = change[key].get(name)
            if not cvals or name not in declared:
                continue
            m = declared[name]
            p = _quartiles(pvals)
            c = _quartiles(cvals)
            ratio = c[1] / p[1] if p[1] else float("nan")
            v = verdict(pvals, cvals, m["better"], m["bound"]) if "bound" in m else ""
            print(f"{workload:<16} {name:<44} "
                  f"{'/'.join(f'{x:.4g}' for x in p):>30} {'/'.join(f'{x:.4g}' for x in c):>30} "
                  f"{ratio:>7.3f}  {v}")

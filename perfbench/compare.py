"""Compare two sets of benchmark runs, one row per workload and metric.

Each directory holds the ``.perfbench/runs`` records of one commit.  For
every metric the row gives the base (the old median), the new median,
their ratio and each side's spread (quartile distance over median).  An
end-to-end metric is ``unresolved`` when a spread exceeds its bound,
unless every new run beats every old one, and ``regressed`` when the new
median is worse than the base by more than the bound.  A per-layer
metric has no bound: it is ``unresolved`` when the medians differ by no
more than either side's quartile distance.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load(directory: Path) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values over the directory's runs."""
    out: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        metrics = out.setdefault(record["workload"], {})
        for name, m in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def quartile_distance(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(old: list[float], new: list[float], bound: float | None, lower_is_better: bool) -> tuple[str, float, float]:
    base, now = statistics.median(old), statistics.median(new)
    spread_old = quartile_distance(old) / base if base else 0.0
    spread_new = quartile_distance(new) / now if now else 0.0
    if bound is None:
        if max(quartile_distance(old), quartile_distance(new)) >= abs(now - base):
            return ("same" if now == base else "unresolved"), spread_old, spread_new
        return ("lower" if now < base else "higher"), spread_old, spread_new
    sign = 1 if lower_is_better else -1
    worse = sign * (now - base) / base if base else 0.0
    beats_all = all(sign * (n - o) < 0 for n in new for o in old)
    if max(spread_old, spread_new) > bound and not beats_all:
        return "unresolved", spread_old, spread_new
    if worse > bound:
        return "regressed", spread_old, spread_new
    if -worse * base > quartile_distance(old) and beats_all:
        return "improved", spread_old, spread_new
    return "within bound", spread_old, spread_new


def rows(old_dir: Path, new_dir: Path, benchmark: dict) -> list[tuple]:
    spec = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    old, new = load(old_dir), load(new_dir)
    out = []
    for workload in sorted(set(old) & set(new)):
        for name in sorted(set(old[workload]) & set(new[workload])):
            m = spec.get(name, {})
            a, b = old[workload][name], new[workload][name]
            word, spread_old, spread_new = verdict(a, b, m.get("bound"), m.get("better", "lower") == "lower")
            base, now = statistics.median(a), statistics.median(b)
            ratio = now / base if base else float("nan")
            out.append((workload, name, base, now, ratio, spread_old, spread_new, word, len(a), len(b)))
    return out


def main(old_dir: Path, new_dir: Path, benchmark_path: Path) -> int:
    benchmark = json.loads(benchmark_path.read_text())
    table = rows(old_dir, new_dir, benchmark)
    print(f"{'workload':16s} {'metric':52s} {'base':>12s} {'new':>12s} {'ratio':>7s} "
          f"{'spread':>13s} verdict (runs old/new)")
    for workload, name, base, now, ratio, so, sn, word, na, nb in table:
        print(f"{workload:16s} {name:52s} {base:12.6g} {now:12.6g} {ratio:7.3f} "
              f"{so:6.3f}/{sn:6.3f} {word} ({na}/{nb})")
    return 0

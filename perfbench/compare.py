"""Summaries and comparisons of result files written by run.py.

One file: per workload and metric, the median, quartiles and spread of its
runs, and whether the spread is inside the metric's bound.  Two files (base,
change): each side's median and quartiles and the ratio change/base.  A
metric is *unresolved* when either side's spread, the distance between the
quartiles as a share of the median, is wider than its bound.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path) -> dict:
    """{(workload, trace): {"runs": n, "failed": n, "metrics": {name: [values]}}}"""
    groups = defaultdict(lambda: {"runs": 0, "failed": 0, "metrics": defaultdict(list), "units": {}})
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            g = groups[(rec["env"]["workload"], rec["env"]["trace"])]
            g["runs"] += 1
            g["failed"] += rec["failed"]
            for name, m in rec["metrics"].items():
                g["metrics"][name].append(m["value"])
                g["units"][name] = m["unit"]
    return groups


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def _fmt(x) -> str:
    return f"{x:.6g}"


def summarize(path, bounds) -> None:
    for (workload, trace), g in sorted(load(path).items()):
        print(f"== {workload} trace={trace}: {g['runs']} runs, {g['failed']} failed checks")
        for name, values in g["metrics"].items():
            q1, med, q3 = quartiles(values)
            s = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                verdict += f" (bound {bound})"
            print(f"  {name:44s} median {_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}] {g['units'][name]}"
                  f"  spread {s:.3f} {verdict}")


def compare(base_path, change_path, bounds, better) -> None:
    base, change = load(base_path), load(change_path)
    for key in sorted(set(base) & set(change)):
        a, b = base[key], change[key]
        print(f"== {key[0]} trace={key[1]}: base {a['runs']} runs ({a['failed']} failed), "
              f"change {b['runs']} runs ({b['failed']} failed)")
        for name in a["metrics"]:
            if name not in b["metrics"]:
                continue
            va, vb = a["metrics"][name], b["metrics"][name]
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                worse = ratio - 1.0 if better.get(name) == "lower" else 1.0 - ratio
                if spread(va) > bound or spread(vb) > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = f"WORSE by more than {bound}"
                else:
                    verdict = "within bound"
            print(f"  {name:44s} base {_fmt(qa[1])} [{_fmt(qa[0])}, {_fmt(qa[2])}]"
                  f"  change {_fmt(qb[1])} [{_fmt(qb[0])}, {_fmt(qb[2])}] {a['units'][name]}"
                  f"  ratio {ratio:.4f} (base {_fmt(qa[1])})  {verdict}")


def main(paths, benchmark_json) -> int:
    with open(benchmark_json, encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    if len(paths) == 1:
        summarize(paths[0], bounds)
    elif len(paths) == 2:
        compare(paths[0], paths[1], bounds, better)
    else:
        print("error: --compare takes one or two result files")
        return 2
    return 0

#!/usr/bin/env python3
"""Median and quartiles of benchmark results, per workload and metric.

    python3 perfbench/summarize.py .perfbench_work/*.json [--out summary.json]

Reads the result files `run.py` writes (one per run) and prints, for each
workload and trace mode, the median, first and third quartile, quartile
distance as a share of the median, and run count of every metric and of
every stage figure reported beside the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def summarize(paths: list[Path]) -> dict:
    groups: dict[str, list[dict]] = {}
    for path in paths:
        stem = path.name.removesuffix(".json")
        workload, _, rest = stem.rpartition("-seed")
        trace = rest.rpartition("-trace")[2]
        groups.setdefault(f"{workload} trace{trace}", []).append(json.loads(path.read_text()))
    out = {}
    for key, runs in sorted(groups.items()):
        metrics = {
            name: dict(
                unit=entry["unit"],
                **_stats([r["metrics"][name]["value"] for r in runs if name in r["metrics"]]),
            )
            for name, entry in runs[0]["metrics"].items()
        }
        # The stage figures printed beside the metrics (accuracies, loss,
        # stage rates, error rate): recorded, not bounded.
        info = {
            name: _stats([r["info"][name] for r in runs if name in r["info"]])
            for name, value in runs[0]["info"].items()
            if isinstance(value, (int, float))
        }
        out[key] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "manifest": runs[-1]["manifest"],
            "metrics": metrics,
            "info": info,
        }
    return out


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    summary = summarize(args.results)
    for key, group in summary.items():
        print(f"{key}  correct={group['correct']}  failed={group['failed']}")
        for name, m in [*group["metrics"].items(), *group["info"].items()]:
            print(
                f"  {name:34s} {m['median']:12.6g} {m.get('unit', ''):14s}"
                f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.3f}  n={m['runs']}"
            )
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

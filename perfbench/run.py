#!/usr/bin/env python3
"""factpool benchmark: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload robust-pooled --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/` there.
A run measures a fixed number of the workload's units: as many as fit in
`--seconds` at the workload's nominal unit time.  With `--trace 0` it
measures end-to-end metrics with tracing off: it sets up the inputs several
times before each unit and after the last one, runs the units, reads the
peak memory and then runs the output checks.  With `--trace 1` it runs one
untraced warm-up unit, then that many pairs of an untraced and a traced
unit in alternating order, and reports the per-layer metrics of the first
traced set-up and unit, the tracing overhead and the checks.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The lines before it list
every metric by name and unit and the environment manifest.  The run also
writes its result (and with tracing, its spans) under `.perfbench_work/`.
The exit status is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is loaded: single-thread timings are
# steadier, and one is within the core count of any machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
INFO_UNITS = {
    "acc_with_pct": "%",
    "acc_without_pct": "%",
    "final_loss": "nats",
    "retrieve_qps": "1/s",
    "encode_qps": "1/s",
    "cached_prepare_qps": "1/s",
    "error_rate": "ratio",
    "span_cost_pct": "%",
}


def _git_revision() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": BLAS_THREADS,
        },
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
    }


def _median(values):
    return float(statistics.median(values))


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def unit_count(workload, seconds: float) -> int:
    return max(1, int(seconds // workload.unit_s))


def _next_unit(workload, state, work: Path, outs: list, tally) -> dict:
    """Run one unit; drop what the checks need from the last unit only."""
    if outs:
        outs[-1].pop("last_only", None)
    out = workload.unit(state, _fresh(work / "unit"), tally)
    outs.append(out)
    return out


def run_untraced(workload, seed: int, seconds: float, work: Path, tally) -> tuple[dict, dict]:
    units = unit_count(workload, seconds)
    per_gap = max(1, workload.setup_samples // (units + 1))
    setup_times: list[float] = []
    outs: list[dict] = []
    state = None

    def set_up():
        nonlocal state
        for _ in range(per_gap):
            state = None  # not alive while the next one is built
            start = time.perf_counter()
            state = workload.setup(seed, _fresh(work / "setup"))
            setup_times.append(time.perf_counter() - start)

    # Set-up samples go before every unit and after the last one, so that
    # their median spans the run: the host's speed shifts in phases of
    # seconds to minutes, and a burst of samples would fall in one phase.
    for _ in range(units):
        set_up()
        _next_unit(workload, state, work, outs, tally)
    set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check(state, outs, tally)
    metrics = {
        "setup_s": _median(setup_times),
        "wall_s": _median([o["wall_s"] for o in outs]),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {key: _median([o["info"][key] for o in outs]) for key in outs[0]["info"]}
    info["unit_wall_s"] = [o["wall_s"] for o in outs]
    info["setup_s_samples"] = setup_times
    return metrics, info


def span_cost_s(calls: int = 20000) -> float:
    """What recording one span adds to a call of a function that does nothing."""
    from spans import Boundary, Recorder

    def noop():
        return None

    wrapped = Recorder().wrap(Boundary("noop", "noop"), noop)
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append(((mid - start) - (time.perf_counter() - mid)) / calls)
    return min(costs)


def run_traced(workload, seed: int, seconds: float, work: Path, tally) -> tuple[dict, dict, list]:
    from layers import BOUNDARIES, OVERHEAD_METRIC, layer_metrics
    from spans import Recorder, traced

    state = workload.setup(seed, _fresh(work / "setup"))
    outs: list[dict] = []
    _next_unit(workload, state, work, outs, tally)  # warm-up, outside the ratio
    recorder = Recorder()
    missing_targets: list[str] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    # Untraced and traced units alternate (U T, T U, U T, ...), so that
    # drift in machine speed does not fall on one side of the ratio.
    for pair in range(unit_count(workload, seconds)):
        for tracing in (False, True) if pair % 2 == 0 else (True, False):
            if not tracing:
                out = _next_unit(workload, state, work, outs, tally)
            elif walls[True]:
                with traced(Recorder(), BOUNDARIES, "factpool"):
                    out = _next_unit(workload, state, work, outs, tally)
            else:
                # The first traced set-up and unit give the layer metrics.
                with traced(recorder, BOUNDARIES, "factpool") as missing_targets:
                    traced_state = workload.setup(seed, _fresh(work / "setup_traced"))
                    out = _next_unit(workload, traced_state, work, outs, tally)
                del traced_state
            walls[tracing].append(out["wall_s"])
    workload.check(state, outs, tally)
    recorder.write_jsonl(work.parent / f"{work.name}.spans.jsonl.gz")
    metrics, missing = layer_metrics(recorder.spans, missing_targets)
    ratios = [t / u for u, t in zip(walls[False], walls[True])]
    metrics[OVERHEAD_METRIC[0]] = 100.0 * (_median(ratios) - 1.0)
    info = {
        # Resolved only when every pair agrees on the sign of the overhead;
        # otherwise the host's drift between the two units of a pair is
        # larger than the tracing's cost and the figure is noise.
        "overhead_resolved": min(ratios) > 1.0 or max(ratios) < 1.0,
        "pair_ratios": ratios,
        # The recorder's own cost in the first traced unit, without the
        # per-call counters: a floor under the overhead, which the measured
        # ratio cannot resolve when it is smaller than the host's drift.
        "span_cost_pct": 100.0 * len(recorder.spans) * span_cost_s() / _median(walls[False]),
        "spans": len(recorder.spans),
        "missing_boundaries": missing_targets,
        "warmup_wall_s": outs[0]["wall_s"],
        "untraced_wall_s": walls[False],
        "traced_wall_s": walls[True],
    }
    return metrics, info, missing


def _units(trace: bool) -> dict:
    if not trace:
        return E2E_UNITS
    from layers import LAYER_METRICS, OVERHEAD_METRIC

    units = {m.name: m.unit for m in LAYER_METRICS}
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "factpool" / "__init__.py").is_file():
        print(f"error: no factpool sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    import factpool

    if Path(factpool.__file__).resolve().parent != (SRC / "factpool").resolve():
        print(f"error: imported factpool from {factpool.__file__}, not {SRC}", file=sys.stderr)
        return 2

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = _fresh(WORK / name)
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    metrics: dict = {}
    info: dict = {}
    missing: list[str] = []
    try:
        if args.trace:
            metrics, info, missing = run_traced(workload, args.seed, args.seconds, work, tally)
        else:
            metrics, info = run_untraced(workload, args.seed, args.seconds, work, tally)
    except Exception:
        traceback.print_exc()
        if tally.failed == 0:  # raised outside any counted operation
            tally.attempted += 1
            tally.failed += 1
    env = manifest()
    units = _units(bool(args.trace))
    info["error_rate"] = tally.failed / max(tally.attempted, 1)
    correct = tally.failed == 0 and not (set(units) - set(metrics) - set(missing))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, unit in units.items():
        if key in metrics:
            print(f"  {key:34s} {metrics[key]:.6g} {unit}")
        elif key in missing:
            print(f"  {key:34s} MISSING (boundary not found)")
    for key, value in info.items():
        if key in INFO_UNITS:
            print(f"  {key:34s} {value:.6g} {INFO_UNITS[key]}")
    if info.get("overhead_resolved") is False:
        ratios = ", ".join(f"{r:.3f}" for r in info["pair_ratios"])
        print(f"  trace.overhead_pct is unresolved: traced/untraced pair ratios {ratios}")
    for failure in tally.failures:
        print(f"  FAILED {failure}")
    if missing:
        print(f"missing boundaries: {', '.join(info.get('missing_boundaries', []))}")
    print("manifest " + json.dumps(env, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }
    record = dict(result, info=info, missing=missing, manifest=env, failures=tally.failures)
    (WORK / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

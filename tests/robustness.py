"""Acceptance criterion 5's robustness run: `compare_kinds` over the three
model kinds and seeds 0-2 on the 700-question acceptance set.

It is tier-1's long pole and needs nothing from the other tests, so
`tests/conftest.py` starts it with `start(root)` when the session collects
criterion 5, and the criterion's fixture collects it with `results`.  A
kind's metrics depend only on the data, the config and the seeds, so the
run is split by KIND_GROUPS into subprocesses with one BLAS thread each,
which run beside each other and beside the rest of the suite.

    python tests/robustness.py ROOT KIND...   # run KINDs into ROOT, print their metrics as JSON
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from golden import REPO, start_script

from factpool.config import load_config
from factpool.experiment import ExperimentConfig, Metrics, SeedResult, compare_kinds
from factpool.synthetic import SyntheticSpec, write_synthetic

ACCEPTANCE_CONFIG = REPO / "configs" / "acceptance.cfg"
TIMEOUT_S = 3600.0
WHAT = "criterion 5's robustness run (compare_kinds: pooled, gnn and lm, seeds 0-2)"
KIND_GROUPS = (("pooled", "lm"), ("gnn",))  # one subprocess each


def run(root: Path, kinds: tuple[str, ...]) -> dict[str, Metrics]:
    spec = SyntheticSpec(
        entities=7000, relations=6, questions=700, candidates=4,
        distractor_rate=0.6, kg_fraction=0.6, seed=0,
    )
    paths = write_synthetic(spec, root)
    ecfg = ExperimentConfig(
        config=load_config(ACCEPTANCE_CONFIG),
        kg_path=str(paths["kg"]),
        dataset_path=str(paths["dataset"]),
        templates_path=str(paths["templates"]),
        train_count=500,
        test_count=200,
        seeds=(0, 1, 2),
    )
    return compare_kinds(ecfg, kinds)[0]


def start(root: Path) -> list[subprocess.Popen]:
    """`run` of each of KIND_GROUPS in its own directory under `root`, each
    started in a subprocess with one BLAS thread."""
    script = Path(__file__).resolve()
    return [start_script(script, str(root / "-".join(kinds)), *kinds) for kinds in KIND_GROUPS]


def results(proc: subprocess.Popen, timeout: float = TIMEOUT_S) -> dict[str, Metrics]:
    """One of `start`'s processes' metrics per kind, once it ends."""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{WHAT} did not finish within {timeout:g} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{WHAT}: exit status {proc.returncode}\n{err}")
    return {
        kind: Metrics(**dict(fields, per_seed=[SeedResult(**r) for r in fields["per_seed"]]))
        for kind, fields in json.loads(out).items()
    }


def main(argv=None) -> int:
    root, *kinds = sys.argv[1:] if argv is None else argv
    # Only the metrics go to stdout.
    with contextlib.redirect_stdout(sys.stderr):
        metrics = run(Path(root), tuple(kinds))
    print(json.dumps({kind: asdict(m) for kind, m in metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

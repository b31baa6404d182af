"""Golden output manifest: the sha256 of every file and stdout the CLI writes
on one small fixed data set.

`run_commands(root)` generates the data into `root`, runs every command
through `cli.main` in this process and returns {name: sha256}, where a name
is a written file's path under `root` or `stdout:<step>`.  Output paths are
replaced by `<out>` in stdout before hashing, so the digests do not depend
on where `root` is.

The manifest has two sections.  The first runs every command at d=16.  The
second, the wide tier (names under `wide/`), runs `configs/acceptance.cfg`
for one epoch on a 96-question set, where d=64 and a batch's few hundred
pooled edge rows make OpenBLAS pick the kernels the full-size runs take.
Those bytes depend on the BLAS thread count, so `start_wide(root)` runs
the tier in a subprocess with one BLAS thread, beside the first section,
and `wide_digests` collects it.

    python -m tests.golden --write   # regenerate tests/golden/outputs.sha256

A change that moves output bytes on purpose regenerates the manifest and
names each changed entry and the reason.  The manifest's header records the
numpy version and BLAS build the digests were taken with.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).parent / "golden" / "outputs.sha256"
REPO = Path(__file__).resolve().parent.parent
WIDE = "wide/"  # the wide tier's name prefix
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CONFIG_TEXT = """\
L=2
d=16
heads=2
K=1
fusion_mode=early_late
max_tokens=48
max_nodes=8
token_pooling=mean
encoder_kind=hash-bag
lr_lm=0.003
lr_graph=0.01
epochs=2
batch_size=4
seed=0
"""


def environment() -> list[str]:
    """The header lines: what the digests depend on besides the code."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return [f"numpy {np.__version__}", f"blas {blas['name']} {blas['version']}"]


def _steps(root: Path):
    """(name, argv) per command, in run order."""
    data = root / "data"
    graph = ["--kg", str(data / "kg.tsv"), "--dataset", str(data / "dataset.jsonl")]
    full = [*graph, "--templates", str(data / "templates.tsv")]
    cfg = ["--config", str(root / "run.cfg")]
    toy = ["--config", str(root / "toy.cfg")]
    out = root / "out"
    train, test = ["--count", "24"], ["--skip", "24", "--count", "12"]
    experiment = ["--train-count", "24", "--test-count", "12"]
    steps = [
        ("generate", ["generate", "--entities", "400", "--relations", "3", "--questions", "40",
                      "--seed", "3", "--out", str(data)]),
        ("retrieve", ["retrieve", *graph, *cfg, "--out", str(out / "retrieve")]),
        ("perturb", ["perturb", *graph, *cfg, "--out", str(out / "perturb")]),
        ("encode", ["encode", *full, *cfg, "--out", str(out / "encode")]),
    ]
    for kind in ("pooled", "gnn", "lm"):
        ckpt = out / f"train_{kind}"
        steps.append((f"train_{kind}", ["train", *full, *cfg, *train, "--model", kind,
                                        "--out", str(ckpt)]))
        steps.append((f"eval_{kind}", ["eval", *full, *test, "--checkpoint",
                                       str(ckpt / "final.ckpt"), "--out", str(ckpt)]))
    steps += [
        ("explain", ["explain", *full, "--checkpoint", str(out / "train_pooled" / "final.ckpt"),
                     "--out", str(out / "train_pooled")]),
        ("run", ["run", *full, *cfg, *experiment, "--seeds", "0,1", "--out", str(out / "run")]),
        ("sweep", ["sweep", *full, *cfg, *experiment, "--axis", "K", "--values", "0,1",
                   "--out", str(out / "sweep")]),
        ("count_aggs", ["count-aggs", *cfg]),
        ("toy_encode", ["encode", *full, *toy, "--out", str(out / "toy_encode")]),
        ("toy_run", ["run", *full, *toy, *experiment, "--kinds", "pooled",
                     "--out", str(out / "toy_run")]),
        ("external_train", ["train", *full, "--config", str(root / "external.cfg"), *train,
                            "--cache", str(out / "encode" / "embeddings.bin"),
                            "--out", str(out / "external")]),
        ("external_eval", ["eval", *full, *test, "--checkpoint",
                           str(out / "external" / "final.ckpt"),
                           "--cache", str(out / "encode" / "embeddings.bin"),
                           "--out", str(out / "external")]),
    ]
    return steps


def _wide_steps(root: Path):
    """(name, argv) per command of the wide tier, in run order."""
    data = root / "data"
    full = ["--kg", str(data / "kg.tsv"), "--dataset", str(data / "dataset.jsonl"),
            "--templates", str(data / "templates.tsv")]
    run = root / "out" / "run"
    ckpt = ["--checkpoint", str(run / "pooled_seed0" / "final.ckpt")]
    return [
        ("generate", ["generate", "--entities", "7000", "--relations", "6", "--questions", "96",
                      "--candidates", "4", "--distractor-rate", "0.6", "--kg-fraction", "0.6",
                      "--seed", "0", "--out", str(data)]),
        ("run", ["run", *full, "--config", str(root / "acceptance.cfg"), "--train-count", "64",
                 "--test-count", "32", "--out", str(run)]),
        ("eval", ["eval", *full, *ckpt, "--skip", "64", "--count", "32",
                  "--out", str(root / "out" / "eval")]),
        ("explain", ["explain", *full, *ckpt, "--out", str(root / "out" / "explain")]),
    ]


def _run(root: Path, steps) -> dict[str, str]:
    """{name: sha256} of each step's stdout and of every file under `root`."""
    from factpool import cli

    digests = {}
    for name, argv in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"{name}: exit status {status}")
        stdout = buf.getvalue().replace(str(root), "<out>")
        digests[f"stdout:{name}"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.suffix != ".cfg":
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
    return digests


def run_commands(root: Path) -> dict[str, str]:
    """The d=16 section's digests."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "run.cfg").write_text(CONFIG_TEXT, encoding="utf-8")
    for name, kind in (("toy", "shared-toy-encoder"), ("external", "external-file")):
        text = CONFIG_TEXT.replace("encoder_kind=hash-bag", f"encoder_kind={kind}")
        (root / f"{name}.cfg").write_text(text, encoding="utf-8")
    return _run(root, _steps(root))


def _run_wide(root: Path) -> dict[str, str]:
    root.mkdir(parents=True, exist_ok=True)
    text = (REPO / "configs" / "acceptance.cfg").read_text(encoding="utf-8")
    text, count = re.subn(r"(?m)^epochs=\d+$", "epochs=1", text)
    assert count == 1, "configs/acceptance.cfg needs one epochs= line"
    (root / "acceptance.cfg").write_text(text, encoding="utf-8")
    return {WIDE + name: digest for name, digest in _run(root, _wide_steps(root)).items()}


def start_script(script: Path, *args: str) -> subprocess.Popen:
    """`script` with `args`, started in a subprocess with one BLAS thread and
    this checkout's `src/`; its stdout and stderr are piped as text."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(script), *args],
        env=dict(os.environ, PYTHONPATH=path, **ONE_BLAS_THREAD),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def start_wide(root: Path) -> subprocess.Popen:
    """`_run_wide(root)`, started by `start_script`."""
    return start_script(Path(__file__).resolve(), "--wide-in", str(root))


def wide_digests(proc: subprocess.Popen) -> dict[str, str]:
    """The wide section's digests, once `start_wide`'s process ends."""
    out, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"wide tier: exit status {proc.returncode}\n{err}")
    return dict(line.split("  ", 1)[::-1] for line in out.splitlines())


def all_digests(root: Path) -> dict[str, str]:
    """Both sections' digests, taken side by side: what the manifest holds."""
    wide = start_wide(root / "wide")
    return {**run_commands(root / "narrow"), **wide_digests(wide)}


def read_manifest() -> tuple[list[str], dict[str, str]]:
    """(header lines, {name: sha256}) of the committed manifest."""
    header, digests = [], {}
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            header.append(line[2:])
        elif line:
            digest, name = line.split("  ", 1)
            digests[name] = digest
    return header, digests


def write_manifest(digests: dict[str, str]) -> None:
    lines = [f"# {line}" for line in environment()]
    narrow = sorted(name for name in digests if not name.startswith(WIDE))
    lines += [f"{digests[name]}  {name}" for name in narrow]
    lines += ["", "# wide tier: configs/acceptance.cfg, 1 epoch, 1 BLAS thread"]
    lines += [f"{digests[name]}  {name}" for name in sorted(digests.keys() - set(narrow))]
    MANIFEST.parent.mkdir(parents=True, exist_ok=True)
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")


def differing(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """The names whose digest differs, or that only one side has."""
    return sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__)
    parser.add_argument("--write", action="store_true", help="regenerate the manifest")
    parser.add_argument("--wide-in", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.wide_in:  # `wide_digests`' subprocess
        for name, digest in _run_wide(args.wide_in).items():
            print(f"{digest}  {name}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        digests = all_digests(Path(tmp))
    if args.write:
        write_manifest(digests)
        print(f"{MANIFEST}: {len(digests)} entries")
        return 0
    moved = differing(read_manifest()[1], digests)
    for name in moved:
        print(f"differs: {name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

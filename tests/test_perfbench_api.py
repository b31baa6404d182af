"""What the benchmark in perfbench/ reaches of the program still exists.

perfbench/ changes only in its own revisions, so a refactor of the program
that renames or deletes a name the workloads call breaks every benchmark
run, and one that moves a traced function silently zeroes its per-layer
metrics.  These tests read the benchmark's code; they run none of it.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import spans  # noqa: E402


def test_every_traced_boundary_resolves():
    missing = sorted({b.target for b in layers.BOUNDARIES if spans.resolve(b.target) is None})
    assert not missing


def program_names(path: Path):
    """(`from factpool import m as a` aliases -> module, `a.attr` uses with
    their lines, `from factpool.m import name` imports with their lines)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "factpool":
            for alias in node.names:
                if node.module == "factpool":
                    aliases[alias.asname or alias.name] = f"factpool.{alias.name}"
                else:
                    imported.append((node.module, alias.name, node.lineno))
    uses = [
        (node.value.id, node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]
    return aliases, uses, imported


def test_every_program_name_the_workloads_use_exists():
    aliases, uses, imported = program_names(PERFBENCH / "workloads.py")
    assert {"fp_model", "experiment", "cli", "kg_mod"} <= set(aliases)
    assert {alias for alias, _, _ in uses} == set(aliases)
    missing = [
        f"line {line}: {alias}.{attr}"
        for alias, attr, line in uses
        if not hasattr(importlib.import_module(aliases[alias]), attr)
    ] + [
        f"line {line}: from {module} import {name}"
        for module, name, line in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing

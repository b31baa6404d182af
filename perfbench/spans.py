"""In-memory span recorder and the rebinding helper behind the traced run.

Spans are kept in memory while the workload runs and written out once at the
end.  A span records its name, start, end, parent and a reference (the
question or batch id it belongs to).  Self time is a span's duration minus the
time its child spans cover; spans nest strictly because the program is single
threaded, so the children's durations never overlap.

A layer boundary is a function named as ``module:qualname``.  Modules of the
program import functions by name (``from factpool.kg import load_kg``), so
tracing a module-level function rebinds every attribute of every loaded
module of the package that refers to it; a method is rebound on its class.
A boundary that no longer resolves is reported as missing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# Span record fields, stored as lists for cheap appends.
NAME, START, END, PARENT, REF, CHILD, ATTRS = range(7)


@dataclass(frozen=True)
class Boundary:
    """One traced function: span name, target and optional per-call data.

    ``attrs(args, kwargs, result)`` returns counters stored on the span; it
    runs after the span has ended.  ``ref`` is a prefix: a span of this
    boundary whose parent carries no reference gets a fresh ``<ref><n>`` id.
    """

    name: str
    target: str
    attrs: Callable | None = None
    ref: str | None = None


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ref_counts: dict[str, int] = {}

    def wrap(self, boundary: Boundary, func: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        counts = self._ref_counts
        name, attrs, prefix = boundary.name, boundary.attrs, boundary.ref
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            ref = spans[parent][REF] if parent >= 0 else None
            if ref is None and prefix is not None:
                counts[prefix] = counts.get(prefix, 0) + 1
                ref = f"{prefix}{counts[prefix]}"
            span = [name, 0.0, 0.0, parent, ref, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span[END] = end
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return functools.wraps(func)(traced)

    def write_jsonl(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span[NAME],
                            "start": span[START],
                            "end": span[END],
                            "parent": span[PARENT],
                            "ref": span[REF],
                            "self": span[END] - span[START] - span[CHILD],
                            "attrs": span[ATTRS],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def self_time(span: list) -> float:
    return span[END] - span[START] - span[CHILD]


def package_modules(package: str) -> list:
    """Import and return every module of `package`, the package included."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        importlib.import_module(info.name)
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def resolve(target: str):
    """``module:qualname`` -> (owner, attribute, function) or None if gone."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    func = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(func):
        return None
    return owner, attr, func


@contextmanager
def traced(recorder: Recorder, boundaries: list[Boundary], package: str):
    """Rebind every boundary to a recording wrapper; yields the missing names.

    Originals are restored on exit, so an untraced run in the same process
    executes the unmodified program.
    """
    modules = package_modules(package)
    patches: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for boundary in boundaries:
            found = resolve(boundary.target)
            if found is None:
                missing.append(boundary.target)
                continue
            owner, attr, func = found
            wrapper = recorder.wrap(boundary, func)
            if isinstance(owner, type):
                patches.append((owner, attr, func))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is func:
                        patches.append((mod, name, func))
                        setattr(mod, name, wrapper)
        yield missing
    finally:
        for owner, attr, func in reversed(patches):
            setattr(owner, attr, func)

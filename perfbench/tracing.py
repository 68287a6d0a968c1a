"""Out-of-program tracing: wrap module-level functions and methods of the
package from outside, record spans in memory, derive per-layer figures.

A span is (name, start, end, parent index). A function imported by name
into several modules (``from .pruning import trivial_prune`` in the CLI)
is replaced in every module that holds a reference to it, so the call is
traced whichever module makes it. Names that no longer exist are listed
as absent instead of failing, so the benchmark survives a change that
deletes a traced function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

TAIL_PER_MILLE = (999, 990, 900)  # p99.9, p99, p90
MIN_BEYOND = 10


@dataclass(frozen=True)
class Target:
    """A traced callable, as "<module>.<function>" or
    "<module>.<Class>.<method>" relative to the package. With
    ``per_parent_index`` each call is named "<name>.L<i>", where i counts
    the earlier calls of the same name under the same parent span."""

    name: str
    per_parent_index: bool = False


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    children: list[int] = field(default_factory=list)


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._child_counts: dict[tuple[int | None, str], int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (phase, repetition)."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _indexed_name(self, base: str) -> str:
        key = (self._stack[-1] if self._stack else None, base)
        i = self._child_counts.get(key, 0)
        self._child_counts[key] = i + 1
        return f"{base}.L{i}"

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = (
                tracer._indexed_name(target.name)
                if target.per_parent_index
                else target.name
            )
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # -- patching -----------------------------------------------------
    def install(self, targets) -> None:
        """Patch every target; record the names that cannot be found."""
        for target in targets:
            if not self._install_one(target) and target.name not in self.absent:
                self.absent.append(target.name)

    def _install_one(self, target: Target) -> bool:
        module_name, *path = target.name.split(".")
        try:
            module = importlib.import_module(f"{self.package}.{module_name}")
        except ImportError:
            return False
        if len(path) == 1:
            original = getattr(module, path[0], None)
            if not callable(original):
                return False
            self._patches += replace_everywhere(
                self.package, original, self._wrap(target, original)
            )
            return True
        if len(path) == 2:
            owner = getattr(module, path[0], None)
            if not inspect.isclass(owner) or path[1] not in vars(owner):
                return False
            raw = vars(owner)[path[1]]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(target, raw.__func__))
            elif inspect.isfunction(raw):
                patched = self._wrap(target, raw)
            else:
                return False
            self._patches.append((owner, path[1], raw))
            setattr(owner, path[1], patched)
            return True
        return False

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------
    def self_times(self) -> list[float]:
        return [
            self_time(
                (s.start, s.end),
                [(self.spans[c].start, self.spans[c].end) for c in s.children],
            )
            for s in self.spans
        ]

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                [[s.name, s.start, s.end, s.parent] for s in self.spans], fh
            )


def replace_everywhere(package: str, original, replacement) -> list:
    """Point every module-level reference to ``original`` in the package's
    loaded modules at ``replacement``; returns (module, attr, original)
    records for undoing it."""
    prefix = package + "."
    patches = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(prefix)):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, attr, value))
                setattr(mod, attr, replacement)
    return patches


def self_time(interval: tuple[float, float], children) -> float:
    """Duration of ``interval`` minus the part its children cover.

    Children are clipped to the interval and their union is taken, so
    overlapping or out-of-range child spans are never counted twice.
    """
    lo, hi = interval
    covered = 0.0
    cursor = lo
    for c_lo, c_hi in sorted(children):
        c_lo = max(c_lo, cursor)
        c_hi = min(c_hi, hi)
        if c_hi > c_lo:
            covered += c_hi - c_lo
            cursor = c_hi
    return (hi - lo) - covered


def tail_percentile(n: int) -> float | None:
    """Highest tail percentile with at least MIN_BEYOND of n samples above."""
    for pm in TAIL_PER_MILLE:
        if n * (1000 - pm) >= MIN_BEYOND * 1000:
            return pm / 10
    return None


def roots(tracer: Tracer) -> list[int]:
    """Index of each span's outermost ancestor (parents precede children)."""
    out: list[int] = []
    for i, s in enumerate(tracer.spans):
        out.append(i if s.parent is None else out[s.parent])
    return out


def layer_stats(tracer: Tracer, names, scope: list[int]) -> dict[str, dict]:
    """Per traced name, over the spans below the root spans in ``scope``
    (one root per repetition): calls and self ms per repetition, share of
    the roots' wall time, and the median and tail of per-call inclusive
    wall time."""
    selfs = tracer.self_times()
    root_of = roots(tracer)
    reps = len(scope)
    wall_s = sum(tracer.spans[i].end - tracer.spans[i].start for i in scope)
    scope = set(scope)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        if root_of[i] in scope and root_of[i] != i:
            by_name.setdefault(s.name, []).append(i)
    out: dict[str, dict] = {}
    for name in names:
        idx = by_name.get(name, [])
        durations = [tracer.spans[i].end - tracer.spans[i].start for i in idx]
        self_s = float(sum(selfs[i] for i in idx))
        row = {
            "calls": len(idx) / reps,
            "self_ms": 1e3 * self_s / reps,
            "share": self_s / wall_s if wall_s > 0 else 0.0,
            "p50_ms": 1e3 * float(np.median(durations)) if idx else 0.0,
        }
        q = tail_percentile(len(idx))
        if q is not None:
            row["tail"] = {
                "percentile": q,
                "ms": 1e3 * float(np.percentile(durations, q)),
            }
        out[name] = row
    return out

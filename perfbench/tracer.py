"""Times the program's modules from outside by wrapping their public functions.

Each wrapped function is rebound under its name in every loaded
`clustermatch` module that looks it up (`from .clustering import silhouette`
makes `matching.silhouette` a second name for it), or on its class for a
method. A span records calls, total time and self time (its duration minus
the time of the spans it called). Hot functions are only counted, which keeps
the tracing overhead low. A target that no longer exists is reported as
absent, so the benchmark keeps working when a function is removed.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "clustermatch"

# (module, qualified name) traced as spans
SPANS = (
    ("cli", "main"),
    ("pipeline", "recognize"),
    ("pipeline", "build_labeled_store"),
    ("pipeline", "run_clustering"),
    ("pipeline", "_representatives"),
    ("clustering", "estimate_clustering"),
    ("clustering", "ward_tree"),
    ("clustering", "WardTree.cut"),
    ("clustering", "silhouette"),
    ("geometry", "pairwise_distances"),
    ("matching", "match_cluster"),
    ("matching", "make_cluster_embedding"),
    ("matching", "truncate_top_alpha"),
    ("matching", "match_probabilities"),
    ("matching", "sigma"),
    ("matching", "majority_label"),
    ("formats", "read_embeddings"),
    ("formats", "read_store"),
    ("formats", "read_face_labels"),
    ("formats", "write_store"),
    ("formats", "write_face_labels"),
    ("formats", "_atomic_write"),
    ("timeline", "emit_timeline"),
    ("timeline", "format_segments"),
    ("evaluation", "score_video"),
)

# (module, qualified name) only counted: called K*S times per match
COUNTS = (("matching", "similarity"),)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Snapshot:
    """What one traced stretch of work recorded."""

    stats: dict[str, Stat]
    edges: Counter  # (parent span, child span) -> calls
    extra: Counter  # named quantities from hooks, e.g. distance-matrix bytes

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())


@dataclass
class _Frame:
    name: str
    child_s: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    edges: Counter = field(default_factory=Counter)
    extra: Counter = field(default_factory=Counter)
    absent: list[str] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)

    def install(self) -> None:
        self.absent = []
        for module, qualname in SPANS:
            self._wrap(module, qualname, self._span)
        for module, qualname in COUNTS:
            self._wrap(module, qualname, self._count)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self) -> Snapshot:
        """Return what was recorded since the last take, and start afresh."""
        snap = Snapshot(self.stats, self.edges, self.extra)
        self.stats, self.edges, self.extra = {}, Counter(), Counter()
        return snap

    def _wrap(self, module: str, qualname: str, make) -> None:
        name = f"{module}.{qualname}"
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            self.absent.append(name)
            return
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = functools.wraps(original)(make(name, original))
        if path:  # a method: rebind it on its class
            self._rebind(owner, attr, original, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                if vars(mod).get(attr) is original:
                    self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def _count(self, name, original):
        def counted(*args, **kwargs):
            self._stat(name).calls += 1
            return original(*args, **kwargs)

        return counted

    def _span(self, name, original):
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            frame = _Frame(name)
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self._stack.pop()
                stat = self._stat(name)
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame.child_s
                if self._stack:
                    parent = self._stack[-1]
                    parent.child_s += duration
                    self.edges[(parent.name, name)] += 1
            if hook is not None:
                hook(self.extra, args, result)
            return result

        return traced


def _pairwise_bytes(extra: Counter, args, result) -> None:
    n = len(args[0]) if args else 0
    extra["pairwise_bytes"] += n * n * 8


def _matched(extra: Counter, args, result) -> None:
    extra["matched"] += int(bool(getattr(result, "matched", False)))


_HOOKS = {
    "geometry.pairwise_distances": _pairwise_bytes,
    "matching.match_cluster": _matched,
}

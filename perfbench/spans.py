"""In-memory span recorder and call wrappers for the traced benchmark run.

The traced mode times calls into each layer's public functions without
touching the program: :class:`Instrumentation` swaps a module attribute or a
class method for a wrapper that records one span (name, start, end, parent,
tag) per call and then calls the original.  Spans stay in memory as flat
lists; :meth:`SpanRecorder.to_json` writes them out when the run ends.

A span's *self time* is its duration minus the durations of its direct
children, so the self times of every span under a root add up to the root's
duration exactly.  Per-layer self time is the sum over the layer's spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np


class SpanRecorder:
    """Flat, append-only span store with a parent stack.

    ``phase`` labels every span opened while it is set (``"setup"``,
    ``"check"``, ``"serve"``), so metrics can be taken over one phase.
    ``counters`` accumulate per-call quantities (FLOPs, bytes, batch sizes)
    keyed by ``(phase, name)``.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layers: List[str] = []
        self.phases: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.tags: List[int] = []
        self.stack: List[int] = []
        self.phase = "setup"
        self.counters: Dict[tuple, float] = defaultdict(float)
        self.samples: Dict[tuple, List[float]] = defaultdict(list)

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, layer: str, tag: int = -1) -> int:
        index = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.phases.append(self.phase)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.tags.append(tag)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[(self.phase, name)] += amount

    def sample(self, name: str, value: float) -> None:
        self.samples[(self.phase, name)].append(value)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus its direct children's durations."""
        durations = self.durations()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(durations)
        )
        return durations - child_time

    def to_json(self) -> Dict[str, object]:
        """Columnar dump: name table plus per-span indices and microsecond times."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        origin = self.starts[0] if self.starts else 0.0
        return {
            "names": table,
            "layers": {name: layer for name, layer in zip(self.names, self.layers)},
            "name": [ids[name] for name in self.names],
            "phase": self.phases,
            "start_us": [round((t - origin) * 1e6, 3) for t in self.starts],
            "end_us": [round((t - origin) * 1e6, 3) for t in self.ends],
            "parent": self.parents,
            "tag": self.tags,
        }


def _wrap(recorder: SpanRecorder, name: str, layer: str, fn: Callable,
          tag: Optional[Callable], after: Optional[Callable],
          before: Optional[Callable]) -> Callable:
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(recorder, args, kwargs)
        index = recorder.open(name, layer, tag(args) if tag is not None else -1)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if after is not None:
            after(recorder, args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class Instrumentation:
    """Swaps functions and methods for span-recording wrappers, reversibly.

    ``wrap(owner, attr, ...)`` accepts a module (the namespace a caller looks
    the function up in) or a class (the method is replaced in the class
    dict, so every instance sees it; static and class methods keep their
    descriptor type).  ``remove()`` restores every original; ``install()``
    re-applies the wrappers, so untraced and traced measurements can
    alternate inside one process.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._targets: List[tuple] = []
        self.installed = False

    def wrap(self, owner, attr: str, name: str, layer: str,
             tag: Optional[Callable] = None, after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            kind = type(original)
            replacement = kind(_wrap(self.recorder, name, layer, original.__func__,
                                     tag, after, before))
        else:
            replacement = _wrap(self.recorder, name, layer, original, tag, after, before)
        self._targets.append((owner, attr, original, replacement))
        if self.installed:
            setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, _, replacement in self._targets:
            setattr(owner, attr, replacement)
        self.installed = True

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._targets):
            setattr(owner, attr, original)
        self.installed = False

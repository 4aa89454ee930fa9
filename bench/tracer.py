"""In-memory span tracer that instruments sgps from outside.

Spans are recorded by wrapping functions and bound methods where their
callers look them up: a module attribute such as ``sgps.sampler.langevin_guide``
or a method attribute on one operator or denoiser instance.  Nothing inside
``src/`` is edited; every patch is undone by ``restore``.

Each span stores its name, start, end, parent span and run id in flat
arrays, so a traced run of ~10^5 spans costs a few megabytes.  Calls run on
one thread, so sibling spans never overlap and a span's self time is its
duration minus the summed (parent-clipped) durations of its children.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter
from unittest import mock

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack: list[int] = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """fn wrapped so each call records one span named `name`."""
        nid = self._id(name)
        name_id, start, end, parent, run = self.name_id, self.start, self.end, self.parent, self.run
        stack, clock = self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        """fn wrapped so each call adds 1 to a counter."""
        counts = self.counts

        def counting(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += 1
            return out

        return counting

    def _set(self, obj, attr: str, new) -> None:
        patcher = mock.patch.object(obj, attr, new)
        patcher.start()
        self._patches.append(patcher)

    def patch(self, obj, attr: str, name: str) -> None:
        """Replace obj.attr (module function or instance method) with a span wrapper."""
        self._set(obj, attr, self.wrap(name, getattr(obj, attr)))

    def patch_count(self, obj, attr: str, name: str) -> None:
        self._set(obj, attr, self.counted(name, getattr(obj, attr)))

    def restore(self) -> None:
        """Undo every patch, newest first; an instance's method falls back
        to its class again."""
        while self._patches:
            self._patches.pop().stop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
        }

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        a = self.arrays()
        incl = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = (int(sel.sum()), float(incl[sel].sum()), float(own[sel].sum()))
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval; siblings are assumed
    not to overlap, which holds for spans recorded on one thread.
    """
    own = end - start
    kids = np.flatnonzero(parent >= 0)
    p = parent[kids]
    covered = np.minimum(end[kids], end[p]) - np.maximum(start[kids], start[p])
    np.subtract.at(own, p, np.maximum(covered, 0.0))
    return own

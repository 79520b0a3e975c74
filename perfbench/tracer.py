"""Spans recorded around calls into charsent, from outside the package.

A `Tracer` replaces a public name with a timing wrapper at the place its
caller looks it up (for example `charsent.training.forward_batch`, the
binding `train` and `predict_proba` resolve), and puts the original back
when the `installed` block ends. Spans are kept in flat arrays in memory
and written out once, at the end of a run, so a traced run holds one
start/end pair per call and does no I/O while it measures.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass(frozen=True)
class Site:
    """One wrapped binding: `owner.attr`, reported as span `name` in
    `layer`. `observe`, when set, sees each call's arguments first, so
    counts are taken at the same boundary as the span.
    """

    name: str
    layer: str
    owner: object
    attr: str
    observe: Callable | None = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("i")
        self._stack: list[int] = []
        self.active = True

    def _intern(self, name: str, layer: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, such as one phase."""
        idx = self._open(self._intern(name, layer))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name_id.append(name_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls in this block run unrecorded, such as output checks."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrapper(self, fn, name_id: int, observe):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(*args, **kwargs)
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextlib.contextmanager
    def installed(self, sites: list[Site]):
        """Wrap every site for the duration of the block. A site whose
        attribute does not exist raises at once, before anything runs.
        """
        originals = []
        try:
            for site in sites:
                if not hasattr(site.owner, site.attr):
                    raise LookupError(f"traced name {site.name} does not exist")
                fn = getattr(site.owner, site.attr)
                originals.append((site, fn))
                wrapped = self._wrapper(fn, self._intern(site.name, site.layer), site.observe)
                setattr(site.owner, site.attr, wrapped)
            yield
        finally:
            for site, fn in reversed(originals):
                setattr(site.owner, site.attr, fn)

    def spans(self) -> "Spans":
        return Spans(
            names=list(self.names),
            layers=list(self.layers),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
            name_id=np.frombuffer(self.name_id, dtype=np.int32).copy(),
        )


@dataclass
class Spans:
    """Columnar spans: span i is `names[name_id[i]]`, caused by span
    `parent[i]` (-1 for none).
    """

    names: list[str]
    layers: list[str]
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    name_id: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.start)
        )
        return self.duration - child

    def ids(self, *names: str) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def mask(self, *names: str) -> np.ndarray:
        return np.isin(self.name_id, self.ids(*names))

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str, within: tuple[str, ...] = ()) -> float:
        """Summed duration of the named spans; with `within`, only those
        that have one of the `within` spans as an ancestor.
        """
        m = self.mask(*names)
        if within:
            m &= self.has_ancestor(*within)
        return float(self.duration[m].sum())

    def has_ancestor(self, *names: str) -> np.ndarray:
        targets = np.isin(np.arange(len(self.names)), self.ids(*names))
        found = np.zeros(len(self.start), dtype=bool)
        anc = self.parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            found[live] |= targets[self.name_id[anc[live]]]
            anc[live] = self.parent[anc[live]]
        return found

    def with_parent(self, names: tuple[str, ...], parents: tuple[str, ...]) -> np.ndarray:
        m = self.mask(*names)
        has_parent = self.parent >= 0
        parent_is = np.zeros(len(self.start), dtype=bool)
        parent_is[has_parent] = np.isin(self.name_id[self.parent[has_parent]], self.ids(*parents))
        return m & parent_is

    def layer_self_time(self) -> dict[str, float]:
        per_name = np.bincount(self.name_id, weights=self.self_time(), minlength=len(self.names))
        out: dict[str, float] = {}
        for layer, own in zip(self.layers, per_name):
            out[layer] = out.get(layer, 0.0) + float(own)
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            start=self.start,
            end=self.end,
            parent=self.parent,
            name_id=self.name_id,
        )

"""Outside-in tracer: spans recorded around calls into swarmgame's layers.

The library is not instrumented.  Instead, ``patched`` replaces each
public function at the module attribute its caller looks it up through
(modules import names directly, so patching the defining module alone
would miss most calls) and restores them on exit.

Spans are kept in memory as parallel arrays (name, parent, start, end).
A span's self time is its duration minus the durations of its direct
children; a layer is the first dotted component of a span name, and a
layer's busy time sums the spans whose parent lies in another layer.
The tracer is single-threaded: only the calling thread's spans nest.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

import numpy as np


def _pois_cdf_terms(counts, result, k, mean):
    """pmf terms the pois_cdf recurrence evaluates: k + 1."""
    if k >= 0 and mean > 0:
        counts["kernels.pois_terms"] += k + 1


def _pois_tail_terms(counts, result, k, mean):
    """pois_tail(k) is 1 - pois_cdf(k - 1): k terms."""
    if k >= 1 and mean > 0:
        counts["kernels.pois_terms"] += k


def _series_bytes(counts, result, a, b):
    """Bytes of one truncated coefficient array, per multiplication."""
    counts["series.bytes_computed"] += 8 * a.coefficients.size


def _sim_counts(counts, result, *args, **kwargs):
    """Episodes, censored episodes and epochs (sum of nu) from SimStats."""
    done = result.episodes - result.censored_count
    counts["sim.episodes"] += result.episodes
    counts["sim.censored"] += result.censored_count
    if done:
        counts["sim.epochs"] += round(result.mean_nu * done)


# (module, attribute, span name, counter) for every traced entry point.  A
# counter adds to the tracer's counts what it computes from
# (result, *args, **kwargs) of a call.
TRACE_POINTS = (
    ("swarmgame.model", "pois_cdf", "kernels.pois_cdf", _pois_cdf_terms),
    ("swarmgame.model", "pois_tail", "kernels.pois_tail", _pois_tail_terms),
    ("swarmgame.model", "binom_pmf", "kernels.binom_pmf", None),
    ("swarmgame.model", "burst_prob_safety", "model.burst_prob_safety", None),
    ("swarmgame.optimize", "total_cost", "model.total_cost", None),
    ("swarmgame.optimize", "sweep", "optimize.sweep", None),
    ("swarmgame.cli", "total_cost", "model.total_cost", None),
    ("swarmgame.cli", "sweep_curve", "optimize.sweep", None),
    ("swarmgame.cli", "optimize_rho", "optimize.optimize", None),
    ("swarmgame.cli", "expected_exit_index", "fluctuation.expected_exit_index", None),
    ("swarmgame.cli", "estimate", "sim.estimate", _sim_counts),
    (
        "swarmgame.fluctuation",
        "interval_transform_series",
        "fluctuation.interval_transform_series",
        None,
    ),
    ("swarmgame.fluctuation", "d_operator", "fluctuation.d_operator", None),
    ("swarmgame.series", "series_mul", "series.mul", _series_bytes),
    ("swarmgame.series", "series_div", "series.div", None),
)


class Tracer:
    """In-memory span recorder with computed counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn: Callable, counter: Optional[Callable] = None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if counter is not None:
                counter(self.counts, result, *args, **kwargs)
            return result

        return traced

    def mark(self) -> int:
        """Index of the next span; pass it to ``summary`` to start there."""
        return len(self.start)

    def clear(self) -> None:
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self.counts.clear()

    def summary(self, first: int = 0) -> dict[str, float]:
        """Aggregates over spans from index ``first`` on.

        Keys: ``<span>.calls``, ``<span>.total_s``, ``<span>.self_s``,
        ``<layer>.busy_s``, ``<layer>.self_s``, and ``<child>@<parent>.calls``
        for direct parent-child name pairs.
        """
        name = np.frombuffer(self.name, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        dur = (
            np.frombuffer(self.end, dtype=np.float64)[first:]
            - np.frombuffer(self.start, dtype=np.float64)[first:]
        )
        n = len(dur)
        # Spans open before ``first`` are outside the window: treat as roots.
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child[:n]

        layers = sorted({s.split(".")[0] for s in self.names})
        layer_of = np.array(
            [layers.index(s.split(".")[0]) for s in self.names], dtype=np.int64
        )
        span_layer = layer_of[name] if n else np.zeros(0, dtype=np.int64)
        parent_layer = np.full(n, -1, dtype=np.int64)
        parent_layer[has_parent] = span_layer[parent[has_parent]]
        outer = span_layer != parent_layer

        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_by_name = np.bincount(name, weights=own, minlength=k)
        out: dict[str, float] = {}
        for nid, s in enumerate(self.names):
            out[f"{s}.calls"] = int(calls[nid])
            out[f"{s}.total_s"] = float(total[nid])
            out[f"{s}.self_s"] = float(self_by_name[nid])
        nl = len(layers)
        busy = np.bincount(span_layer, weights=dur * outer, minlength=nl)
        layer_self = np.bincount(span_layer, weights=own, minlength=nl)
        for lid, layer in enumerate(layers):
            out[f"{layer}.busy_s"] = float(busy[lid])
            out[f"{layer}.self_s"] = float(layer_self[lid])
        pair = name[has_parent].astype(np.int64) * k + name[parent[has_parent]]
        pair_calls = np.bincount(pair, minlength=k * k)
        for idx in np.flatnonzero(pair_calls):
            c, p = divmod(int(idx), k)
            out[f"{self.names[c]}@{self.names[p]}.calls"] = int(pair_calls[idx])
        return out


@contextmanager
def patched(tracer: Tracer) -> Iterator[Tracer]:
    """Route every TRACE_POINTS call through ``tracer``; restore on exit."""
    saved = []
    try:
        for module_name, attr, span, counter in TRACE_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span, original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

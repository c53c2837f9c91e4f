"""Layer spans recorded by the benchmark around public nestedrisk calls.

A span is opened with ``begin()`` and closed with ``end(name, token)``. On
close its duration is added to the layer's total, the duration minus the
time covered by its child spans is added to the layer's self time, and the
duration is charged to the enclosing span as child time. Spans live in the
benchmark's own files only: a traced family callable, a ``ScalarProblem``
subclass whose objective is traced, and wrappers around the estimator,
asymptotics and summary calls. Nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import nestedrisk as nr


class Tracer:
    """In-memory span and counter collector for one phase of a run."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._child = []

    def begin(self) -> float:
        self._child.append(0.0)
        return perf_counter()

    def end(self, name: str, start: float) -> None:
        dt = perf_counter() - start
        child = self._child.pop()
        self.total[name] += dt
        self.self_time[name] += dt - child
        self.calls[name] += 1
        if self._child:
            self._child[-1] += dt

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def self_sum(self, prefix: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def calls_sum(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))


def traced(tracer: Tracer | None, name: str, fn, *args, **kwargs):
    """Call fn under a span named ``name`` (plain call without a tracer)."""
    if tracer is None:
        return fn(*args, **kwargs)
    t0 = tracer.begin()
    try:
        return fn(*args, **kwargs)
    finally:
        tracer.end(name, t0)


class TracedFamily:
    """A decision-parametric family whose every ``family(u)`` build is a
    ``measures.family`` span."""

    def __init__(self, family, tracer: Tracer):
        self.family = family
        self.tracer = tracer

    def __call__(self, u):
        t0 = self.tracer.begin()
        try:
            return self.family(u)
        finally:
            self.tracer.end("measures.family", t0)


@dataclass(frozen=True)
class TracedProblem(nr.ScalarProblem):
    """``ScalarProblem`` whose objective evaluations are spans.

    Each evaluation is a chain evaluation: ``core.exact_chain`` against the
    oracle, ``estimators.chain`` against a sample. Its ``family(u)`` build
    is a child span when the family is a ``TracedFamily``.
    """

    tracer: Tracer | None = None
    rows_per_eval: int = 0

    def objective(self):
        fn = super().objective()
        tr = self.tracer
        name = ("core.exact_chain" if self.objective_source == "exact-oracle"
                else "estimators.chain")
        rows = self.rows_per_eval

        def traced_fn(u):
            t0 = tr.begin()
            try:
                return fn(u)
            finally:
                tr.end(name, t0)
                tr.count("optimize.objective_evals")
                tr.count("estimators.rows_evaluated", rows)
        return traced_fn

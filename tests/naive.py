"""Independent brute-force oracles used by the tests.

These deliberately re-implement the estimators the slow, literal way:
``nested_empirical`` evaluates the fully nested empirical sums by explicit
recursion over sample indices (inner means recomputed inside every outer
loop iteration), ``stacked_covariance`` builds per-observation outer
products one row at a time, ``smoothed_row_mean`` convolves a layer
with a kernel rule one shifted row at a time, and ``golden_section``
minimizes a scalar function by the textbook golden-section search. They
share no code with the library paths they check.
"""

from __future__ import annotations

import numpy as np


def _eval_single(spec, j, eta, xi):
    """Evaluate layer j on one sample row, returning a 1-d vector."""
    layer = spec.layer(j)
    row = xi[None, :]
    out = layer.evaluator(row) if j == spec.k + 1 else layer.evaluator(eta, row)
    return np.asarray(out, dtype=float).reshape(-1)


def nested_empirical(spec, x: np.ndarray) -> np.ndarray:
    """The fully nested empirical sums, recomputing inner means per index."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and spec.m == 1 and x.shape[1] > 1:
        x = x.T
    n = x.shape[0]

    def level(j):
        rows = []
        for i in range(n):
            inner = level(j + 1) if j <= spec.k else None
            rows.append(_eval_single(spec, j, inner, x[i]))
        return np.mean(np.stack(rows, axis=0), axis=0)

    return level(1)


def stacked_covariance(spec, x: np.ndarray, chain) -> np.ndarray:
    """Covariance (1/n) of per-observation stacked layer evaluations."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] == 1 and spec.m == 1 and x.shape[1] > 1:
        x = x.T
    n = x.shape[0]
    rows = []
    for i in range(n):
        parts = []
        for j in range(1, spec.k + 2):
            eta = chain.input_for(j) if j <= spec.k else None
            parts.append(_eval_single(spec, j, eta, x[i]))
        rows.append(np.concatenate(parts))
    stacked = np.stack(rows, axis=0)
    mean = np.mean(stacked, axis=0)
    outers = [np.outer(r - mean, r - mean) for r in rows]
    return np.mean(np.stack(outers, axis=0), axis=0)


def smoothed_row_mean(fn, x: np.ndarray, offsets, weights) -> np.ndarray:
    """Kernel-smoothed mean (1/n) sum_i sum_q weights[q] fn(x_i + offsets[q]),
    with fn evaluated on one shifted row at a time."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = 0.0
    for xi in x:
        for off, w in zip(offsets, weights):
            total = total + w * np.asarray(fn(xi + off), dtype=float).reshape(-1)
    return total / x.shape[0]


def golden_section(fn, lo: float, hi: float, tol: float):
    """Golden-section search for the minimum of a unimodal fn on [lo, hi]:
    shrink the bracket by the golden ratio, keeping the lower of the two
    interior points, until it is at most tol wide; then return the lowest
    point evaluated, the bracket ends included, as (u, fn(u))."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return min([(c, fc), (d, fd), (lo, fn(lo)), (hi, fn(hi))], key=lambda t: t[1])


def mean_spec():
    """k = 0 spec: the plain mean of a scalar sample."""
    from nestedrisk.core import CompositeSpec, LayerFn

    def f1(x):
        return x[:, 0]

    return CompositeSpec(1, (1,), (LayerFn(f1),))


def linear_spec(matrices, m: int = 1):
    """All-linear layers f_j(eta, x) = A_j eta (constant matrices), with an
    innermost identity-like layer returning the first dims of x padded."""
    from nestedrisk.core import CompositeSpec, LayerFn

    k = len(matrices)
    dims = [matrices[0].shape[0]]
    for a in matrices:
        dims.append(a.shape[1])

    layers = []
    for j, a in enumerate(matrices, start=1):
        def ev(eta, x, a=a):
            return np.broadcast_to(a @ eta, (x.shape[0], a.shape[0])).copy()

        def jac(eta, x, a=a):
            return np.broadcast_to(a, (x.shape[0],) + a.shape).copy()

        layers.append(LayerFn(ev, jac))

    d_last = dims[-1]

    def inner(x):
        reps = int(np.ceil(d_last / x.shape[1]))
        wide = np.tile(x, (1, reps))
        return wide[:, :d_last]

    layers.append(LayerFn(inner))
    return CompositeSpec(m, tuple(dims), tuple(layers))

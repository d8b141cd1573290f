"""Spectral radius estimation and exact characteristic polynomials.

Power iteration runs in floating point (the only numerical code in the
package) and smooths its estimates over a sliding window so that
permutation-like matrices, whose raw Collatz-Wielandt quotients oscillate,
still terminate.  It is a sparse pure-Python kernel: one pass keeps each
row's nonzero columns (and weights, for rows that are not 0/1), and every
matrix-vector product touches only those, since the transition matrices
are a few percent nonzero.  Characteristic polynomials are computed
exactly over the integers, so downstream root work can reason about signs
with no rounding.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import compress

from .core import IntMatrix, IntPolynomial, check_tolerance

__all__ = [
    "SpectralEstimate",
    "power_iteration",
    "char_poly_exact",
    "is_irreducible",
]

# Window length for smoothing the spectral-radius estimates.  Eight steps is
# enough to average out oscillation of any period dividing 8 (the common
# permutation-like cases) while barely delaying convergence.
_WINDOW = 8


@dataclass(frozen=True, slots=True)
class SpectralEstimate:
    """Result of power iteration.

    value      -- estimate of the spectral radius
    iterations -- matrix-vector products performed
    residual   -- last movement of the smoothed estimate
    converged  -- True iff the residual dropped below the tolerance
    """

    value: float
    iterations: int
    residual: float
    converged: bool


def power_iteration(
    m: IntMatrix, tol: float = 1e-10, max_iter: int | None = None
) -> SpectralEstimate:
    """Spectral radius of a nonnegative matrix by smoothed power iteration.

    Starts from the all-ones vector, renormalizes in the sup norm, and tracks
    the geometric mean of the last few growth factors; iteration stops when
    that smoothed estimate moves less than `tol`.  The zero (or nilpotent)
    matrix yields 0.  Non-convergence within the iteration budget is reported
    via converged=False, never silently.
    """
    check_tolerance(tol)
    # One pass over the rows keeps each row's nonzero columns, and its
    # weights only when some weight is not 1; the sign check rides along.
    columns = range(m.size)
    sparse: list[tuple[list[int], list[int] | None]] = []
    for row in m.rows:
        vals = list(compress(row, row))
        if vals.count(1) == len(vals):
            sparse.append((list(compress(columns, row)), None))
        elif min(vals) < 0:
            raise ValueError("power iteration requires a nonnegative matrix")
        else:
            sparse.append((list(compress(columns, row)), vals))
    if max_iter is None:
        max_iter = 100 * m.size + 1000
    if max_iter < 1:
        raise ValueError(f"iteration budget must be >= 1, got {max_iter}")

    mul = operator.mul
    v = [1.0] * m.size
    window: list[float] = []
    smoothed = 0.0
    smoothed_prev: float | None = None
    residual = math.inf
    for it in range(1, max_iter + 1):
        at = v.__getitem__
        w = [
            sum(map(at, cols)) if vals is None else sum(map(mul, vals, map(at, cols)))
            for cols, vals in sparse
        ]
        growth = max(w)
        if growth == 0.0:
            # Reached the kernel: every eigenvalue on this orbit is 0.
            return SpectralEstimate(0.0, it, 0.0, True)
        if w == [growth * x for x in v]:
            # Genuine fixed point of the normalized iteration (e.g. a flip,
            # or any matrix with the current v as eigenvector): growth is the
            # spectral radius on the support of v.
            return SpectralEstimate(growth, it, 0.0, True)
        v = [x / growth for x in w]
        window.append(growth)
        if len(window) > _WINDOW:
            window.pop(0)
        smoothed = math.exp(math.fsum(math.log(g) for g in window) / len(window))
        if smoothed_prev is not None and len(window) == _WINDOW:
            residual = abs(smoothed - smoothed_prev)
            if residual <= tol:
                return SpectralEstimate(smoothed, it, residual, True)
        smoothed_prev = smoothed
    return SpectralEstimate(smoothed, max_iter, residual, False)


def char_poly_exact(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - m), monic, exact over the integers.

    Faddeev-LeVerrier recurrence; every division is exact for integer input,
    and Python integers keep the intermediate traces exact at any size.
    """
    k = m.size
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    ident = IntMatrix.identity(k)
    acc = ident
    for step in range(1, k + 1):
        prod = m * acc
        trace = sum(prod.rows[i][i] for i in range(k))
        q, r = divmod(trace, step)
        assert r == 0, "Faddeev-LeVerrier trace must divide exactly"
        coeffs[k - step] = -q
        acc = prod + (-q) * ident
    return IntPolynomial(coeffs)


def is_irreducible(m: IntMatrix) -> bool:
    """True iff the digraph on {1..k} with an edge i->j whenever m[i][j] != 0
    is strongly connected (every state reaches every other)."""
    k = m.size
    adj = [[j for j, v in enumerate(row) if v != 0] for row in m.rows]
    radj: list[list[int]] = [[] for _ in range(k)]
    for i, outs in enumerate(adj):
        for j in outs:
            radj[j].append(i)

    def reaches_all(start: int, edges: list[list[int]]) -> bool:
        seen = [False] * k
        seen[start] = True
        stack = [start]
        count = 1
        while stack:
            u = stack.pop()
            for w in edges[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == k

    return reaches_all(0, adj) and reaches_all(0, radj)

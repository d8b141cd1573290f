"""Spectral radius estimation and exact characteristic polynomials.

Power iteration runs in floating point (the only numerical code in the
package) and smooths its estimates over a sliding window so that
permutation-like matrices, whose raw Collatz-Wielandt quotients oscillate,
still terminate.  It is one pure-Python loop over a product v -> m v, taken
over each row's nonzero entries of an `IntMatrix` or by a matrix-free
`markov.TransitionOperator`.  Characteristic polynomials are computed
exactly over the integers, with a sparse left factor, so downstream root
work can reason about signs with no rounding.
"""

from __future__ import annotations

import math
import operator

from .core import IntMatrix, IntPolynomial, _Frozen, check_tolerance
from .markov import TransitionOperator

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


class SpectralEstimate(_Frozen):
    """Result of power iteration.

    value      -- estimate of the spectral radius
    iterations -- matrix-vector products performed
    residual   -- last movement of the smoothed estimate
    converged  -- True iff the residual dropped below the tolerance
    """

    __slots__ = ("value", "iterations", "residual", "converged")

    def __init__(self, value: float, iterations: int, residual: float, converged: bool) -> None:
        self._init(value, iterations, residual, converged)


def _row_product(m: IntMatrix):
    """v -> m v over each row's nonzero entries."""
    if not m.is_nonnegative():
        raise ValueError("power iteration requires a nonnegative matrix")
    sparse = m.nonzeros()

    def product(v: list[float]) -> list[float]:
        at = v.__getitem__
        return [sum(map(operator.mul, vals, map(at, cols))) for cols, vals in sparse]

    return product


def power_iteration(
    m: IntMatrix | TransitionOperator, tol: float = 1e-10, max_iter: int | None = None
) -> SpectralEstimate:
    """Spectral radius of a nonnegative matrix by smoothed power iteration.

    Starts from the all-ones vector, renormalizes in the sup norm, and tracks
    the geometric mean of the last few growth factors; iteration stops when
    that smoothed estimate moves less than `tol`.  The zero (or nilpotent)
    matrix yields 0.  Non-convergence within the iteration budget is reported
    via converged=False, never silently.
    """
    check_tolerance(tol)
    product = _row_product(m) if isinstance(m, IntMatrix) else m.apply
    if max_iter is None:
        max_iter = 100 * m.size + 1000
    if max_iter < 1:
        raise ValueError(f"iteration budget must be >= 1, got {max_iter}")

    v = [1.0] * m.size
    window: list[float] = []
    smoothed = 0.0
    smoothed_prev: float | None = None
    residual = math.inf
    for it in range(1, max_iter + 1):
        w = product(v)
        growth = max(w)
        if growth == 0.0:
            # Reached the kernel: every eigenvalue on this orbit is 0.
            return SpectralEstimate(0.0, it, 0.0, True)
        if all(map(operator.eq, w, map(growth.__mul__, v))):
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
    and Python integers keep the intermediate traces exact at any size.  Row i
    of m * acc sums rows of acc over the nonzero m[i][j]: O(nnz * k), not k^3.
    A unit weight adds its row of acc unscaled, and a row with one nonzero
    copies (or scales) that row of acc with no column sum.
    """
    k = m.size
    nonzero = m.nonzeros()
    coeffs = [0] * k + [1]
    acc = [[int(i == j) for j in range(k)] for i in range(k)]

    def product_row(cols: tuple[int, ...], vals: tuple[int, ...]) -> list[int]:
        terms = [acc[j] if c == 1 else [c * x for x in acc[j]] for j, c in zip(cols, vals)]
        if len(terms) == 1:
            return terms[0][:]  # a copy: the trace shift below writes rows in place
        return list(map(sum, zip(*terms))) or [0] * k

    for step in range(1, k + 1):
        acc = [product_row(cols, vals) for cols, vals in nonzero]
        q, r = divmod(sum(row[i] for i, row in enumerate(acc)), step)
        assert r == 0, "Faddeev-LeVerrier trace must divide exactly"
        coeffs[k - step] = -q
        for i, row in enumerate(acc):
            row[i] -= q
    return IntPolynomial(coeffs)


def is_irreducible(m: IntMatrix) -> bool:
    """True iff the digraph on {1..k} with an edge i->j whenever m[i][j] != 0
    is strongly connected (every state reaches every other)."""
    adj = [cols for cols, _ in m.nonzeros()]
    radj: list[list[int]] = [[] for _ in adj]
    for i, cols in enumerate(adj):
        for j in cols:
            radj[j].append(i)

    def reaches_all(edges) -> bool:
        seen = [True] + [False] * (m.size - 1)
        stack = [0]
        while stack:
            for w in edges[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        return all(seen)

    return reaches_all(adj) and reaches_all(radj)

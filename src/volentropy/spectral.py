"""Spectral radius bounds and exact characteristic polynomials.

`_collatz_wielandt_failure` proves lo <= rho(m) <= hi by reading one exact
integer product m v against both ends; `_apply` makes that product for an
`IntMatrix` (over each row's nonzero entries) or a matrix-free
`markov.TransitionOperator`.  Power iteration, the only float loop in the
package, stays as a public estimate that no route calls; it smooths its
estimates over a sliding window so that permutation-like matrices, whose raw
quotients oscillate, still terminate.  Characteristic polynomials are
computed exactly over the integers, with a sparse left factor, so downstream
root work can reason about signs with no rounding.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .core import IntMatrix, IntPolynomial, _Frozen, _int, check_tolerance
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


def _apply(m: IntMatrix | TransitionOperator):
    """v -> m v: the operator's own, or over each row's nonzero entries."""
    if not isinstance(m, IntMatrix):
        return m.apply
    if not m.is_nonnegative():
        raise ValueError("the matrix must be nonnegative")
    sparse = m.nonzeros()

    def product(v: list) -> list:
        at = v.__getitem__
        return [sum(map(operator.mul, vals, map(at, cols))) for cols, vals in sparse]

    return product


def _collatz_wielandt_failure(mv: list[int], v: list[int], ends: tuple[float, float]) -> str:
    """Where mv = m v first fails to prove lo <= rho(m) <= hi, 1-based, as
    `row i below the lower end lo` or `row i above the upper end hi`; or "".

    For m >= 0 and v > 0, min (m v)_i / v_i <= rho(m) <= max (m v)_i / v_i
    (Collatz 1942, Wielandt 1950), with no irreducibility or convergence
    needed.  So d (m v)_i >= a v_i in every row at lo = a/d, and <= at hi,
    prove the bracket exactly, whatever v > 0 is given (`_apply` makes mv).
    """
    if min(v) <= 0:
        raise ValueError("the vector must be positive")
    for end, x, holds in zip(("lower", "upper"), ends, (operator.ge, operator.le)):
        a, d = x.as_integer_ratio()
        rows = list(map(holds, map(d.__mul__, mv), map(a.__mul__, v)))
        if not all(rows):
            side = "below" if holds is operator.ge else "above"
            return f"row {rows.index(False) + 1} {side} the {end} end {x!r}"
    return ""


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
    product = _apply(m)
    max_iter = 100 * m.size + 1000 if max_iter is None else _int(max_iter, "iteration budget", 1)

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


@lru_cache(maxsize=8)
def char_poly_exact(m: IntMatrix) -> IntPolynomial:
    """Characteristic polynomial det(xI - m), monic, exact over the integers.

    Faddeev-LeVerrier recurrence; every division is exact for integer input,
    and Python integers keep the intermediate traces exact at any size.  Row i
    of m * acc sums rows of acc over the nonzero m[i][j]: O(nnz * k), not k^3.
    A unit weight adds its row of acc unscaled, and a row with one nonzero
    copies (or scales) that row of acc with no column sum.  An LRU cache of
    the last eight matrices answers a repeated one: a matrix is a frozen
    value, so an equal matrix has an equal polynomial.
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

"""Volume entropy of the minimal symmetric presentations.

The growth rate of the rank-n presentations is the unique root above 1 of
the degree-n polynomial from `q_polynomial`; the volume entropy is its
natural logarithm.  `_route_root` gives every float growth rate reported
(`lambda_n`, the tables, the two root routes of `volume_entropy`): a float
bisection to two adjacent floats, certified by one exact sign pair, and the
float nearest the root.  `lambda_n_bracket` gives an exact rational bracket
of any width.  `volume_entropy` cross-checks the root against four independent
computational routes through the matrix reductions, and packages the result.

For n = 2 (torus and Klein bottle) the entropy is exactly 0 and no matrices
are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import _MAX_TABLE_RANK, IntPolynomial, check_tolerance, poly_eval
from .markov import PresentationSpec, TransitionOperator
from .reductions import compacted_matrix, super_compacted_matrix
from .rome import RomeSpec, q_polynomial, rome_char_poly
from .spectral import char_poly_exact, power_iteration

__all__ = [
    "EntropyReport",
    "EntropyTableRow",
    "lambda_n",
    "lambda_n_bracket",
    "bounds_check",
    "volume_entropy",
    "entropy_table",
]

# Largest tolerance volume_entropy accepts.  It caps the consistency bound
# max(1000 * tol, 1e-12) at 1e-3; uncapped, tol = 0.5 passed routes that
# disagreed by 2.4 as consistent.
_MAX_TOL = 1e-6

# The five independent routes to the growth rate, in report order.
ROUTE_NAMES = (
    "markov-power",
    "compacted-power",
    "supercompacted-power",
    "rome-root",
    "charpoly-root",
)


# =====================================================================
# Certified root of the closed-form polynomial
# =====================================================================

def _bisect_root(p: IntPolynomial, lo: Fraction, hi: Fraction, tol: float) -> tuple[Fraction, Fraction]:
    """Shrink [lo, hi] around the sign change of p with exact arithmetic.

    Requires p(lo) < 0 < p(hi); returns the final bracket, of width <= tol.
    There is no iteration cap: the smallest tolerance, 5e-324, takes about
    1080 halvings (0.14 s at n = 5, 3.8 s at n = 40; process CPU, 2-core VM).
    """
    flo = poly_eval(p, lo)
    fhi = poly_eval(p, hi)
    if not (flo < 0 < fhi):
        raise ValueError(
            f"bisection needs a sign change: p({lo}) = {flo}, p({hi}) = {fhi}"
        )
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fmid = poly_eval(p, mid)
        if fmid == 0:
            # Exact hit: collapse the bracket to the root.
            return mid, mid
        if fmid < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _route_root(p: IntPolynomial, b: int) -> float:
    """The float nearest the root of p in (1, b), certified by exact signs.

    A float bisection on [1, b] runs until lo and hi are adjacent floats
    (about 57 steps).  `_bisect_root`, given that bracket's own width as its
    tolerance, certifies it by its two exact endpoint signs without halving,
    and one exact sign at the midpoint picks the nearer float.  If the float
    search overflows or meets inf or nan (q_n does from n = 129), or its
    bracket fails the certificate, the root is bisected exactly on [1, b]
    to 1e-12 and the midpoint of that bracket is returned.
    """
    try:
        lo, hi = 1.0, float(b)
        while (mid := (lo + hi) / 2) not in (lo, hi):
            value = poly_eval(p, mid)
            if not math.isfinite(value):
                raise OverflowError(f"p({mid}) = {value}")
            lo, hi = (mid, hi) if value < 0 else (lo, mid)
        lo, hi = _bisect_root(p, Fraction(lo), Fraction(hi), hi - lo)
    except (OverflowError, ValueError):
        lo, hi = _bisect_root(p, Fraction(1), Fraction(b), 1e-12)
        return float((lo + hi) / 2)
    # At a tie both floats are nearest, and lo is returned.
    return float(hi if poly_eval(p, (lo + hi) / 2) < 0 else lo)


def _q(n: int) -> IntPolynomial:
    """The closed-form polynomial of rank n, which needs n >= 3."""
    if n < 3:
        raise ValueError(
            f"rank must be >= 3 for a growth rate above 1, got {n}"
            " (rank 2 has entropy 0; see volume_entropy)"
        )
    return q_polynomial(n)


def lambda_n_bracket(n: int, tol: float = 1e-12) -> tuple[Fraction, Fraction]:
    """Exact rational bracket around the growth rate of rank n.

    The closed-form polynomial is negative at 1 and positive at 2n-1, and has
    exactly one root above 1; both endpoint signs are certified in rational
    arithmetic, as is every bisection step.
    """
    p = _q(n)
    check_tolerance(tol)
    return _bisect_root(p, Fraction(1), Fraction(2 * n - 1), tol)


def lambda_n(n: int) -> float:
    """Growth rate of the rank-n presentations by `_route_root`: the certified
    nearest float up to n = 128 (2n-1 itself from n = 13), and the midpoint
    of a 1e-12 exact bracket from n = 129, where the float search overflows."""
    return _route_root(_q(n), 2 * n - 1)


def bounds_check(n: int) -> bool:
    """Certify 2n-1 - (2n-1)^-(n-2) < growth rate < 2n-1 by exact signs.

    Evaluates the closed-form polynomial at both bounds in rational
    arithmetic: strictly negative at the lower bound, strictly positive at
    2n-1.  The lower bound needs n >= 4.
    """
    if n < 4:
        raise ValueError(f"the lower bound requires n >= 4, got {n}")
    return _bounds_hold(n)


def _lower_bound(n: int) -> Fraction | None:
    """The exact lower bound 2n-1 - (2n-1)^-(n-2) on the growth rate; None below n = 4."""
    if n < 4:
        return None
    b = 2 * n - 1
    return b - Fraction(1, b ** (n - 2))


def _bounds_hold(n: int) -> bool:
    """The closed-form polynomial is negative at the lower end and positive
    at 2n-1, by exact signs.  The lower end is `_lower_bound(n)`, or 1 where
    that bound does not apply."""
    p = q_polynomial(n)
    lower = _lower_bound(n)
    lo = Fraction(1) if lower is None else lower
    return poly_eval(p, lo) < 0 < poly_eval(p, Fraction(2 * n - 1))


# =====================================================================
# The consensus report
# =====================================================================

@dataclass(frozen=True, slots=True)
class EntropyReport:
    """Growth rate and volume entropy of one presentation, with receipts.

    routes     -- per-route growth-rate estimates (empty for rank 2)
    converged  -- per power route, whether it converged (empty for rank 2)
    agreement  -- max pairwise discrepancy among the routes
    consistent -- all routes converged and agree within the combined tolerance
    bounds_hold-- every applicable exact bound certification passed
    lambda_    -- consensus growth rate (the certified bisection root)
    entropy    -- log(lambda_), natural log
    """

    n: int
    orientable: bool
    lambda_: float
    entropy: float
    routes: dict[str, float] = field(default_factory=dict)
    converged: dict[str, bool] = field(default_factory=dict)
    agreement: float = 0.0
    consistent: bool = True
    bounds_hold: bool = True


def volume_entropy(spec: PresentationSpec, tol: float = 1e-10) -> EntropyReport:
    """Volume entropy of the presentation, cross-checked five ways.

    Routes: power iteration on the full transition matrix (applied by a
    `TransitionOperator`, never stored), on the compacted matrix and on the
    supercompacted matrix; the root of the characteristic polynomial of the
    supercompacted matrix obtained through a rome, and of the same polynomial
    from exact elimination (one root search when the two are equal).  Each
    root is found by float bisection and certified by the exact signs of the
    polynomial at the two adjacent floats around it (`_route_root`).  The
    consensus value is the certified rome-route root.  Routes disagreeing
    beyond the combined tolerance set consistent=False; they are never
    averaged.  The tolerance must lie in (0, 1e-6].
    """
    check_tolerance(tol)
    if tol > _MAX_TOL:
        raise ValueError(f"tolerance must lie in (0, {_MAX_TOL:g}], got {tol}")
    n = spec.n
    if n == 2:
        return EntropyReport(n=n, orientable=spec.orientable, lambda_=1.0, entropy=0.0)

    routes: dict[str, float] = {}
    converged: dict[str, bool] = {}
    matrices = (TransitionOperator(spec), compacted_matrix(n), super_compacted_matrix(n))
    for name, matrix in zip(ROUTE_NAMES[:3], matrices):
        est = power_iteration(matrix, tol=tol)
        routes[name] = est.value
        converged[name] = est.converged

    sc = matrices[2]
    polys = (rome_char_poly(sc, RomeSpec((n - 1, n))), char_poly_exact(sc))
    roots: dict[IntPolynomial, float] = {}
    for name, poly in zip(ROUTE_NAMES[3:], polys):
        if poly not in roots:
            roots[poly] = _route_root(poly, 2 * n - 1)
        routes[name] = roots[poly]

    values = list(routes.values())
    agreement = max(abs(a - b) for a in values for b in values)
    # Power iteration and bisection are each good to ~tol; give the spread
    # three orders of headroom before declaring the routes inconsistent.
    consistent = all(converged.values()) and agreement <= max(1000 * tol, 1e-12)

    lam = routes["rome-root"]
    return EntropyReport(
        n=n,
        orientable=spec.orientable,
        lambda_=lam,
        entropy=math.log(lam),
        routes=routes,
        converged=converged,
        agreement=agreement,
        consistent=consistent,
        bounds_hold=_bounds_hold(n),
    )


# =====================================================================
# Entropy tables
# =====================================================================

@dataclass(frozen=True, slots=True)
class EntropyTableRow:
    """One rank's worth of growth data.

    lower_bound is None at n = 3, where the closed-form lower bound does not
    apply; gap = log(2n-1) - entropy measures how close the entropy sits to
    its theoretical ceiling, to relative accuracy (see `entropy_table`).  It
    is subnormal from n = 129 and reads 0.0 from n = 135, below 2^-1074.
    """

    n: int
    lambda_: float
    entropy: float
    lower_bound: float | None
    upper_bound: float
    gap: float


def entropy_table(n_min: int, n_max: int) -> list[EntropyTableRow]:
    """Growth rates and entropies for ranks n_min..n_max inclusive.

    The gap is -log1p(-delta/b) with b = 2n-1 and delta = b - lambda =
    (b*lambda - 1)/lambda^n, a root identity of (x-1)q(x) = x^(n+1) - b*x^n
    + b*x - 1 free of the cancellation in log(b) - log(lambda).
    """
    if n_min < 3:
        raise ValueError(f"table starts at rank 3, got {n_min}")
    if n_min > n_max:
        raise ValueError(f"empty range: n_min={n_min} > n_max={n_max}")
    if n_max > _MAX_TABLE_RANK:
        raise ValueError(
            f"table goes up to rank {_MAX_TABLE_RANK}, got {n_max}; lambda_n gives one high rank"
        )
    rows = []
    for n in range(n_min, n_max + 1):
        lam = lambda_n(n)
        b = 2 * n - 1
        delta = math.exp(math.log(b * lam - 1) - n * math.log(lam))
        lb = _lower_bound(n)
        rows.append(
            EntropyTableRow(
                n=n,
                lambda_=lam,
                entropy=math.log(lam),
                lower_bound=None if lb is None else float(lb),
                upper_bound=float(b),
                gap=-math.log1p(-delta / b),
            )
        )
    return rows

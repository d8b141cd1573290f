"""Volume entropy of the minimal symmetric presentations.

The growth rate of the rank-n presentations is the unique root above 1 of
the degree-n polynomial q_n from `q_polynomial`; the volume entropy is its
natural logarithm.  Every float growth rate reported is the float nearest the
root, picked by exact integer signs (`_nearest_float`): `lambda_n` and the
tables on the four-term form (x-1)*q_n, from the closed-form delta bracket; the
two root routes of `volume_entropy` on their own coefficients, from [1, 2n-1]
(`_route_root`).  `lambda_n_bracket` bisects q_n in `Fraction` arithmetic to
an exact rational bracket of any width; it is the only code that loads
`fractions`, and `lambda_n` falls back to it from n = 129.  `volume_entropy`
cross-checks the root against four independent computational routes through
the matrix reductions, three of them proven by one exact product each
(`_power_route`), and packages the result; its routes are consistent only
when all five report the same float.

For n = 2 (torus and Klein bottle) the entropy is exactly 0 and no matrices
are built.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import partial
from operator import truediv

from .core import IntMatrix, IntPolynomial, _Frozen, _rank, _scaled_eval, check_tolerance, poly_eval
from .markov import PresentationSpec, TransitionOperator
from .reductions import _perron_profile, compacted_matrix, super_compacted_matrix
from .rome import RomeSpec, q_polynomial, rome_char_poly
from .spectral import _apply, _collatz_wielandt_failure, char_poly_exact

__all__ = [
    "EntropyReport",
    "EntropyTableRow",
    "lambda_n",
    "lambda_n_bracket",
    "bounds_check",
    "volume_entropy",
    "entropy_table",
]

# Largest top rank `entropy_table` accepts: the rows from n = 129 bisect in
# `Fraction` arithmetic, so they take nearly all of a table's time.
_MAX_TABLE_RANK = 400

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

def _four_term_sign(n: int, a: int, d: int) -> int:
    """An integer with the sign of q_n(a/d) for a > d > 0, d = 2^k: the sign
    of d^(n+1)*f(a/d) = a^n*e + c*2^(kn) for f = (x-1)*q_n, e = a - b*d and
    c = b*a - d > 0.

    Bit lengths decide most signs without the power, a filter in the spirit
    of Shewchuk's adaptive predicates.  A positive integer of bit length B
    lies in [2^(B-1), 2^B), so with A, L, H the bit lengths of a, -e and c,
    |a^n*e| lies in [2^(n(A-1)+L-1), 2^(nA+L)) and c*2^(kn) in
    [2^(H-1+kn), 2^(H+kn)).  e >= 0 gives 1; otherwise, when the two ranges
    are disjoint, the larger term fixes the sign, -1 or 1, by a comparison of
    integer exponents with nothing rounded.  Only overlapping ranges form
    the full integer, as ranks 3..14 do at the table's floats.
    """
    b = 2 * n - 1
    e = a - b * d
    if e >= 0:
        return 1
    c, kn = b * a - d, (d.bit_length() - 1) * n
    big_a, big_l, big_h = a.bit_length(), (-e).bit_length(), c.bit_length()
    if n * (big_a - 1) + big_l - 1 >= big_h + kn:
        return -1
    if n * big_a + big_l <= big_h - 1 + kn:
        return 1
    return a**n * e + (c << kn)


def _delta_bracket(n: int) -> tuple[float, float]:
    """Floats lo < hi either side of q_n's root above 1, from its closed-form
    bracket b - delta_hi < root < b - delta_lo, b = 2n-1, delta_lo =
    (b^2-1)/(b^n+b), delta_hi = delta_lo*(1 + 4n*delta_lo/b) (proof in
    test_the_float_nearest_lambda_is_the_ceiling_from_rank_13_to_the_table_cap).
    Where they round apart (n = 3..8), four Newton steps on the increasing,
    concave g(delta) = delta*(b-delta)^n - b*(b-delta) + 1 raise delta_lo and
    one chord lowers delta_hi, each still outside the root.  Each end moves
    one float outward, hi at most b, where q_n(b) = 2n > 0.  Raises
    `OverflowError` from n = 129, where b^n leaves the float range."""
    b = float(2 * n - 1)
    lo = (b * b - 1) / (b**n + b)
    hi = lo * (1 + 4 * n * lo / b)
    if b - hi != b - lo:
        def g(d: float) -> float:
            return d * (b - d) ** n - b * (b - d) + 1
        for _ in range(4):
            lo -= g(lo) / ((b - lo) ** (n - 1) * (b - lo - n * lo) + b)
        hi = lo - g(lo) * (hi - lo) / (g(hi) - g(lo))
    return math.nextafter(b - hi, 0), min(math.nextafter(b - lo, math.inf), b)


def _nearest_float(sign: Callable, lo: float, hi: float) -> float:
    """The float nearest the root of p between floats lo < hi, by exact signs.

    sign(a, d) is an integer with the sign of p(a/d), d a power of two.
    Raises `ValueError` unless p(lo) < 0 < p(hi); halves by sign down to two
    adjacent floats, and returns the nearer by the sign at their exact
    midpoint (a1*(D/d1) + a2*(D/d2)) / 2D, D = max(d1, d2), lo at a tie.
    """
    if not sign(*lo.as_integer_ratio()) < 0 < sign(*hi.as_integer_ratio()):
        raise ValueError(f"no certified sign change between {lo!r} and {hi!r}")
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if sign(*mid.as_integer_ratio()) < 0 else (lo, mid)
    (a1, d1), (a2, d2) = lo.as_integer_ratio(), hi.as_integer_ratio()
    d = max(d1, d2)
    return hi if sign(a1 * (d // d1) + a2 * (d // d2), 2 * d) < 0 else lo


def _route_root(p: IntPolynomial, b: int) -> float:
    """The float nearest p's root in (1, b), by `_nearest_float` on [1, b]
    with p's `_scaled_eval` signs: about 55 exact signs, no float search."""
    return _nearest_float(partial(_scaled_eval, p), 1.0, float(b))


def lambda_n_bracket(n: int, tol: float = 1e-12) -> tuple[Fraction, Fraction]:
    """Exact rational bracket lo < hi, hi - lo <= tol, around the growth rate
    of rank n: [1, 2n-1] halved in `Fraction` arithmetic on `poly_eval` signs
    of q_n, which is negative at 1, positive at 2n-1 and has exactly one root
    above 1.  No midpoint is the root: q_n is monic with constant term 1, so
    its only possible rational roots are 1 and -1, and q_n(1) = -2n(n-2).
    There is no iteration cap: the smallest tolerance, 5e-324, takes about
    1080 halvings."""
    from fractions import Fraction

    n = _rank(n, 3, "a growth rate above 1")
    check_tolerance(tol)
    q = q_polynomial(n)
    lo, hi = Fraction(1), Fraction(2 * n - 1)
    if not poly_eval(q, lo) < 0 < poly_eval(q, hi):
        raise ValueError(f"q_{n} has no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if poly_eval(q, mid) < 0 else (lo, mid)
    return lo, hi


def lambda_n(n: int) -> float:
    """Growth rate of the rank-n presentations, the nearest float (2n-1 from
    n = 13), by `_nearest_float` on the four-term form (x-1)*q_n: bit lengths
    per exact sign (an integer power only where they cannot decide), not n
    Horner steps.  Its float ends come from the closed-form delta bracket
    `_delta_bracket`: four exact signs below n = 13, three from 13.  From
    n = 129, where b^n overflows, or at a bracket the signs refuse, the floats
    just outside `lambda_n_bracket(n)`, a 1e-12 `Fraction` bracket, are used
    instead."""
    n = _rank(n, 3, "a growth rate above 1")
    sign = partial(_four_term_sign, n)
    try:
        return _nearest_float(sign, *_delta_bracket(n))
    except (OverflowError, ValueError):
        x, y = lambda_n_bracket(n)
        # One float outward from the rounded ends keeps both strictly outside [x, y].
        return _nearest_float(sign, math.nextafter(float(x), 0), math.nextafter(float(y), math.inf))


def bounds_check(n: int) -> bool:
    """Certify 2n-1 - (2n-1)^-(n-2) < growth rate < 2n-1 by exact signs.

    Evaluates the closed-form polynomial at both bounds in exact integer
    arithmetic: strictly negative at the lower bound, strictly positive at
    2n-1.  The lower bound needs n >= 4.
    """
    return _bounds_hold(_rank(n, 4, "the lower bound"))


def _lower_bound(n: int) -> tuple[int, int] | None:
    """The exact lower bound 2n-1 - (2n-1)^-(n-2) on the growth rate as
    (numerator, denominator) in lowest terms, (b^(n-1) - 1, b^(n-2)) with
    b = 2n-1; None below n = 4."""
    if n < 4:
        return None
    b = 2 * n - 1
    p = b ** (n - 2)
    return p * b - 1, p


def _bounds_hold(n: int) -> bool:
    """The closed-form polynomial is negative at the lower end and positive
    at 2n-1, by exact integer signs.  The lower end is `_lower_bound(n)`, or
    1 where that bound does not apply."""
    p = q_polynomial(n)
    lower = _lower_bound(n) or (1, 1)
    return _scaled_eval(p, *lower) < 0 < _scaled_eval(p, 2 * n - 1, 1)


# =====================================================================
# The consensus report
# =====================================================================

class EntropyReport(_Frozen):
    """Growth rate and volume entropy of one presentation, with receipts.

    Stored, as `volume_entropy` computed them:
    lambda_    -- consensus growth rate (the certified rome-route root)
    routes     -- per-route growth-rate estimates (empty for rank 2)
    converged  -- per power route, whether its spectral radius is proven
                  between the floats either side of lambda_ (empty for rank 2)
    bounds_hold-- every applicable exact bound certification passed

    Derived from them, read-only:
    entropy    -- log(lambda_), natural log
    agreement  -- largest pairwise gap between routes, 0.0 with no routes
    failure    -- "" when every power route is certified and all routes report the same
                  float, else "not certified: <routes>" and/or "routes spread <agreement>"
    consistent -- failure == ""
    """

    __slots__ = ("n", "orientable", "lambda_", "routes", "converged", "bounds_hold")

    def __init__(self, n: int, orientable: bool, lambda_: float, routes: dict[str, float] | None = None,
                 converged: dict[str, bool] | None = None, bounds_hold: bool = True) -> None:
        self._init(n, orientable, lambda_, {} if routes is None else routes,
                   {} if converged is None else converged, bounds_hold)

    @property
    def entropy(self) -> float:
        return math.log(self.lambda_)

    @property
    def agreement(self) -> float:
        values = self.routes.values()
        return max((abs(a - b) for a in values for b in values), default=0.0)

    @property
    def failure(self) -> str:
        # Certified power routes report lambda_, so the spread asks the root routes for it too.
        stuck = ", ".join(name for name in ROUTE_NAMES if not self.converged.get(name, True))
        spread = self.agreement and f"routes spread {self.agreement:.3e}"
        return "; ".join(filter(None, (stuck and f"not certified: {stuck}", spread)))

    @property
    def consistent(self) -> bool:
        return not self.failure


def _power_route(matrix: IntMatrix | TransitionOperator, n: int, lam: float) -> tuple[float, str]:
    """(lam, "") if one exact product proves rho(matrix) between the floats
    either side of lam, the rome route's root (`_route_root`); else the
    midpoint of the ratios (m v)_i / v_i, which still bracket rho(matrix), and
    where the proof fails.  One `_perron_profile` at lam proves both ends: as
    (S_n - lam) v = -q_n(lam)/(lam + 1) e_(n-1), each ratio is lam but row
    n-1's (and its images), which is a fraction of an ulp off."""
    ends = (math.nextafter(lam, 0), math.nextafter(lam, math.inf))
    v = _perron_profile(n, lam, matrix.size)
    mv = _apply(matrix)(v)
    failure = _collatz_wielandt_failure(mv, v, ends)
    if not failure:
        return lam, ""
    ratios = list(map(truediv, mv, v))
    return (min(ratios) + max(ratios)) / 2, failure


def volume_entropy(spec: PresentationSpec) -> EntropyReport:
    """Volume entropy of the presentation, cross-checked five ways.

    Routes: the roots of the characteristic polynomial of the supercompacted
    matrix through a rome and by exact elimination (one root when they are
    equal), each the float nearest it by exact signs alone (`_route_root`);
    and the spectral radii of the transition matrix (a
    `TransitionOperator`, never stored), the compacted and the supercompacted
    matrix, each proven between the floats either side of the rome-route
    root (`_power_route`), the consensus value, which it then reports.  A
    route failing its certificate, or root routes on different floats, make
    the report read consistent=False; routes are never averaged.
    """
    n = spec.n
    if n == 2:
        return EntropyReport(n, spec.orientable, 1.0)

    matrices = (TransitionOperator(spec), compacted_matrix(n), super_compacted_matrix(n))
    sc = matrices[2]
    polys = (rome_char_poly(sc, RomeSpec((n - 1, n))), char_poly_exact(sc))
    roots = {poly: _route_root(poly, 2 * n - 1) for poly in dict.fromkeys(polys)}
    lam = roots[polys[0]]
    routes, converged = {}, {}
    for name, matrix in zip(ROUTE_NAMES[:3], matrices):
        routes[name], failure = _power_route(matrix, n, lam)
        converged[name] = not failure
    routes.update((name, roots[poly]) for name, poly in zip(ROUTE_NAMES[3:], polys))

    return EntropyReport(n, spec.orientable, lam, routes, converged, _bounds_hold(n))


# =====================================================================
# Entropy tables
# =====================================================================

class EntropyTableRow(_Frozen):
    """One rank's growth rate, `lambda_n(n)`; the rest of the row is derived
    from n and lambda_ on each read.

    lower_bound is None at n = 3, where the closed-form lower bound does not
    apply; gap = log(2n-1) - entropy measures how close the entropy sits to
    its theoretical ceiling, to relative accuracy.  It is subnormal from
    n = 129 and reads 0.0 from n = 135, below 2^-1074.
    """

    __slots__ = ("n", "lambda_")

    def __init__(self, n: int, lambda_: float) -> None:
        self._init(n, lambda_)

    entropy = EntropyReport.entropy

    @property
    def upper_bound(self) -> float:
        return float(2 * self.n - 1)

    @property
    def lower_bound(self) -> float | None:
        lb = _lower_bound(self.n)
        # int / int rounds correctly, as float(Fraction) does
        return None if lb is None else lb[0] / lb[1]

    @property
    def gap(self) -> float:
        """-log1p(-delta/b) with b = 2n-1 and delta = b - lambda =
        (b*lambda - 1)/lambda^n, a root identity of (x-1)q(x) = x^(n+1) -
        b*x^n + b*x - 1 free of the cancellation in log(b) - log(lambda)."""
        n, lam, b = self.n, self.lambda_, 2 * self.n - 1
        delta = math.exp(math.log(b * lam - 1) - n * math.log(lam))
        return -math.log1p(-delta / b)


def entropy_table(n_min: int, n_max: int) -> list[EntropyTableRow]:
    """Growth rates and entropies for ranks n_min..n_max inclusive."""
    n_min, n_max = _rank(n_min, 3, "the table"), _rank(n_max)
    if n_min > n_max:
        raise ValueError(f"empty range: n_min={n_min} > n_max={n_max}")
    if n_max > _MAX_TABLE_RANK:
        raise ValueError(
            f"table goes up to rank {_MAX_TABLE_RANK}, got {n_max}; lambda_n gives one high rank"
        )
    return [EntropyTableRow(n, lambda_n(n)) for n in range(n_min, n_max + 1)]

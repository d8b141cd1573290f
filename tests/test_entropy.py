"""Certified growth rates, exact bounds, and the consensus entropy report."""

import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from volentropy import cli, entropy, spectral
from volentropy.core import IntMatrix, IntPolynomial, _scaled_eval, poly_eval
from volentropy.entropy import (
    ROUTE_NAMES,
    EntropyReport,
    EntropyTableRow,
    bounds_check,
    entropy_table,
    lambda_n,
    lambda_n_bracket,
    volume_entropy,
)
from volentropy.markov import PresentationSpec, TransitionOperator, reference_rows
from volentropy.reductions import compacted_matrix, divided_compacted_matrix, super_compacted_matrix
from volentropy.rome import q_polynomial
from volentropy.spectral import power_iteration

# Frozen from an independent eigenvalue computation (numpy.roots on the
# closed-form coefficients), 12 significant digits.
LAMBDA_ORACLE = {
    3: 4.791287847478,
    4: 6.979835779216,
    5: 8.998644378952,
    8: 14.999999912599,
}


# ---------------------------------------------------------------- lambda_n

def test_lambda_matches_independent_oracle():
    for n, expected in LAMBDA_ORACLE.items():
        assert lambda_n(n) == pytest.approx(expected, abs=1e-9)


def test_lambda_bracket_certificate():
    for n in range(3, 15):
        lo, hi = lambda_n_bracket(n, tol=1e-9)
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert hi - lo <= Fraction(2, 10**9)
        q = q_polynomial(n)
        assert poly_eval(q, lo) < 0 < poly_eval(q, hi)
        # hi can stick at the ceiling for large n, where the root crowds it
        assert 1 < lo and hi <= 2 * n - 1


@pytest.mark.parametrize("tol", [1e-100, 5e-324])
def test_lambda_bracket_meets_tiny_tolerances(tol):
    # No iteration cap: the bracket reaches any representable tolerance.
    lo, hi = lambda_n_bracket(5, tol=tol)
    assert 0 < hi - lo <= tol
    q = q_polynomial(5)
    assert poly_eval(q, lo) < 0 < poly_eval(q, hi)


def test_the_bracket_never_collapses_on_a_midpoint():
    """q_n is monic with constant term 1, so by the rational root theorem its
    only possible rational roots are 1 and -1, and q_n(1) = -2n(n-2) < 0 from
    n = 3.  So no dyadic midpoint of [1, 2n-1] is a root: every bisection step
    keeps a strict sign change, and the bracket ends with lo < hi, however
    small the tolerance.  The signs are checked here in integers, apart from
    the `poly_eval` signs the bisection takes."""
    for n in range(3, 41):
        lo, hi = lambda_n_bracket(n, 1e-40)
        q = q_polynomial(n)
        assert lo < hi and hi - lo <= 1e-40, n
        below, above = (_scaled_eval(q, end.numerator, end.denominator) for end in (lo, hi))
        assert below < 0 < above, n


def test_a_bracket_without_a_sign_change_is_refused(monkeypatch):
    monkeypatch.setattr(entropy, "q_polynomial", lambda n: IntPolynomial([-1]))
    with pytest.raises(ValueError, match=r"^q_5 has no sign change on \[1, 9\]$"):
        lambda_n_bracket(5)


def test_lambda_is_increasing_and_below_ceiling():
    # From n = 13 the float nearest the root is 2n-1 itself (delta < ulp/2);
    # the strict bound lambda < 2n-1 is certified exactly by bounds_check.
    values = [lambda_n(n) for n in range(3, 31)]
    for a, b in zip(values, values[1:]):
        assert a < b
    for n, v in zip(range(3, 31), values):
        assert 1 < v <= 2 * n - 1


def test_the_float_nearest_lambda_is_the_ceiling_from_rank_13_to_the_table_cap():
    """With b = 2n-1 and lambda = b - delta, (x-1)*q_n(x) = x^(n+1) - b*x^n + b*x - 1
    vanishes at lambda iff g(delta) = delta*(b-delta)^n - b*(b-delta) + 1 does.  Let

        delta_lo = (b^2-1)/(b^n+b),  delta_hi = delta_lo*(1 + e),  e = 4n*delta_lo/b.

    g(delta_lo) < 0: (b-delta_lo)^n < b^n, so g(delta_lo) + b^2 - 1 < delta_lo*(b^n+b) = b^2 - 1.
    g(delta_hi) > 0: by Bernoulli, (b-delta)^n = b^n*(1-delta/b)^n >= b^n*(1 - n*delta/b), so
    g(delta_hi) + b^2 - 1 >= b^n*delta_hi*(1 - n*delta_hi/b) + b*delta_hi.  Here
    delta_hi*(1 - n*delta_hi/b) = delta_lo*(1+e)*(1 - e*(1+e)/4) >= delta_lo, since
    (1+e)^2 <= 4 for e = 4n*delta_lo/b < 4n/b^(n-1) <= 1, which holds from n = 3 (12/25),
    and b*delta_hi > b*delta_lo, so the right side exceeds delta_lo*(b^n+b) = b^2 - 1.  So
    (x-1)*q_n has a root in (b - delta_hi, b - delta_lo), above 1: lambda, q_n's only root
    above 1, at every n >= 3.  b is odd, not a power of 2, so the floats next to b are
    b -/+ ulp(b), and the float nearest lambda is b itself when delta_hi < ulp(b)/2.
    The signs of g are checked in integers, at delta = p/q as q^(n+1)*g(p/q), at every
    rank from 3 to 150, past n = 128, the last rank where the bracket's ends are floats
    (`entropy._delta_bracket`); delta_hi < ulp(b)/2 at every rank from 13 to the table
    cap.  Neither goes through `lambda_n`.  At n = 3..12, delta > delta_lo > ulp(b)/2, so
    the float nearest lambda is below b there, as `lambda_n` reads.
    """
    def g_cleared(p, q, n, b):
        return p * (b * q - p) ** n - (b * (b * q - p) - q) * q**n

    def delta_bracket(n, b):
        lo_p, lo_q = b * b - 1, b**n + b
        return (lo_p, lo_q), (lo_p * (b * lo_q + 4 * n * lo_p), b * lo_q * lo_q)

    for n in range(3, 151):
        b = 2 * n - 1
        lo, hi = delta_bracket(n, b)
        assert g_cleared(*lo, n, b) < 0 < g_cleared(*hi, n, b), n
    for n in range(13, entropy._MAX_TABLE_RANK + 1):
        b = 2 * n - 1
        assert Fraction(*delta_bracket(n, b)[1]) < Fraction(math.ulp(b)) / 2, n
    for n in range(3, 13):
        b = 2 * n - 1
        assert Fraction(*delta_bracket(n, b)[0]) > Fraction(math.ulp(b)) / 2, n
        assert lambda_n(n) < b, n


def test_lambda_validation():
    with pytest.raises(ValueError):
        lambda_n(2)
    with pytest.raises(ValueError):
        lambda_n_bracket(3, tol=0.0)


# Every public entry point that takes a rank, as a function of that rank.
RANK_ENTRY_POINTS = {
    "PresentationSpec": partial(PresentationSpec, orientable=False),
    "q_polynomial": q_polynomial,
    "compacted_matrix": compacted_matrix,
    "divided_compacted_matrix": divided_compacted_matrix,
    "super_compacted_matrix": super_compacted_matrix,
    "reference_rows": partial(reference_rows, orientable=True),
    "lambda_n": lambda_n,
    "lambda_n_bracket": lambda_n_bracket,
    "bounds_check": bounds_check,
    "entropy_table from": partial(entropy_table, n_max=5),
    "entropy_table to": partial(entropy_table, 3),
}


@pytest.mark.parametrize("n", [3.0, 4.0, 4.5, "4", "5", None])
def test_a_rank_that_is_not_an_int_is_rejected_and_named(n):
    # One guard refuses it before any range check or arithmetic on n: no
    # TypeError from inside, and no 4.0 taken as rank 4.
    for call in RANK_ENTRY_POINTS.values():
        with pytest.raises(ValueError, match=f"rank must be an int, got {n!r}$"):
            call(n)


def test_a_numpy_int_rank_is_the_same_rank():
    np = pytest.importorskip("numpy")
    for name, call in RANK_ENTRY_POINTS.items():
        assert call(np.int64(4)) == call(4), name
    assert type(PresentationSpec(np.int64(4), False).n) is int


def test_a_bool_rank_is_refused_as_below_3():
    for call in (lambda_n, lambda_n_bracket):
        with pytest.raises(ValueError, match="a growth rate above 1 needs rank >= 3, got 1$"):
            call(True)


def _is_nearest_float(q: IntPolynomial, lam: float) -> bool:
    """q changes sign, exactly, between the half-way points around lam."""
    below = (Fraction(math.nextafter(lam, 0)) + Fraction(lam)) / 2
    above = (Fraction(lam) + Fraction(math.nextafter(lam, math.inf))) / 2
    return poly_eval(q, below) < 0 < poly_eval(q, above)


def test_lambda_is_the_report_lambda_at_every_matrix_rank():
    for n in range(3, 41):
        for orientable in (False, True) if n % 2 == 0 else (False,):
            assert lambda_n(n) == volume_entropy(PresentationSpec(n, orientable)).lambda_, n


@pytest.mark.parametrize("n", [200, 400])
def test_lambda_past_the_table_benchmark_is_the_ceiling_and_the_nearest_float(n):
    # From n = 129 the delta bracket overflows and lambda_n ends in the exact Fraction fallback.
    lam = lambda_n(n)
    assert lam == float(2 * n - 1)
    assert _is_nearest_float(q_polynomial(n), lam)


def _four_term(n: int) -> IntPolynomial:
    """x^(n+1) - b*x^n + b*x - 1 with b = 2n-1."""
    b = 2 * n - 1
    return IntPolynomial([-1, b] + [0] * (n - 2) + [-b, 1])


def test_the_four_term_form_is_x_minus_1_times_q():
    for n in range(2, 301):
        assert IntPolynomial([-1, 1]) * q_polynomial(n) == _four_term(n), n


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


@given(st.integers(3, 200), st.integers(0, 64), st.integers(1, 2**70))
def test_the_four_term_sign_is_the_sign_of_q_above_1(n, k, excess):
    d = 2**k
    a = d + excess
    assert _sign(entropy._four_term_sign(n, a, d)) == _sign(_scaled_eval(q_polynomial(n), a, d))


@settings(deadline=None)
@given(st.integers(3, 200), st.integers(-3, 3))
def test_the_four_term_sign_is_the_sign_of_q_around_lambda(n, k):
    # The floats k steps from lambda_n and the midpoint to the next float up:
    # where the root search takes its signs.  From n = 13 lambda_n is 2n-1.
    x = lambda_n(n) if n < 129 else float(2 * n - 1)
    for _ in range(abs(k)):
        x = math.nextafter(x, math.inf if k > 0 else 0)
    mid = (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2
    q = q_polynomial(n)
    for a, d in (x.as_integer_ratio(), (mid.numerator, mid.denominator)):
        assert _sign(entropy._four_term_sign(n, a, d)) == _sign(_scaled_eval(q, a, d)), (n, a, d)


def _four_term_product(n: int, a: int, d: int) -> int:
    """The unfiltered d^(n+1)*f(a/d) for f = (x-1)*q_n, d a power of two."""
    b = 2 * n - 1
    return a**n * (a - b * d) + ((b * a - d) << (d.bit_length() - 1) * n)


def test_the_four_term_sign_decides_by_bit_lengths_or_forms_the_product():
    # Every a in (d, (b+1)*d] for n = 3..12, d = 2^k, k = 0..6.  With A, L, H
    # the bit lengths of a, -e and c, below >= 0 certifies |a^n*e| > c*2^(kn)
    # and above >= 0 the reverse; the sign returns -1 or 1 there and the
    # unfiltered product everywhere else.
    reached = set()
    for n in range(3, 13):
        b = 2 * n - 1
        for k in range(7):
            d = 2**k
            for a in range(d + 1, (b + 1) * d + 1):
                e, c, exact = a - b * d, b * a - d, _four_term_product(n, a, d)
                got = entropy._four_term_sign(n, a, d)
                assert _sign(got) == _sign(exact), (n, a, d)
                if e >= 0:
                    case, want = "e >= 0", 1
                else:
                    big_a, big_l, big_h = a.bit_length(), (-e).bit_length(), c.bit_length()
                    below = n * (big_a - 1) + big_l - 1 - (big_h + k * n)
                    above = big_h - 1 + k * n - (n * big_a + big_l)
                    if below == 0:
                        reached.add("below == 0")
                    if above == 0:
                        reached.add("above == 0")
                    case, want = (("negative", -1) if below >= 0 else ("positive", 1) if above >= 0
                                  else ("exact", exact))
                assert got == want, (n, a, d, case)
                reached.add(case)
    assert reached == {"e >= 0", "negative", "positive", "exact", "below == 0", "above == 0"}


@pytest.fixture(scope="module")
def table_to_150():
    """`entropy_table(3, 150)`, built once: rows 129..150 each take the 1e-12
    `Fraction` fallback.  Each row's lambda_ is `lambda_n(n)`
    (test_table_rows_are_the_rank_and_its_lambda_n)."""
    return entropy_table(3, 150)


def test_lambda_is_the_route_root_of_q(table_to_150):
    for row in table_to_150:
        assert row.lambda_ == entropy._route_root(q_polynomial(row.n), 2 * row.n - 1), row.n


def test_lambda_searches_and_signs_on_the_four_term_form(monkeypatch):
    # Below n = 129 no coefficient-wise sign and no Fraction bracket: the exact signs
    # of the four-term form on the delta bracket, four below n = 13 and three from 13.
    # Bit lengths decide every sign from n = 15; below, at least one sign
    # forms the full product.
    sign = entropy._four_term_sign
    coefficient_signs = _spy(monkeypatch, "_scaled_eval")
    signs = _spy(monkeypatch, "_four_term_sign")
    brackets = _spy(monkeypatch, "lambda_n_bracket")
    for n in range(3, 129):
        lambda_n(n)
        assert len(signs) == (4 if n < 13 else 3), (n, len(signs))
        values = [sign(*args) for args in signs]
        if n >= 15:
            assert all(v in (-1, 1) for v in values), (n, values)
        else:
            assert any(v not in (-1, 1) and v == _four_term_product(*args)
                       for v, args in zip(values, signs)), n
        signs.clear()
    assert coefficient_signs == [] and brackets == []
    for n in range(129, 151):
        lambda_n(n)
        assert brackets == [(n,)], n
        brackets.clear()


def test_a_row_past_the_float_range_costs_one_1e_12_fraction_bracket(monkeypatch):
    # From n = 129 the row's poly_eval calls are the bracket's: two ends and
    # ceil(log2((2n-2)/1e-12)) halvings of [1, 2n-1].  A cheaper or dearer
    # row fails here, so a change to the fallback's cost is made knowingly.
    evals = _spy(monkeypatch, "poly_eval")
    for n in range(129, 151):
        assert lambda_n(n) == 2 * n - 1, n
        want = 2 + math.ceil(math.log2((2 * n - 2) / 1e-12))
        assert want == (50 if n <= 141 else 51), n
        assert len(evals) == want, (n, len(evals))
        evals.clear()


def test_the_delta_bracket_holds_lambda_until_its_float_range_ends():
    # Exact signs of q_n certify the root strictly inside the float bracket,
    # around lambda_n, at the Newton-tightened ranks 3..8 as at the others.
    for n in range(3, 129):
        lo, hi = entropy._delta_bracket(n)
        q = q_polynomial(n)
        assert _scaled_eval(q, *lo.as_integer_ratio()) < 0 < _scaled_eval(q, *hi.as_integer_ratio()), n
        assert lo < lambda_n(n) <= hi <= 2 * n - 1, n


def test_the_delta_bracket_is_the_closed_form_from_rank_13_until_b_to_the_n_overflows():
    # A table's median ranks take the closed-form ends one float outward, with no
    # Newton step; from n = 129, b^n overflows and lambda_n falls back.
    for n in range(13, 129):
        b = float(2 * n - 1)
        delta_lo = (b * b - 1) / (b**n + b)
        delta_hi = delta_lo * (1 + 4 * n * delta_lo / b)
        want = math.nextafter(b - delta_hi, 0), min(math.nextafter(b - delta_lo, math.inf), b)
        assert entropy._delta_bracket(n) == want, n
    for n in range(129, 151):
        with pytest.raises(OverflowError):
            entropy._delta_bracket(n)


# ---------------------------------------------------------------- bounds

def test_bounds_check_certifies_rank_4_to_30():
    for n in range(4, 31):
        assert bounds_check(n)


def test_bounds_check_needs_rank_4():
    with pytest.raises(ValueError):
        bounds_check(3)


def test_bounds_check_fails_when_either_sign_is_wrong(monkeypatch):
    # At n = 8, 2n-1 - lambda is about 8.7e-8: a lower end 1e-9 below 15
    # lies above lambda, where q is positive.
    with monkeypatch.context() as m:
        m.setattr(entropy, "_lower_bound", lambda n: (15 * 10**9 - 1, 10**9))
        assert not bounds_check(8)
    # -1 is negative at the lower end but also at 2n-1.
    monkeypatch.setattr(entropy, "q_polynomial", lambda n: IntPolynomial([-1]))
    assert not bounds_check(8)


def test_lambda_sits_inside_certified_bounds():
    # Float shadow of the exact certification; stops at rank 9 because the
    # root exceeds the lower bound by only about (2n-1)^-n, 46 ulps at n = 10
    # and less than one from n = 11, where the two floats no longer order.
    for n in range(4, 10):
        lam = lambda_n(n)
        lower = 2 * n - 1 - (2 * n - 1) ** -(n - 2)
        assert lower < lam < 2 * n - 1


# ---------------------------------------------------------------- reports

def test_report_rank_2_is_exactly_zero():
    # No routes: the derived spread is 0.0 and the verdict True.
    for orientable in (True, False):
        report = volume_entropy(PresentationSpec(2, orientable))
        assert report.entropy == 0.0
        assert report.lambda_ == 1.0
        assert report.routes == {} and report.converged == {}
        assert report.agreement == 0.0
        assert report.consistent is True


def test_report_rank_3_nonorientable():
    report = volume_entropy(PresentationSpec(3, False))
    assert set(report.routes) == set(ROUTE_NAMES)
    assert report.lambda_ == pytest.approx(LAMBDA_ORACLE[3], abs=1e-9)
    assert report.entropy == pytest.approx(math.log(LAMBDA_ORACLE[3]), abs=1e-9)
    assert report.agreement <= 1e-7
    assert report.consistent
    assert report.bounds_hold


def test_report_rank_4_orientable():
    report = volume_entropy(PresentationSpec(4, True))
    assert report.lambda_ == pytest.approx(LAMBDA_ORACLE[4], abs=1e-9)
    assert report.entropy == pytest.approx(1.943025389164, abs=1e-9)
    assert report.agreement <= 1e-7
    assert report.consistent
    assert report.bounds_hold


def test_report_consensus_is_the_certified_root():
    report = volume_entropy(PresentationSpec(5, False))
    assert report.lambda_ == report.routes["rome-root"]
    assert report.entropy == math.log(report.lambda_)


def test_routes_that_differ_read_their_largest_pairwise_gap_and_are_inconsistent():
    routes = {"markov-power": 5.0, "compacted-power": 5.25, "rome-root": 4.5}
    report = EntropyReport(3, False, 5.0, routes, dict.fromkeys(ROUTE_NAMES[:2], True))
    assert report.agreement == 0.75
    assert not report.consistent


def test_an_uncertified_route_with_equal_values_is_inconsistent():
    routes = dict.fromkeys(ROUTE_NAMES, 5.0)
    converged = {name: name != "compacted-power" for name in ROUTE_NAMES[:3]}
    report = EntropyReport(3, False, 5.0, routes, converged)
    assert report.agreement == 0.0
    assert not report.consistent
    assert EntropyReport(3, False, 5.0, routes, dict.fromkeys(ROUTE_NAMES[:3], True)).consistent


_SAME, _SPREAD = dict.fromkeys(ROUTE_NAMES, 5.0), {**dict.fromkeys(ROUTE_NAMES, 5.0), "charpoly-root": 5.5}
_CERTIFIED = dict.fromkeys(ROUTE_NAMES[:3], True)


@pytest.mark.parametrize(
    "routes, converged, failure",
    [
        pytest.param(None, None, "", id="rank-2"),
        pytest.param(_SAME, _CERTIFIED, "", id="consistent"),
        pytest.param(_SAME, {**_CERTIFIED, "compacted-power": False}, "not certified: compacted-power",
                     id="uncertified"),
        # Named in ROUTE_NAMES order, whatever the order of `converged`.
        pytest.param(_SAME, {"supercompacted-power": False, "compacted-power": True, "markov-power": False},
                     "not certified: markov-power, supercompacted-power", id="two-uncertified"),
        pytest.param(_SPREAD, _CERTIFIED, "routes spread 5.000e-01", id="spread"),
        pytest.param(_SPREAD, {**_CERTIFIED, "markov-power": False},
                     "not certified: markov-power; routes spread 5.000e-01", id="both"),
    ],
)
def test_the_report_is_consistent_exactly_when_its_failure_is_empty(routes, converged, failure):
    n = 3 if routes else 2
    report = EntropyReport(n, False, 5.0 if routes else 1.0, routes, converged)
    assert report.failure == failure
    assert report.consistent == (report.failure == "")


@pytest.mark.parametrize(
    "make, dropped",
    [
        pytest.param(partial(EntropyReport, 3, False, 4.0), ("entropy", "agreement", "failure", "consistent"),
                     id="report"),
        pytest.param(partial(EntropyTableRow, 3, 4.0), ("entropy", "lower_bound", "upper_bound", "gap"), id="row"),
    ],
)
def test_derived_values_are_read_only_and_refused_as_arguments(make, dropped):
    value = make()
    for name in dropped:
        assert isinstance(getattr(type(value), name), property), name
        assert name not in type(value).__slots__, name
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(TypeError):
            make(**{name: 1.0})


def _spy(monkeypatch, name: str) -> list[tuple]:
    """The arguments of each call to `entropy.<name>`, in call order."""
    calls = []
    real = getattr(entropy, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(entropy, name, spy)
    return calls


def test_equal_polynomials_share_one_bisection(monkeypatch):
    searches = _spy(monkeypatch, "_route_root")
    report = volume_entropy(PresentationSpec(5, False))
    assert [p for p, b in searches] == [q_polynomial(5)]
    assert report.routes["charpoly-root"] == report.routes["rome-root"]
    assert report.consistent


def test_a_charpoly_that_differs_is_bisected_and_reads_inconsistent(monkeypatch):
    # q(x) + 1 keeps the sign change on [1, 2n-1] but moves the root by about
    # 1/q'(lambda), far beyond the consistency bound: reusing the rome bracket
    # would hide the mismatch.
    shifted = q_polynomial(5) + IntPolynomial([1])
    monkeypatch.setattr(entropy, "char_poly_exact", lambda m: shifted)
    report = volume_entropy(PresentationSpec(5, False))
    assert report.routes["charpoly-root"] != report.routes["rome-root"]
    assert poly_eval(shifted, Fraction(report.routes["charpoly-root"])) == pytest.approx(0, abs=1e-6)
    assert not report.consistent
    assert report.lambda_ == report.routes["rome-root"]


def test_a_charpoly_off_by_one_reads_inconsistent_even_a_few_ulps_away(monkeypatch):
    # At n = 11, q + 1 moves the root by only about 16 floats, less than
    # 1e-12: the verdict asks for the same float, not a spread.
    shifted = q_polynomial(11) + IntPolynomial([1])
    monkeypatch.setattr(entropy, "char_poly_exact", lambda m: shifted)
    report = volume_entropy(PresentationSpec(11, False))
    assert 0 < report.agreement < 1e-12
    assert not report.consistent


def test_the_fallback_bracket_ends_on_the_float_the_delta_bracket_does(monkeypatch):
    # lambda_n with its delta bracket forced to overflow, as it does from
    # n = 129: the Fraction bracket ends on the same nearest float.
    want = {n: lambda_n(n) for n in range(3, 41)}

    def overflow(n):
        raise OverflowError("forced")

    monkeypatch.setattr(entropy, "_delta_bracket", overflow)
    brackets = _spy(monkeypatch, "lambda_n_bracket")
    for n, lam in want.items():
        assert lambda_n(n) == lam, n
    assert brackets == [(n,) for n in want]


def test_a_route_root_on_a_float_is_that_float_with_no_fraction_bracket(monkeypatch):
    # x - 2 is 0 at the float 2.0: the route root's sign bisection of [1, 3]
    # takes 2.0 as an upper end and ends on it, with no fallback.
    brackets = _spy(monkeypatch, "lambda_n_bracket")
    assert entropy._route_root(IntPolynomial([-2, 1]), 3) == 2.0
    assert brackets == []


@pytest.mark.parametrize("lo, hi", [(1.0, 1.5), (5.0, 4.0), (5.0, 9.0)], ids=["negative", "reversed", "positive"])
def test_nearest_float_needs_a_sign_change_between_its_ends(lo, hi):
    # q_3 is negative on [1, 4.79...) and positive above.
    with pytest.raises(ValueError, match="no certified sign change"):
        entropy._nearest_float(partial(_scaled_eval, q_polynomial(3)), lo, hi)


def test_nearest_float_at_an_exact_tie_is_the_lower_float():
    # 2^53 x - (2^53 + 1) has its root 1 + 2^-53 half-way between 1.0 and the
    # next float, so both are nearest.
    sign = partial(_scaled_eval, IntPolynomial([-(2**53 + 1), 2**53]))
    assert entropy._nearest_float(sign, 1.0, math.nextafter(1.0, 2)) == 1.0
    assert entropy._nearest_float(sign, 0.5, 2.0) == 1.0


def test_route_roots_are_the_nearest_float_to_the_root(monkeypatch):
    # Exact integer signs certify [1, 2n-1], halve it down to two adjacent
    # floats, and one more, at their midpoint, picks the nearer: no fallback
    # at any rank.  Exactly, q changes sign between the midpoints around lambda.
    signs = _spy(monkeypatch, "_scaled_eval")
    fallbacks = _spy(monkeypatch, "lambda_n_bracket")
    for n in range(3, 41):
        q, b = q_polynomial(n), 2 * n - 1
        lam = entropy._route_root(q, b)
        (_, a1, d1), (_, a2, d2) = signs[:2]
        assert (a1 / d1, a2 / d2) == (1.0, b)
        _, a, d = signs[-1]
        midpoints = {(Fraction(lam) + Fraction(math.nextafter(lam, end))) / 2 for end in (0, math.inf)}
        assert Fraction(a, d) in midpoints, n
        assert _is_nearest_float(q, lam), n
        signs.clear()
    assert fallbacks == []


def test_route_roots_take_no_float_evaluation_and_at_most_60_signs(monkeypatch):
    # A route root is a sign bisection of [1, 2n-1] on floats: about 55 exact
    # signs at any rank below 129, and no float evaluation of the polynomial.
    floats = _spy(monkeypatch, "poly_eval")
    signs = _spy(monkeypatch, "_scaled_eval")
    counts = []
    for n in range(3, 129):
        entropy._route_root(q_polynomial(n), 2 * n - 1)
        counts.append(len(signs))
        signs.clear()
    assert max(counts) <= 60 and min(counts) >= 54, (min(counts), max(counts))
    assert floats == []


@pytest.mark.parametrize("shift", [-1, 1], ids=["below", "above"])
def test_a_float_search_led_off_the_root_fails_the_exact_signs(shift, monkeypatch):
    # lambda_n's float bracket replaced by a pair of adjacent floats just
    # below (or above) the root: the exact sign at hi (or lo) rejects it, and
    # the exact Fraction bracket takes over, finished to the same nearest float.
    q, want = q_polynomial(5), lambda_n(5)
    end = math.nextafter(want, shift * math.inf)
    pair = tuple(sorted((end, math.nextafter(end, shift * math.inf))))
    monkeypatch.setattr(entropy, "_delta_bracket", lambda n: pair)
    brackets = _spy(monkeypatch, "lambda_n_bracket")
    lam = lambda_n(5)
    assert brackets == [(5,)]
    assert lam == want and _is_nearest_float(q, lam)


@pytest.mark.parametrize("scale", [10**306, 10**400], ids=["inf", "overflow"])
def test_a_charpoly_past_the_float_range_gives_the_same_root_by_exact_signs(scale, monkeypatch):
    # scale * q_5 has the same root, but its float slope would overflow
    # (10**306) and its coefficients do not convert to float (10**400).  Its
    # exact integer signs end on the same nearest float as the rome route,
    # with no Fraction bracket.
    scaled = q_polynomial(5) * IntPolynomial([scale])
    monkeypatch.setattr(entropy, "char_poly_exact", lambda m: scaled)
    brackets = _spy(monkeypatch, "lambda_n_bracket")
    report = volume_entropy(PresentationSpec(5, False))
    assert brackets == []
    assert report.routes["charpoly-root"] == report.routes["rome-root"]
    assert report.consistent and report.bounds_hold


def test_report_records_convergence_per_power_route():
    report = volume_entropy(PresentationSpec(5, False))
    assert report.converged == dict.fromkeys(ROUTE_NAMES[:3], True)
    assert volume_entropy(PresentationSpec(2, False)).converged == {}


def _raised(m: IntMatrix) -> IntMatrix:
    """m with its (1, 1) entry raised by 1."""
    return IntMatrix([[m.rows[0][0] + 1, *m.rows[0][1:]], *m.rows[1:]])


@pytest.mark.parametrize("route", ROUTE_NAMES[:3])
def test_a_power_route_whose_matrix_is_raised_comes_out_uncertified(route, monkeypatch, raised_operator):
    # The root routes keep q_5; the route's own matrix has one entry raised
    # by 1, so its spectral radius leaves the bracket around lambda_5.
    n, q = 5, q_polynomial(5)
    monkeypatch.setattr(entropy, "rome_char_poly", lambda m, rome: q)
    monkeypatch.setattr(entropy, "char_poly_exact", lambda m: q)
    tamper = {
        "markov-power": ("TransitionOperator", raised_operator),
        "compacted-power": ("compacted_matrix", lambda n: _raised(compacted_matrix(n))),
        "supercompacted-power": ("super_compacted_matrix", lambda n: _raised(super_compacted_matrix(n))),
    }
    monkeypatch.setattr(entropy, *tamper[route])
    report = volume_entropy(PresentationSpec(n, False))
    assert report.converged == {name: name != route for name in ROUTE_NAMES[:3]}
    assert not report.consistent
    assert report.lambda_ == report.routes["rome-root"] == lambda_n(n)
    # The midpoint of the lower-end ratios: every row at least the lower end,
    # row 1 one whole unit above it.
    assert report.routes[route] == pytest.approx(lambda_n(n) + 0.5, abs=1e-9)


@pytest.mark.parametrize("n", [3, 6, 24])
def test_a_bracket_shifted_off_lambda_fails_at_the_lower_end(n):
    # The bracket is the two floats either side of the given root, so even a
    # shift of 1e-11, thousands of floats but well inside 1e-10, is refused.
    # So is a shift of two floats, the narrowest bracket that misses the
    # root: two up fails below its lower end, two down above its upper end.
    lam = lambda_n(n)
    up = math.nextafter(math.nextafter(lam, math.inf), math.inf)
    down = math.nextafter(math.nextafter(lam, 0), 0)
    matrices = (
        TransitionOperator(PresentationSpec(n, False)),
        compacted_matrix(n),
        super_compacted_matrix(n),
    )
    for m in matrices:
        assert entropy._power_route(m, n, lam) == (lam, "")
        for x in (lam + 1e-6, lam + 1e-11, up):
            value, failure = entropy._power_route(m, n, x)
            assert failure == f"row {n - 1} below the lower end {math.nextafter(x, 0)!r}", (m.size, x)
            assert abs(value - lam) < 1e-6
        value, failure = entropy._power_route(m, n, down)
        assert failure == f"row {n - 1} above the upper end {math.nextafter(down, math.inf)!r}", m.size
        assert abs(value - lam) < 1e-6


def test_every_power_route_is_certified_at_every_rank():
    # Every presentation volume_entropy accepts, n = 2..40 in both
    # orientations: each power route is proven between the floats either
    # side of the root and reports the root itself.  So is the orientable
    # operator that verify's spectral-collapse certifies, formal at odd rank.
    for n in range(2, 41):
        for orientable in (False, True) if n % 2 == 0 else (False,):
            report = volume_entropy(PresentationSpec(n, orientable))
            power, roots = ({}, set()) if n == 2 else (dict.fromkeys(ROUTE_NAMES[:3], True), {report.lambda_})
            assert report.converged == power, (n, orientable)
            assert set(report.routes.values()) == roots, (n, orientable)
            assert report.consistent and report.bounds_hold and report.agreement == 0.0, (n, orientable)
        if n > 2:
            formal = TransitionOperator(PresentationSpec(n, True, formal=n % 2 == 1))
            assert entropy._power_route(formal, n, report.lambda_) == (report.lambda_, ""), n


def test_a_certified_power_route_makes_one_product(monkeypatch):
    # One Perron profile at the root proves both ends of the bracket.  Raised
    # two floats, the route is not certified and takes its midpoint from the
    # same product; midpoints and failures are pinned from two products each.
    calls = []
    real = TransitionOperator.apply
    monkeypatch.setattr(TransitionOperator, "apply", lambda self, v: calls.append(v) or real(self, v))
    profiles = _spy(monkeypatch, "_perron_profile")
    raised = {
        3: (4.79128784747792, "row 2 below the lower end 4.791287847477921"),
        6: (10.999932261046185, "row 5 below the lower end 10.999932261046185"),
        24: (47.00000000000001, "row 23 below the lower end 47.00000000000001"),
    }
    for n, uncertified in raised.items():
        lam = lambda_n(n)
        operator = TransitionOperator(PresentationSpec(n, False))
        for x, want in ((lam, (lam, "")), (math.nextafter(math.nextafter(lam, math.inf), math.inf), uncertified)):
            calls.clear()
            profiles.clear()
            assert entropy._power_route(operator, n, x) == want, (n, x)
            assert len(calls) == len(profiles) == 1, (n, x)


def test_no_route_calls_power_iteration(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("power_iteration was called")

    for mod in (spectral, entropy, cli):
        monkeypatch.setattr(mod, "power_iteration", refuse, raising=False)
    for n, orientable in ((3, False), (6, True), (7, False)):
        assert volume_entropy(PresentationSpec(n, orientable)).consistent
    assert all(row["pass"] for row in cli._run_battery(6))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_is_rejected_and_named(tol):
    # `tol <= 0` lets NaN and +inf through; every boundary that takes a
    # tolerance must reject them and say which value it got.
    calls = [
        lambda: power_iteration(IntMatrix.identity(2), tol=tol),
        lambda: lambda_n_bracket(4, tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"got {tol}$"):
            call()


@pytest.mark.parametrize("tol", [None, "1e-3", 1j, 10**400], ids=["None", "str", "complex", "10**400"])
@pytest.mark.parametrize("caller", ["lambda_n_bracket", "power_iteration"])
def test_a_tolerance_that_is_not_a_float_is_rejected_and_named(caller, tol):
    # No TypeError or OverflowError from inside: the tolerance guard names
    # what it got before any arithmetic on it.
    call = {
        "lambda_n_bracket": lambda: lambda_n_bracket(3, tol=tol),
        "power_iteration": lambda: power_iteration(IntMatrix.identity(2), tol=tol),
    }[caller]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"tolerance must be a finite positive number, got {tol!r}"


# ---------------------------------------------------------------- table

def test_table_rows():
    rows = entropy_table(3, 6)
    assert [r.n for r in rows] == [3, 4, 5, 6]
    assert rows[0].lower_bound is None
    assert rows[1].lower_bound == pytest.approx(7 - 1 / 49)
    for r in rows:
        assert r.upper_bound == 2 * r.n - 1
        assert r.entropy == pytest.approx(math.log(r.lambda_))
        assert r.gap == pytest.approx(math.log(r.upper_bound) - r.entropy)
        assert r.gap > 0


def test_table_rows_are_the_rank_and_its_lambda_n():
    # Ranks 129 and 130 take the exact fallback, like the rest of the table's tail.
    assert entropy_table(3, 130) == [EntropyTableRow(n, lambda_n(n)) for n in range(3, 131)]


def test_table_gap_shrinks():
    rows = entropy_table(3, 12)
    gaps = [r.gap for r in rows]
    for a, b in zip(gaps, gaps[1:]):
        assert b < a


@pytest.mark.parametrize("n", [10, 12, 13, 16, 24])
def test_table_gap_has_relative_accuracy(n):
    # Reference: delta = 2n-1 - lambda from a 1e-60 exact bracket, far
    # narrower than delta itself (about (2n-1)^(2-n)).
    lo, hi = lambda_n_bracket(n, tol=1e-60)
    b = 2 * n - 1
    delta = b - (lo + hi) / 2
    want = -math.log1p(-float(delta / b))
    (row,) = entropy_table(n, n)
    assert abs(row.gap - want) <= 1e-12 * want


def test_table_rows_are_the_nearest_float_and_clear_the_lower_bound(table_to_150):
    # From n = 129 q_n overflows floats and the row takes the exact fallback,
    # which ends on the nearest float too: 2n-1 itself, like every rank from 13.
    for row in table_to_150:
        assert _is_nearest_float(q_polynomial(row.n), row.lambda_), row.n
        assert row.lower_bound is None or row.lambda_ >= row.lower_bound, row.n
        assert row.n < 13 or row.lambda_ == row.upper_bound, row.n
    # The top row rounds the midpoint of an exact bracket far narrower than an ulp.
    lo, hi = lambda_n_bracket(150, 1e-15)
    assert row.lambda_ == float((lo + hi) / 2)


def test_table_lower_bound_is_the_rounded_exact_bound(monkeypatch):
    # The bound does not depend on lambda, so a stub keeps n = 4..400 cheap.
    monkeypatch.setattr(entropy, "lambda_n", lambda n: float(2 * n - 1))
    for row in entropy_table(4, 400):
        b = 2 * row.n - 1
        assert row.lower_bound == float(b - Fraction(1, b ** (row.n - 2))), row.n
        assert entropy._lower_bound(row.n) == (b ** (row.n - 1) - 1, b ** (row.n - 2)), row.n


def test_table_validation():
    with pytest.raises(ValueError):
        entropy_table(2, 5)
    with pytest.raises(ValueError):
        entropy_table(6, 5)


def test_table_refuses_past_its_cap_before_any_row(monkeypatch):
    cap = entropy._MAX_TABLE_RANK
    calls = []
    real = entropy.lambda_n
    monkeypatch.setattr(entropy, "lambda_n", lambda n: calls.append(n) or real(n))
    for n_max in (cap + 1, 10**9):
        with pytest.raises(ValueError, match=f"up to rank {cap}, got {n_max}") as exc:
            entropy_table(3, n_max)
        assert "lambda_n" in str(exc.value)
    assert calls == []
    (row,) = entropy_table(cap, cap)
    assert calls == [cap] and row.n == cap

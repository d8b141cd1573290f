"""Certified growth rates, exact bounds, and the consensus entropy report."""

import math
from fractions import Fraction

import pytest

from volentropy.core import IntMatrix, poly_eval
from volentropy.entropy import (
    ROUTE_NAMES,
    bounds_check,
    entropy_table,
    lambda_n,
    lambda_n_bracket,
    volume_entropy,
)
from volentropy.markov import PresentationSpec
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
        assert poly_eval(q, lo) < 0 <= poly_eval(q, hi) or lo == hi
        # hi can stick at the ceiling for large n, where the root crowds it
        assert 1 < lo and hi <= 2 * n - 1


def test_lambda_is_increasing_and_below_ceiling():
    values = [lambda_n(n) for n in range(3, 31)]
    for a, b in zip(values, values[1:]):
        assert a < b
    for n, v in zip(range(3, 31), values):
        assert 1 < v < 2 * n - 1


def test_lambda_validation():
    with pytest.raises(ValueError):
        lambda_n(2)
    with pytest.raises(ValueError):
        lambda_n(3, tol=0.0)


# ---------------------------------------------------------------- bounds

def test_bounds_check_certifies_rank_4_to_30():
    for n in range(4, 31):
        assert bounds_check(n)


def test_bounds_check_needs_rank_4():
    with pytest.raises(ValueError):
        bounds_check(3)


def test_lambda_sits_inside_certified_bounds():
    # Float shadow of the exact certification; stops at rank 9 because beyond
    # that the root crowds the lower bound below float bisection resolution.
    for n in range(4, 10):
        lam = lambda_n(n)
        lower = 2 * n - 1 - (2 * n - 1) ** -(n - 2)
        assert lower < lam < 2 * n - 1


# ---------------------------------------------------------------- reports

def test_report_rank_2_is_exactly_zero():
    for orientable in (True, False):
        report = volume_entropy(PresentationSpec(2, orientable))
        assert report.entropy == 0.0
        assert report.lambda_ == 1.0
        assert report.routes == {}
        assert report.consistent


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


def test_report_validation():
    with pytest.raises(ValueError):
        volume_entropy(PresentationSpec(4, True), tol=-1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_is_rejected_and_named(tol):
    # `tol <= 0` lets NaN and +inf through; every boundary that takes a
    # tolerance must reject them and say which value it got.
    calls = [
        lambda: power_iteration(IntMatrix.identity(2), tol=tol),
        lambda: lambda_n_bracket(4, tol=tol),
        lambda: volume_entropy(PresentationSpec(6, False), tol=tol),
        lambda: volume_entropy(PresentationSpec(2, False), tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"got {tol}$"):
            call()


def test_tolerance_above_1e_6_is_rejected_with_the_range():
    for tol in (0.5, 1.0, 2e-6):
        with pytest.raises(ValueError, match=rf"\(0, 1e-06\], got {tol}$"):
            volume_entropy(PresentationSpec(6, False), tol=tol)


@pytest.mark.parametrize("orientable", [False, True])
def test_largest_tolerance_still_gives_a_consistent_report(orientable):
    for n in range(4 if orientable else 3, 13, 2 if orientable else 1):
        report = volume_entropy(PresentationSpec(n, orientable), tol=1e-6)
        assert report.consistent and report.bounds_hold
        assert report.agreement <= 1e-3


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


def test_table_gap_shrinks():
    rows = entropy_table(3, 12)
    gaps = [r.gap for r in rows]
    for a, b in zip(gaps, gaps[1:]):
        assert b < a


def test_table_validation():
    with pytest.raises(ValueError):
        entropy_table(2, 5)
    with pytest.raises(ValueError):
        entropy_table(6, 5)

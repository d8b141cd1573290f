"""Exact arithmetic layer: index helper, matrices, polynomials, serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from volentropy.core import (
    IntMatrix,
    IntPolynomial,
    IntervalLabel,
    LaurentPolynomial,
    format_blocks,
    matrix_from_csv,
    matrix_to_csv,
    mod1,
    poly_eval,
    poly_reciprocal_check,
    slot_name,
)


# ---------------------------------------------------------------- mod1

def test_mod1_pinned_values():
    assert mod1(0, 6) == 6
    assert mod1(6, 6) == 6
    assert mod1(7, 6) == 1
    assert mod1(1, 6) == 1
    assert mod1(-1, 6) == 5
    assert mod1(13, 6) == 1


def test_mod1_rejects_bad_modulus():
    with pytest.raises(ValueError):
        mod1(3, 0)
    with pytest.raises(ValueError):
        mod1(3, -2)


@given(st.integers(-1000, 1000), st.integers(1, 60))
def test_mod1_range_and_periodicity(k, l):
    v = mod1(k, l)
    assert 1 <= v <= l
    assert mod1(k + l, l) == v
    assert (v - k) % l == 0


# ---------------------------------------------------------------- IntMatrix

def test_matrix_requires_square():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        IntMatrix([])


def test_matrix_entry_is_one_based():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.entry(1, 1) == 1
    assert m.entry(2, 1) == 3
    assert m.entry(1, 2) == 2
    with pytest.raises(IndexError):
        m.entry(0, 1)
    with pytest.raises(IndexError):
        m.entry(1, 3)


def test_matrix_product_and_sum():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert a * b == IntMatrix([[2, 1], [4, 3]])
    assert a + b == IntMatrix([[1, 3], [4, 4]])
    assert 3 * b == IntMatrix([[0, 3], [3, 0]])
    assert a * IntMatrix.identity(2) == a
    assert IntMatrix.zeros(2) + a == a


def test_matrix_is_immutable():
    m = IntMatrix([[1]])
    with pytest.raises(AttributeError):
        m.size = 5


@given(
    st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-9, 9), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_matrix_csv_round_trip(rows):
    m = IntMatrix(rows)
    assert matrix_from_csv(matrix_to_csv(m)) == m


def test_format_blocks_layout():
    m = IntMatrix([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]])
    text = format_blocks(m, 2)
    lines = text.splitlines()
    assert len(lines) == 5  # 4 rows + 1 separator
    assert "|" in lines[0]
    assert set(lines[2]) <= set("-+ ")
    with pytest.raises(ValueError):
        format_blocks(m, 3)


# ---------------------------------------------------------------- IntPolynomial

def test_polynomial_normalization_and_degree():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0, 0]).coeffs == (0,)
    assert IntPolynomial([0]).degree == -1
    assert IntPolynomial([3]).degree == 0
    assert IntPolynomial([1, 0, 2]).degree == 2


def test_polynomial_arithmetic_pinned():
    p = IntPolynomial([1, -4, -4, 1])  # the rank-3 closed form
    q = IntPolynomial([-1, 1])
    assert p * q == IntPolynomial([-1, 5, 0, -5, 1])
    assert p + q == IntPolynomial([0, -3, -4, 1])
    assert p - p == IntPolynomial([0])
    assert (-2) * q == IntPolynomial([2, -2])


def test_poly_eval_exact_rational():
    p = IntPolynomial([1, -4, -4, 1])
    assert poly_eval(p, 0) == 1
    assert poly_eval(p, 5) == 6
    assert poly_eval(p, Fraction(1, 2)) == Fraction(-15, 8)
    assert isinstance(poly_eval(p, Fraction(1, 2)), Fraction)


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
    st.lists(st.integers(-6, 6), min_size=1, max_size=6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)
def test_poly_eval_is_ring_homomorphism(a, b, x):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert poly_eval(p * q, x) == poly_eval(p, x) * poly_eval(q, x)
    assert poly_eval(p + q, x) == poly_eval(p, x) + poly_eval(q, x)


def fraction_horner(p: IntPolynomial, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


polynomials = st.lists(st.integers(-10**6, 10**6), max_size=9).map(IntPolynomial)


@given(polynomials, st.fractions(max_denominator=10**4))
def test_poly_eval_fraction_matches_fraction_horner(p, x):
    got = poly_eval(p, x)
    assert type(got) is Fraction
    assert got == fraction_horner(p, x)


@given(polynomials, st.fractions(max_denominator=50))
def test_poly_eval_is_exactly_zero_at_a_rational_root(q, r):
    p = q * IntPolynomial([-r.numerator, r.denominator])
    got = poly_eval(p, r)
    assert type(got) is Fraction
    assert got == 0


@given(polynomials, st.integers(-50, 50), st.floats(-4, 4))
def test_poly_eval_int_and_float_paths(p, k, x):
    got = poly_eval(p, k)
    assert type(got) is int
    assert got == fraction_horner(p, Fraction(k))
    acc = 0.0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    assert poly_eval(p, x) == acc


def test_reciprocal_check():
    assert poly_reciprocal_check(IntPolynomial([1, -3, 1]))
    assert not poly_reciprocal_check(IntPolynomial([3, 2, 1]))
    assert not poly_reciprocal_check(IntPolynomial([-1, 1]))
    assert poly_reciprocal_check(IntPolynomial([5]))
    with pytest.raises(ValueError):
        poly_reciprocal_check(IntPolynomial([0]))


# ---------------------------------------------------------------- LaurentPolynomial

def test_laurent_canonical_form():
    p = LaurentPolynomial(-3, [0, 1, 2, 0])
    assert p.min_exponent == -2
    assert p.coeffs == (1, 2)
    assert LaurentPolynomial(-5, [0, 0]).is_zero()
    assert LaurentPolynomial.zero().min_exponent == 0


def test_laurent_arithmetic_pinned():
    xinv = LaurentPolynomial.x_power(-1)
    z = LaurentPolynomial.x_power(-2)
    a = 3 * xinv + 3 * z
    assert a == LaurentPolynomial(-2, [3, 3])
    assert a - a == LaurentPolynomial.zero()
    assert xinv * xinv == z
    assert (xinv + z).times_x_power(3) == LaurentPolynomial(1, [1, 1])


def test_laurent_to_polynomial():
    assert LaurentPolynomial(0, [1, 2]).to_int_polynomial() == IntPolynomial([1, 2])
    assert LaurentPolynomial(2, [5]).to_int_polynomial() == IntPolynomial([0, 0, 5])
    with pytest.raises(ValueError):
        LaurentPolynomial(-1, [1]).to_int_polynomial()


def test_laurent_eval():
    p = LaurentPolynomial(-2, [1, 2])  # x^-2 + 2 x^-1
    assert p.eval(Fraction(2)) == Fraction(1, 4) + 1
    with pytest.raises(ZeroDivisionError):
        p.eval(Fraction(0))


laurents = st.builds(
    LaurentPolynomial,
    st.integers(-4, 4),
    st.lists(st.integers(-5, 5), min_size=0, max_size=5),
)


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------- labels

def test_slot_names_rank_3():
    assert [slot_name(j, 3) for j in range(1, 6)] == ["L^3", "C^L", "C", "C^R", "R^3"]


def test_slot_names_rank_5():
    names = [slot_name(j, 5) for j in range(1, 10)]
    assert names == ["L^5", "L^4", "L^3", "C^L", "C", "C^R", "R^3", "R^4", "R^5"]
    with pytest.raises(ValueError):
        slot_name(10, 5)
    with pytest.raises(ValueError):
        slot_name(0, 5)


def test_interval_label_round_trip():
    n = 4
    for pos in range(1, 2 * n * (2 * n - 1) + 1):
        lab = IntervalLabel.from_index(pos, n)
        assert lab.to_index(n) == pos
    assert IntervalLabel(1, 1).to_index(n) == 1
    assert IntervalLabel(2, 1).to_index(n) == 8
    assert IntervalLabel(8, 7).to_index(n) == 56
    with pytest.raises(ValueError):
        IntervalLabel(9, 1).to_index(n)
    with pytest.raises(ValueError):
        IntervalLabel(1, 8).to_index(n)


def test_interval_label_name():
    assert IntervalLabel(3, 3).name(4) == "I_3:C^L"
    assert IntervalLabel(3, 4).name(4) == "I_3:C"
    assert IntervalLabel(3, 5).name(4) == "I_3:C^R"

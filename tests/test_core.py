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


@pytest.mark.parametrize("action", ["set", "del"])
@pytest.mark.parametrize(
    "value, name",
    [
        pytest.param(IntMatrix([[1]]), "rows", id="IntMatrix.rows"),
        pytest.param(IntMatrix([[1]]), "size", id="IntMatrix.size"),
        pytest.param(IntPolynomial([1, 2]), "coeffs", id="IntPolynomial.coeffs"),
        pytest.param(LaurentPolynomial(-1, [1, 2]), "min_exponent", id="LaurentPolynomial.min_exponent"),
        pytest.param(LaurentPolynomial(-1, [1, 2]), "_poly", id="LaurentPolynomial._poly"),
    ],
)
def test_matrix_is_immutable(value, name, action):
    before = getattr(value, name)
    with pytest.raises(AttributeError):
        if action == "set":
            setattr(value, name, 5)
        else:
            delattr(value, name)
    assert getattr(value, name) == before


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


def test_nonzeros_pinned():
    m = IntMatrix([[0, 2, 0], [0, 0, 0], [-1, 0, 3]])
    assert m.nonzeros() == (((1,), (2,)), ((), ()), ((0, 2), (-1, 3)))


@given(
    st.integers(1, 8).flatmap(
        lambda k: st.lists(
            st.one_of(
                st.just([0] * k),
                st.lists(st.integers(-9, 9), min_size=k, max_size=k),
            ),
            min_size=k,
            max_size=k,
        )
    )
)
def test_nonzeros_rebuild_the_dense_rows(rows):
    m = IntMatrix(rows)
    rebuilt = []
    for cols, vals in m.nonzeros():
        assert 0 not in vals
        assert list(cols) == sorted(set(cols))
        row = [0] * m.size
        for j, v in zip(cols, vals):
            row[j] = v
        rebuilt.append(tuple(row))
    assert tuple(rebuilt) == m.rows


def test_format_blocks_layout():
    m = IntMatrix([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]])
    text = format_blocks(m, 2)
    lines = text.splitlines()
    assert len(lines) == 5  # 4 rows + 1 separator
    assert "|" in lines[0]
    assert set(lines[2]) <= set("-+ ")
    with pytest.raises(ValueError):
        format_blocks(m, 3)


def signed_square_rows(k: int):
    row = st.lists(st.integers(-999, 999), min_size=k, max_size=k)
    return st.lists(row, min_size=k, max_size=k)


@given(st.integers(1, 6).flatmap(signed_square_rows))
def test_plain_str_is_right_justified_rows(rows):
    m = IntMatrix(rows)
    w = max(len(str(v)) for row in rows for v in row)
    assert str(m) == "\n".join(" ".join(str(v).rjust(w) for v in row) for row in rows)


@pytest.mark.parametrize("bad", [0.5, 1.9, "7"])
@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda c: IntMatrix([[c, 1], [2, 3]]), id="IntMatrix"),
        pytest.param(lambda c: IntPolynomial([1, c]), id="IntPolynomial"),
        pytest.param(lambda c: LaurentPolynomial(-1, [c, 1]), id="LaurentPolynomial"),
    ],
)
def test_public_constructors_reject_non_integral_entries(build, bad):
    with pytest.raises(ValueError, match=repr(bad).replace(".", r"\.")):
        build(bad)


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
    assert a * 2 == LaurentPolynomial(-2, [6, 6])
    assert a + (-1) * a == LaurentPolynomial.zero()
    assert xinv + LaurentPolynomial.x_power(1) == LaurentPolynomial(-1, [1, 0, 1])
    with pytest.raises(TypeError):
        xinv * z


laurents = st.builds(
    LaurentPolynomial,
    st.integers(-4, 4),
    st.lists(st.integers(-5, 5), min_size=0, max_size=5),
)
scalars = st.integers(-4, 4)


@given(laurents, laurents, laurents, scalars, scalars)
def test_laurent_ring_axioms(a, b, c, j, k):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + LaurentPolynomial.zero() == a
    assert k * (a + b) == k * a + k * b
    assert (j + k) * a == j * a + k * a
    assert j * (k * a) == (j * k) * a


# The axioms alone would still hold if + ignored the exponents; these pin the
# arithmetic to the values the polynomials take.
nonzero_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=9).filter(
    lambda x: x != 0
)


def value(p: LaurentPolynomial, x: Fraction) -> Fraction:
    """p at x, term by term."""
    return sum((c * x ** (p.min_exponent + k) for k, c in enumerate(p.coeffs)), Fraction(0))


def assert_canonical_laurent(p: LaurentPolynomial) -> None:
    """What the public constructor stores: an int exponent over an
    `IntPolynomial` of plain ints with both end coefficients nonzero, or the
    zero polynomial at exponent 0."""
    assert type(p.coeffs) is tuple
    if p.coeffs:
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    else:
        assert p.min_exponent == 0 and p.is_zero()
    poly = p._poly
    assert type(p.min_exponent) is int and type(poly) is IntPolynomial
    assert all(type(c) is int for c in poly.coeffs)
    assert poly == IntPolynomial(poly.coeffs)
    assert p == LaurentPolynomial(p.min_exponent, p.coeffs)


@given(laurents, laurents, scalars, nonzero_fractions)
def test_laurent_arithmetic_agrees_with_evaluation(a, b, k, x):
    assert value(a + b, x) == value(a, x) + value(b, x)
    assert value(k * a, x) == value(a * k, x) == k * value(a, x)
    for p in (a + b, k * a, 2 * a, 0 * a, a + (-1) * a):
        assert_canonical_laurent(p)


@given(laurents, st.integers(0, 3), st.integers(0, 3))
def test_laurent_equal_values_hash_equal(a, lead, trail):
    padded = LaurentPolynomial(a.min_exponent - lead, (0,) * lead + a.coeffs + (0,) * trail)
    assert padded == a
    assert hash(padded) == hash(a)
    assert (a + padded) + (-1) * padded == a
    assert hash(a + (-1) * a) == hash(LaurentPolynomial.zero())


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

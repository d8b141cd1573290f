"""Exact arithmetic layer: matrices, polynomials, serialization."""

import numbers
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from volentropy.core import (
    IntMatrix,
    IntPolynomial,
    LaurentPolynomial,
    _Frozen,
    _scaled_eval,
    format_blocks,
    matrix_to_csv,
    poly_eval,
    poly_reciprocal_check,
)
from volentropy.markov import BlockKind, build_block
from volentropy.reductions import BlockView
from volentropy.rome import RomeSpec
from volentropy.spectral import power_iteration


def parse_csv(text: str) -> IntMatrix:
    """The matrix written by `matrix_to_csv`: one comma-separated row a line."""
    return IntMatrix([int(tok) for tok in line.split(",")] for line in text.splitlines() if line.strip())


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
    assert a * IntMatrix.identity(2) == a
    assert IntMatrix.zeros(2) + a == a
    with pytest.raises(ValueError, match="^size mismatch in matrix sum$"):
        a + IntMatrix.identity(3)
    with pytest.raises(ValueError, match="^size mismatch in matrix product$"):
        a * IntMatrix.identity(3)


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
    assert parse_csv(matrix_to_csv(m)) == m


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


M4 = IntMatrix([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]])


def plain_ints(value) -> bool:
    """Every integer a value holds, through its fields, tuples and lists, is a Python int."""
    if isinstance(value, _Frozen):
        value = value._values()
    if isinstance(value, (tuple, list)):
        return all(map(plain_ints, value))
    return isinstance(value, int) or not isinstance(value, numbers.Integral)


def iterate(budget):
    return power_iteration(IntMatrix.identity(2), max_iter=budget)


@pytest.mark.parametrize("bad", [0.5, 1.9, "7", 2.0, None])
@pytest.mark.parametrize(
    "build, least, good",
    [
        pytest.param(lambda c: IntMatrix([[c, 1], [2, 3]]), None, 5, id="IntMatrix"),
        pytest.param(lambda c: IntPolynomial([1, c]), None, -3, id="IntPolynomial"),
        pytest.param(lambda c: LaurentPolynomial(-1, [c, 1]), None, 4, id="LaurentPolynomial"),
        pytest.param(lambda c: LaurentPolynomial(c, [1, 2]), None, -1, id="LaurentPolynomial.exponent"),
        pytest.param(LaurentPolynomial.x_power, None, -2, id="x_power"),
        pytest.param(IntMatrix.zeros, 1, 2, id="IntMatrix.zeros"),
        pytest.param(IntMatrix.identity, 1, 3, id="IntMatrix.identity"),
        pytest.param(lambda c: build_block(BlockKind.T(), c), 1, 7, id="build_block"),
        pytest.param(BlockKind.U, 1, 2, id="BlockKind.U"),
        pytest.param(lambda c: BlockView(M4, c, 2), 1, 2, id="BlockView.count"),
        pytest.param(lambda c: BlockView(M4, 2, c), 1, 2, id="BlockView.size"),
        pytest.param(lambda c: format_blocks(M4, c), 1, 2, id="format_blocks"),
        pytest.param(lambda c: RomeSpec((c, 1)), 1, 3, id="RomeSpec"),
        pytest.param(iterate, 1, 5, id="power_iteration"),
    ],
)
def test_public_constructors_reject_non_integral_entries(build, least, good, bad):
    # One integer rule: an int, bool or numpy integer is taken as its plain int;
    # nothing else is truncated or coerced, and a floor is checked after it.
    if build is iterate and bad is None:
        assert build(None) == build(100 * 2 + 1000)  # the default budget
    else:
        with pytest.raises(ValueError, match=f"must be an int, got {re.escape(repr(bad))}$"):
            build(bad)
    if least is not None:
        with pytest.raises(ValueError, match=f"must be >= {least}, got {least - 1}$"):
            build(least - 1)
    np = pytest.importorskip("numpy")
    built = build(np.int64(good))
    assert built == build(good)
    assert plain_ints(built)


# ---------------------------------------------------------------- IntPolynomial

def test_polynomial_normalization_and_degree():
    assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert IntPolynomial([0, 0, 0]).coeffs == (0,)
    assert IntPolynomial([0]).degree == -1
    assert str(IntPolynomial([0])) == "0"
    assert IntPolynomial([3]).degree == 0
    assert IntPolynomial([1, 0, 2]).degree == 2


def test_polynomial_arithmetic_pinned():
    p = IntPolynomial([1, -4, -4, 1])  # the rank-3 closed form
    q = IntPolynomial([-1, 1])
    assert p * q == IntPolynomial([-1, 5, 0, -5, 1])
    assert p + q == IntPolynomial([0, -3, -4, 1])
    assert p - p == IntPolynomial([0])
    assert IntPolynomial([-2]) * q == IntPolynomial([2, -2])


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


# a/d with d > 0: any ratio, a <= 0 over 1, and every finite float, down to
# the subnormals (5e-324 is 1/2**1074)
ratios = st.one_of(
    st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6)),
    st.tuples(st.integers(-10**6, 0), st.just(1)),
    st.floats(allow_nan=False, allow_infinity=False).map(float.as_integer_ratio),
)


@given(polynomials, ratios)
@example(IntPolynomial([7]), (-3, 1))
@example(IntPolynomial([0]), (5, 3))
@example(IntPolynomial([-2, 0, 3]), (-(2**60), 1))
@example(IntPolynomial([1, -8, -8, -8, -8, 1]), (5e-324).as_integer_ratio())
@example(IntPolynomial([1, -8, -8, -8, -8, 1]), (-2.2250738585072014e-308).as_integer_ratio())
def test_scaled_eval_is_the_fraction_value_times_d_to_the_degree(p, ratio):
    a, d = ratio
    got = _scaled_eval(p, a, d)
    assert type(got) is int
    assert got == d ** (len(p.coeffs) - 1) * poly_eval(p, Fraction(a, d))


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
    assert LaurentPolynomial(-5, [0, 0]).coeffs == ()
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
        assert p.min_exponent == 0 and p._poly.is_zero()
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

"""Exact arithmetic building blocks: integer matrices and polynomials.

Everything in this module is exact.  Matrices hold arbitrary-precision Python
integers, polynomials hold integer coefficients, and the sign of a polynomial
at a rational a/d is the sign of the integer d^deg * p(a/d) (`_scaled_eval`),
so sign decisions are never at the mercy of floating point.  One integer
rule, `_int`, decides what an integer is: every entry, coefficient,
exponent, size, row index, rome node, iteration budget and rank a public
call stores or builds from passes it, and `_flag` decides what a flag is.
`_rank`, the rank guard built on `_int`,
names a rank that is too small, and `_check_matrix`, the one matrix guard,
refuses through it a rank below 3, and a side past 6320.
Polynomial arithmetic is written once, in `IntPolynomial`; a
`LaurentPolynomial` is a power of x times one, kept only to present the
rome path matrix, whose determinant is taken in x^-1.  Products m v live in
`spectral`, over the nonzero entries of an `IntMatrix` or through the
matrix-free `markov.TransitionOperator`.  The value
types of the package derive from `_Frozen`: their fields are their `__slots__`,
set once in `__init__`, and they compare and hash by class and fields.

Sparse view: `IntMatrix.nonzeros()`, each row's nonzero columns and values,
is the one place the package reads a nonzero pattern, so edges are never
found by scanning dense rows.

Indexing convention: the combinatorial formulas that drive this package are
stated with rows, columns, blocks and slots numbered from 1.  The public
accessor `IntMatrix.entry` speaks 1-based; plain iteration
over `IntMatrix.rows` is ordinary 0-based Python.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from itertools import compress, starmap, zip_longest

__all__ = [
    "IntMatrix",
    "IntPolynomial",
    "LaurentPolynomial",
    "poly_eval",
    "poly_reciprocal_check",
    "matrix_to_csv",
    "format_blocks",
]


# =====================================================================
# Helpers: input guards, the value-type base
# =====================================================================

def _int(x, what: str, least: int | None = None) -> int:
    """The one integer rule: x as a plain int by `operator.index` (int, bool, numpy.int64;
    not 2.0, '2' or None), refusing one below `least`, if given; `what` names x."""
    try:
        i = operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an int, got {x!r}") from None
    if least is not None and i < least:
        raise ValueError(f"{what} must be >= {least}, got {i}")
    return i


def _flag(x, what: str) -> bool:
    """The one flag rule: x if it is True or False (not 1, 'no' or None); `what` names x."""
    if x is not True and x is not False:
        raise ValueError(f"{what} must be a bool, got {x!r}")
    return x


def _ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values through `_int`, as a tuple of plain ints."""
    return tuple(_int(v, what) for v in values)


def check_tolerance(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number.

    NaN and infinity are rejected explicitly: `tol <= 0` lets both through,
    and either one turns a convergence or agreement test into a vacuous pass
    or a misleading failure.  So are a non-number (None, "1e-3", 1j) and an
    int past the float range, which `math.isfinite` cannot take.
    """
    try:
        valid = math.isfinite(tol) and tol > 0
    except (TypeError, OverflowError):
        valid = False
    if not valid:
        raise ValueError(f"tolerance must be a finite positive number, got {tol!r}")


# The side of the rank-40 transition matrix, 2*40*(2*40-1).  Past it a build
# needs gigabytes (159,600² cells at rank 200); the exact routes need none.
_MAX_SIDE = 6320


def _rank(n, least: int | None = None, what: str = "") -> int:
    """The one rank guard: n through `_int` as the rank (not 4.0, '4' or None),
    refusing a rank below `least`, if given, as `what` needing it."""
    n = _int(n, "rank")
    if least is not None and n < least:
        raise ValueError(f"{what} needs rank >= {least}, got {n}")
    return n


def _check_matrix(n: int, side: int, name: str) -> None:
    """Refuse, before anything is allocated, a rank `_rank` refuses below 3 or a side past the cap."""
    _rank(n, 3, name)
    if side > _MAX_SIDE:
        raise ValueError(
            f"the rank-{n} {name} is {side}x{side}, over the {_MAX_SIDE}x{_MAX_SIDE} cap: "
            "transition matrices go up to rank 40, reduced ones up to that size; "
            "`lambda_n` gives the growth rate as a float without a matrix, "
            "`lambda_n_bracket` an exact rational bracket of it, "
            "`volentropy table` a range of ranks up to its own cap"
        )


class _Frozen:
    """Base of the value types: a subclass names its fields in `__slots__` and sets them once,
    through `_init`.  Values of one class with equal fields are equal; none can change."""

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    # copy and pickle restore the fields through _init, not __setattr__
    __getstate__ = _values

    def __setstate__(self, state: tuple) -> None:
        self._init(*state)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# =====================================================================
# Dense square integer matrix
# =====================================================================

class IntMatrix(_Frozen):
    """Immutable square matrix of Python ints.

    Rows are stored as a tuple of tuples.  Equality is entrywise.  Matrix
    product and sum stay exact for arbitrarily large entries.
    """

    __slots__ = ("rows", "size")

    def __init__(self, rows: Iterable[Iterable[int]]):
        mat = tuple(_ints(row, "matrix entry") for row in rows)
        if not mat:
            raise ValueError("matrix must have at least one row")
        k = len(mat)
        for r in mat:
            if len(r) != k:
                raise ValueError(
                    f"matrix must be square, got row of length {len(r)} in a {k}-row matrix"
                )
        self._init(mat, k)

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap rows the package built itself: a non-empty, square tuple of
        int tuples.  Nothing is coerced or checked, so callers must only pass
        rows that the public constructor would store unchanged."""
        self = object.__new__(cls)
        self._init(rows, len(rows))
        return self

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, k: int) -> "IntMatrix":
        k = _int(k, "matrix size", 1)
        return cls._from_rows(((0,) * k,) * k)

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        k = _int(k, "matrix size", 1)
        return cls._from_rows(
            tuple((0,) * i + (1,) + (0,) * (k - 1 - i) for i in range(k))
        )

    # -- access ---------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        """Entry at row i, column j, both 1-based."""
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexError(f"entry ({i},{j}) out of range for size {self.size}")
        return self.rows[i - 1][j - 1]

    def nonzeros(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Each row's nonzero entries as a (columns, values) pair, columns 0-based."""
        cols = range(self.size)
        return tuple((tuple(compress(cols, row)), tuple(compress(row, row))) for row in self.rows)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch in matrix sum")
        return IntMatrix._from_rows(
            tuple(
                tuple(map(operator.add, ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch in matrix product")
        cols = list(zip(*other.rows))
        return IntMatrix._from_rows(
            tuple(
                tuple(sum(map(operator.mul, row, col)) for col in cols)
                for row in self.rows
            )
        )

    def reverse_rows(self) -> "IntMatrix":
        """J * self for the flip J: the rows in reverse order."""
        return IntMatrix._from_rows(self.rows[::-1])

    def reverse_columns(self) -> "IntMatrix":
        """self * J for the flip J: every row reversed."""
        return IntMatrix._from_rows(tuple(row[::-1] for row in self.rows))

    def is_nonnegative(self) -> bool:
        return min(map(min, self.rows)) >= 0

    def __repr__(self) -> str:
        return f"IntMatrix(size={self.size})"

    def __str__(self) -> str:
        return format_blocks(self, self.size)


# =====================================================================
# Integer polynomials (index = degree)
# =====================================================================

class IntPolynomial(_Frozen):
    """Polynomial with integer coefficients, coefficient index = degree.

    Canonical form: trailing zero coefficients stripped; the zero polynomial
    is stored as the single coefficient (0,).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        cs = list(_ints(coeffs, "coefficient"))
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self._init(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return IntPolynomial(list(starmap(operator.add, pairs)))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for e in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                xe = "x" if e == 1 else f"x^{e}"
                body = xe if mag == 1 else f"{mag}*{xe}"
            terms.append(f"{sign} {body}" if terms else f"{sign}{body}")
        return " ".join(terms)


def poly_eval(p: IntPolynomial, x):
    """Evaluate p at x by Horner's rule, in the arithmetic of x.

    With an int or a `fractions.Fraction` argument the result is exact;
    floats float.  `lambda_n_bracket` takes its signs from it on Fractions;
    every other exact sign in the package is an integer, `_scaled_eval`'s or
    the four-term form's.
    """
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _scaled_eval(p: IntPolynomial, a: int, d: int) -> int:
    """d^deg * p(a/d) = sum of c_i a^i d^(deg-i) for d > 0, deg = len(coeffs) - 1:
    an integer with the sign of p(a/d), by Horner's rule homogenised in d."""
    coeffs = p.coeffs
    acc, dk = coeffs[-1], 1
    for c in coeffs[-2::-1]:
        dk *= d
        acc = acc * a + c * dk
    return acc


def poly_reciprocal_check(p: IntPolynomial) -> bool:
    """True iff the coefficient sequence is palindromic (p is self-reciprocal).

    The zero polynomial has no well-defined reciprocal; rejected.
    """
    if p.is_zero():
        raise ValueError("reciprocal check undefined for the zero polynomial")
    return p.coeffs == tuple(reversed(p.coeffs))


# =====================================================================
# Laurent polynomials over the integers
# =====================================================================

class LaurentPolynomial(_Frozen):
    """Integer Laurent polynomial x^min_exponent * p(x), for an `IntPolynomial`
    p with nonzero constant term: an entry of the rome path matrix, with sums
    and integer multiples only.  `coeffs` holds p's coefficients, so both
    ends are nonzero; the zero element is exponent 0 over the zero polynomial,
    with coeffs ()."""

    __slots__ = ("min_exponent", "_poly")

    def __init__(self, min_exponent: int, coeffs: Sequence[int]):
        e, cs = _int(min_exponent, "exponent"), _ints(coeffs, "coefficient")
        lead = next((k for k, c in enumerate(cs) if c), len(cs))
        poly = IntPolynomial(cs[lead:])
        self._init(0 if poly.is_zero() else e + lead, poly)

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls(0, ())

    @classmethod
    def x_power(cls, e: int, c: int = 1) -> "LaurentPolynomial":
        """The monomial c * x^e (e may be negative)."""
        return cls(e, (c,))

    @property
    def coeffs(self) -> tuple[int, ...]:
        return () if self._poly.is_zero() else self._poly.coeffs

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.min_exponent > other.min_exponent:
            self, other = other, self
        shifted = IntPolynomial((0,) * (other.min_exponent - self.min_exponent) + other.coeffs)
        return LaurentPolynomial(self.min_exponent, (self._poly + shifted).coeffs)

    def __mul__(self, c: int) -> "LaurentPolynomial":
        if not isinstance(c, int):
            return NotImplemented
        return LaurentPolynomial(self.min_exponent, [c * a for a in self.coeffs])

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"LaurentPolynomial(min_exponent={self.min_exponent}, coeffs={list(self.coeffs)})"


# =====================================================================
# Serialization
# =====================================================================

def matrix_to_csv(m: IntMatrix) -> str:
    """One matrix row per line, entries comma-separated, no header."""
    return "\n".join(",".join(str(v) for v in row) for row in m.rows) + "\n"


def format_blocks(m: IntMatrix, block_size: int) -> str:
    """Pretty-print with block separators every `block_size` rows/columns.

    Used for transition matrices, whose natural block structure has
    2n blocks of size 2n-1 on each side.
    """
    block_size = _int(block_size, "block size", 1)
    if _int(m.size, "matrix size", 1) % block_size:
        raise ValueError(f"block size {block_size} does not divide matrix size {m.size}")
    w = max(len(str(v)) for row in m.rows for v in row)
    ncols = m.size
    out_lines = []
    sep_groups = ["-" * ((w + 1) * block_size - 1)] * (ncols // block_size)
    sep = "-+-".join(sep_groups)
    for i, row in enumerate(m.rows):
        cells = [str(v).rjust(w) for v in row]
        groups = [
            " ".join(cells[c : c + block_size]) for c in range(0, ncols, block_size)
        ]
        out_lines.append(" | ".join(groups))
        if (i + 1) % block_size == 0 and i + 1 < m.size:
            out_lines.append(sep)
    return "\n".join(out_lines)

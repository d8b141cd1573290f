"""Exact arithmetic building blocks: integer matrices and (Laurent) polynomials.

Everything in this module is exact.  Matrices hold arbitrary-precision Python
integers, polynomials hold integer coefficients, and evaluation goes through
`fractions.Fraction` so sign decisions are never at the mercy of floating
point.  Numerical work (power iteration) lives in `spectral` and converts on
the way in.

Indexing convention: the combinatorial formulas that drive this package are
stated with rows, columns, blocks and slots numbered from 1.  The public
accessors here (`IntMatrix.entry`, `mod1`, `IntervalLabel`) speak 1-based;
plain iteration over `IntMatrix.rows` is ordinary 0-based Python.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "mod1",
    "IntMatrix",
    "IntPolynomial",
    "LaurentPolynomial",
    "IntervalLabel",
    "slot_name",
    "poly_eval",
    "poly_reciprocal_check",
    "matrix_to_csv",
    "matrix_from_csv",
    "format_blocks",
]


# =====================================================================
# Cyclic index helper
# =====================================================================

def mod1(k: int, l: int) -> int:
    """Representative of k modulo l in {1, ..., l}.

    This is the shifted residue used throughout the index formulas: multiples
    of l map to l itself, so mod1(0, l) == mod1(l, l) == l and
    mod1(l + 1, l) == 1.  Negative k wraps the same way.
    """
    if l < 1:
        raise ValueError(f"modulus must be >= 1, got {l}")
    return (k - 1) % l + 1


def check_tolerance(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number.

    NaN and infinity are rejected explicitly: `tol <= 0` lets both through,
    and either one turns a convergence or agreement test into a vacuous pass
    or a misleading failure.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be a finite positive number, got {tol}")


# =====================================================================
# Dense square integer matrix
# =====================================================================

class IntMatrix:
    """Immutable square matrix of Python ints.

    Rows are stored as a tuple of tuples.  Equality is entrywise.  Matrix
    product and sum stay exact for arbitrarily large entries.
    """

    __slots__ = ("rows", "size")

    def __init__(self, rows: Iterable[Iterable[int]]):
        mat = tuple(tuple(map(int, row)) for row in rows)
        if not mat:
            raise ValueError("matrix must have at least one row")
        k = len(mat)
        for r in mat:
            if len(r) != k:
                raise ValueError(
                    f"matrix must be square, got row of length {len(r)} in a {k}-row matrix"
                )
        object.__setattr__(self, "rows", mat)
        object.__setattr__(self, "size", k)

    @classmethod
    def _from_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap rows the package built itself: a non-empty, square tuple of
        int tuples.  Nothing is coerced or checked, so callers must only pass
        rows that the public constructor would store unchanged."""
        self = object.__new__(cls)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "size", len(rows))
        return self

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("IntMatrix is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zeros(cls, k: int) -> "IntMatrix":
        return cls([[0] * k for _ in range(k)])

    @classmethod
    def identity(cls, k: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(k)] for i in range(k)])

    # -- 1-based access -------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        """Entry at row i, column j, both 1-based."""
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexError(f"entry ({i},{j}) out of range for size {self.size}")
        return self.rows[i - 1][j - 1]

    # -- arithmetic ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch in matrix sum")
        return IntMatrix._from_rows(
            tuple(
                tuple(map(operator.add, ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __rmul__(self, c: int) -> "IntMatrix":
        if not isinstance(c, int):
            return NotImplemented
        return IntMatrix([[c * v for v in row] for row in self.rows])

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

    def transpose(self) -> "IntMatrix":
        return IntMatrix._from_rows(tuple(zip(*self.rows)))

    def reverse_rows(self) -> "IntMatrix":
        """J * self for the flip J: the rows in reverse order."""
        return IntMatrix._from_rows(self.rows[::-1])

    def reverse_columns(self) -> "IntMatrix":
        """self * J for the flip J: every row reversed."""
        return IntMatrix._from_rows(tuple(row[::-1] for row in self.rows))

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    def is_nonnegative(self) -> bool:
        return min(map(min, self.rows)) >= 0

    def __repr__(self) -> str:
        return f"IntMatrix(size={self.size})"

    def __str__(self) -> str:
        w = max(len(str(v)) for row in self.rows for v in row)
        return "\n".join(" ".join(str(v).rjust(w) for v in row) for row in self.rows)


# =====================================================================
# Integer polynomials (index = degree)
# =====================================================================

class IntPolynomial:
    """Polynomial with integer coefficients, coefficient index = degree.

    Canonical form: trailing zero coefficients stripped; the zero polynomial
    is stored as the single coefficient (0,).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        cs = [int(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("IntPolynomial is immutable")

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports -1."""
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def __call__(self, x):
        return poly_eval(self, x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPolynomial([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial([other * c for c in self.coeffs])
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

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
    """Evaluate p at x by Horner's rule.

    With an int or Fraction argument the result is exact; floats float.
    """
    acc = 0 * x if not isinstance(x, (int, Fraction)) else 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
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

class LaurentPolynomial:
    """Integer Laurent polynomial: coefficients attached to exponents
    min_exponent, min_exponent + 1, ...

    Canonical form strips zero coefficients at both ends; the zero element is
    (min_exponent=0, coeffs=()).  These show up as path generating functions
    where each edge contributes one negative power of x.
    """

    __slots__ = ("min_exponent", "coeffs")

    def __init__(self, min_exponent: int, coeffs: Sequence[int]):
        cs = [int(c) for c in coeffs]
        lo = int(min_exponent)
        while cs and cs[0] == 0:
            cs.pop(0)
            lo += 1
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            lo = 0
        object.__setattr__(self, "min_exponent", lo)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls(0, ())

    @classmethod
    def from_int(cls, c: int) -> "LaurentPolynomial":
        return cls(0, (c,))

    @classmethod
    def x_power(cls, e: int, c: int = 1) -> "LaurentPolynomial":
        """The monomial c * x^e (e may be negative)."""
        return cls(e, (c,))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exponent(self) -> int:
        if not self.coeffs:
            return 0
        return self.min_exponent + len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        if not self.coeffs or not (self.min_exponent <= e <= self.max_exponent):
            return 0
        return self.coeffs[e - self.min_exponent]

    # -- arithmetic ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPolynomial)
            and self.min_exponent == other.min_exponent
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.min_exponent, self.coeffs))

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.min_exponent, other.min_exponent)
        hi = max(self.max_exponent, other.max_exponent)
        out = [0] * (hi - lo + 1)
        for e in range(self.min_exponent, self.max_exponent + 1):
            out[e - lo] += self.coefficient(e)
        for e in range(other.min_exponent, other.max_exponent + 1):
            out[e - lo] += other.coefficient(e)
        return LaurentPolynomial(lo, out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.min_exponent, [-c for c in self.coeffs])

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial(self.min_exponent, [other * c for c in self.coeffs])
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPolynomial(self.min_exponent + other.min_exponent, out)

    __rmul__ = __mul__

    def times_x_power(self, e: int) -> "LaurentPolynomial":
        if self.is_zero():
            return self
        return LaurentPolynomial(self.min_exponent + e, self.coeffs)

    def to_int_polynomial(self) -> IntPolynomial:
        """Convert when no negative exponents remain."""
        if self.is_zero():
            return IntPolynomial([0])
        if self.min_exponent < 0:
            raise ValueError(
                f"negative exponent {self.min_exponent} cannot convert to a polynomial"
            )
        return IntPolynomial((0,) * self.min_exponent + self.coeffs)

    def eval(self, x: Fraction) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if x == 0:
            raise ZeroDivisionError("Laurent polynomial evaluated at 0")
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * Fraction(x) ** self.min_exponent

    def __repr__(self) -> str:
        return f"LaurentPolynomial(min_exponent={self.min_exponent}, coeffs={list(self.coeffs)})"


# =====================================================================
# Interval labels
# =====================================================================

def slot_name(j: int, n: int) -> str:
    """Human-readable name of slot j within one generator interval of rank n.

    Each generator interval splits into 2n-1 subintervals, ordered left to
    right as L^n, ..., L^2, C^L, C, C^R, R^2, ..., R^n; slot j = 1 is L^n and
    slot j = 2n-1 is R^n.  The three central slots are C^L = slot n-1,
    C = slot n, C^R = slot n+1.
    """
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
    if not (1 <= j <= 2 * n - 1):
        raise ValueError(f"slot must be in 1..{2*n - 1}, got {j}")
    if j <= n - 2:
        return f"L^{n + 1 - j}"
    if j == n - 1:
        return "C^L"
    if j == n:
        return "C"
    if j == n + 1:
        return "C^R"
    return f"R^{j - (n - 1)}"


@dataclass(frozen=True, slots=True)
class IntervalLabel:
    """Address of one subinterval: generator index i, slot j (both 1-based).

    For rank n the generator index runs over 1..2n and the slot over 1..2n-1.
    The flat row/column position of the label in the big transition matrix is
    (i-1)*(2n-1) + j.
    """

    generator_index: int
    slot: int

    def validate(self, n: int) -> "IntervalLabel":
        if not (1 <= self.generator_index <= 2 * n):
            raise ValueError(
                f"generator index {self.generator_index} out of range 1..{2*n}"
            )
        if not (1 <= self.slot <= 2 * n - 1):
            raise ValueError(f"slot {self.slot} out of range 1..{2*n - 1}")
        return self

    def to_index(self, n: int) -> int:
        """Flat 1-based position in a rank-n transition matrix."""
        self.validate(n)
        return (self.generator_index - 1) * (2 * n - 1) + self.slot

    @classmethod
    def from_index(cls, pos: int, n: int) -> "IntervalLabel":
        s = 2 * n - 1
        if not (1 <= pos <= 2 * n * s):
            raise ValueError(f"position {pos} out of range 1..{2 * n * s}")
        return cls(generator_index=(pos - 1) // s + 1, slot=(pos - 1) % s + 1)

    def name(self, n: int) -> str:
        self.validate(n)
        return f"I_{self.generator_index}:{slot_name(self.slot, n)}"


# =====================================================================
# Serialization
# =====================================================================

def matrix_to_csv(m: IntMatrix) -> str:
    """One matrix row per line, entries comma-separated, no header."""
    return "\n".join(",".join(str(v) for v in row) for row in m.rows) + "\n"


def matrix_from_csv(text: str) -> IntMatrix:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append([int(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError("no rows in CSV input")
    return IntMatrix(rows)


def format_blocks(m: IntMatrix, block_size: int) -> str:
    """Pretty-print with block separators every `block_size` rows/columns.

    Used for transition matrices, whose natural block structure has
    2n blocks of size 2n-1 on each side.
    """
    if block_size < 1 or m.size % block_size != 0:
        raise ValueError(
            f"block size {block_size} does not divide matrix size {m.size}"
        )
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

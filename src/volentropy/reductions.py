"""Spectral-radius-preserving reductions of the big transition matrix.

The 2n(2n-1) x 2n(2n-1) transition matrix collapses in three steps, each
preserving the spectral radius:

1. block-circulant collapse: summing the first block row of the
   orientation-preserving matrix gives the (2n-1) x (2n-1) compacted matrix;
   the non-orientable matrix is *disoriented* block circulant (each block row
   is the circulant template row, possibly flipped by J) and collapses to the
   same compacted matrix.  `_block_row_pass` reads both off the block rows
   of masks that `markov._block_masks` yields, by rotations and popcounts.
2. column doubling: splitting the middle column of the compacted matrix gives
   the 2n x 2n divided compacted matrix, whose spectrum adds only a simple
   eigenvalue 1.  `_spectrum_split_failure` proves char(divided) =
   (x - 1) char(compacted) by an O(n^2) integer certificate: summing the two
   middle rows of the divided matrix gives the compacted rows with the middle
   column doubled, and e_n - e_{n+1} is an eigenvector for 1.
3. folding by the central symmetry: the divided compacted matrix commutes
   with the rotation by half a turn, and folding identifies it with the
   n x n supercompacted matrix (up to spectrum below the spectral radius).

All three reduced matrices are also given here by closed entrywise formulas,
which the tests check against the matrix identities.  `core._check_matrix`
refuses them below rank 3 and past 6320 per side (from rank 3161; 6321 for
the supercompacted matrix) before anything is allocated.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import zip_longest
from operator import add

from .core import IntMatrix, _Frozen, _check_matrix, _int, _rank

__all__ = [
    "BlockView",
    "sum_first_block_row",
    "check_J_commutation",
    "compacted_matrix",
    "divided_compacted_matrix",
    "super_compacted_matrix",
]


# =====================================================================
# Block structure
# =====================================================================

class BlockView(_Frozen):
    """A square matrix seen as an r x r grid of s x s blocks (r*s = size)."""

    __slots__ = ("matrix", "block_count", "block_size")

    def __init__(self, matrix: IntMatrix, block_count: int, block_size: int) -> None:
        r, s = _int(block_count, "block count", 1), _int(block_size, "block size", 1)
        if r * s != matrix.size:
            raise ValueError(f"block grid {r}x{s} does not tile a matrix of size {matrix.size}")
        self._init(matrix, r, s)

    def block(self, i: int, j: int) -> IntMatrix:
        """The (i, j) block, 1-based block indices."""
        r, s = self.block_count, self.block_size
        if not (1 <= i <= r and 1 <= j <= r):
            raise IndexError(f"block ({i},{j}) out of range for grid {r}x{r}")
        base_r, base_c = (i - 1) * s, (j - 1) * s
        return IntMatrix._from_rows(
            tuple(row[base_c : base_c + s] for row in self.matrix.rows[base_r : base_r + s])
        )


def sum_first_block_row(view: BlockView) -> IntMatrix:
    """Sum of the blocks of the first block row: column j sums every s-th entry from j."""
    s = view.block_size
    rows = view.matrix.rows[:s]
    return IntMatrix._from_rows(tuple(tuple(sum(row[j::s]) for j in range(s)) for row in rows))


def _block_row_pass(blocks: Iterable[list[int]], images: Iterable[list[int]], size: int) -> tuple:
    """One pass over two routes' block rows of row masks (bit j of mask i is
    entry (i+1, j+1)) of a 0/1 matrix of side `size`, holding one block row at
    a time besides the first.  Returns how images differs from blocks, "" iff
    equal (their row totals, else `_first_mask_difference` of the first unequal
    block row), the first block row of blocks, and whether each block row of
    blocks, from row b, is the first with each mask rotated left by b bits
    (block circulant), or that or its reverse, the flip J premultiplying every
    block (disoriented block circulant, with that circulant parallelization)."""
    full, first, circulant, disoriented = (1 << size) - 1, None, True, True
    # b, rows: the rows of blocks and of images read, equal up to the first
    # unequal block row, whose rows b numbers.
    b, rows, difference = 0, 0, ""
    for got, image in zip_longest(blocks, images, fillvalue=[]):
        if got != image:
            difference = difference or _first_mask_difference(image, got, b)
        rows += len(image)
        if got:
            first = got if first is None else first
            rotated = [(f << b | f >> (size - b)) & full for f in first]
            circulant = circulant and got == rotated
            disoriented = disoriented and got in (rotated, rotated[::-1])
            b += len(got)
    difference = f"sizes differ: {rows} vs {b}" if b != rows else difference
    return difference, first, circulant, disoriented


def _sum_block_row(first: list[int], size: int) -> IntMatrix:
    """`sum_first_block_row` of a 0/1 matrix of side `size` from its first block
    row of masks: entry (i, j) counts the bits of mask i at columns j, j+s, ...."""
    s = len(first)
    stride = sum(1 << k for k in range(0, size, s))
    return IntMatrix._from_rows(tuple(tuple((f & stride << j).bit_count() for j in range(s)) for f in first))


def _first_row_difference(a: tuple | list, b: tuple | list) -> str:
    """Where two tables of rows first differ, 1-based, as `first difference at
    (i,j): x vs y`, or `sizes differ: len(a) vs len(b)`; "" if they are equal."""
    if len(a) != len(b):
        return f"sizes differ: {len(a)} vs {len(b)}"
    for i, (ra, rb) in enumerate(zip(a, b), 1):
        if ra != rb:
            j = next(j for j, (x, y) in enumerate(zip(ra, rb)) if x != y)
            return f"first difference at ({i},{j + 1}): {ra[j]} vs {rb[j]}"
    return ""


def _first_mask_difference(a: list[int], b: list[int], start: int = 0) -> str:
    """`_first_row_difference` of two 0/1 matrices given as row masks (bit j is
    column j+1), rows numbered from start + 1, read off the lowest set bit of x ^ y."""
    if len(a) != len(b):
        return f"sizes differ: {len(a)} vs {len(b)}"
    for i, (x, y) in enumerate(zip(a, b), start + 1):
        if x != y:
            j = ((x ^ y) & -(x ^ y)).bit_length() - 1
            return f"first difference at ({i},{j + 1}): {x >> j & 1} vs {y >> j & 1}"
    return ""


def _spectrum_split_failure(d: IntMatrix, c: IntMatrix) -> str:
    """Where the certificate of char(d) = (x - 1) char(c) first fails,
    1-based, or "" if it holds; O(n^2) comparisons of integers.

    Lemma.  Let d be 2n x 2n and c (2n-1) x (2n-1).  Let S be the
    (2n-1) x 2n matrix that sums coordinates n and n+1 and keeps the others
    in order; S is onto, and k = e_n - e_{n+1} spans ker S.
    (i) If S d = c S, then S d k = c S k = 0, so d maps ker S into itself,
        and the map d induces on R^2n / ker S, which S identifies with
        R^(2n-1), is c.
    (ii) If also d k = k, then in a basis k, b_1, ..., b_{2n-1} with
        S b_i = e_i, d is block triangular [[1, *], [0, c]], so
        char(d) = (x - 1) char(c).
    Row i of S d is row i of d with rows n and n+1 replaced by their sum;
    row i of c S is row i of c with its middle column doubled,
    `row[:n] + row[n-1:]`; and d k is column n minus column n+1 of d.
    S d and c S are compared before d k, each first difference in the
    wording of `_first_row_difference`, d k and k as one-column tables.
    """
    n, odd = divmod(d.size, 2)
    if odd or c.size != 2 * n - 1:
        return f"sizes differ: {d.size} vs {c.size} + 1"
    rows = d.rows
    merged = rows[: n - 1] + (tuple(map(add, rows[n - 1], rows[n])),) + rows[n + 1 :]
    doubled = tuple(row[:n] + row[n - 1 :] for row in c.rows)
    if merged != doubled:
        return _first_row_difference(merged, doubled)
    image = tuple(row[n - 1] - row[n] for row in rows)
    k = (0,) * (n - 1) + (1, -1) + (0,) * (n - 1)
    if image != k:
        return (f"e_{n} - e_{n + 1} is not an eigenvector for 1: column {n} minus column {n + 1}, "
                + _first_row_difference(list(zip(image)), list(zip(k))))
    return ""


def check_J_commutation(m: IntMatrix) -> bool:
    """True iff m commutes with the flip J, checked as the equivalent
    invariance of m under rotation by half a turn."""
    return m.reverse_rows().reverse_columns() == m


# =====================================================================
# Closed-form reduced matrices
# =====================================================================

def compacted_matrix(n: int) -> IntMatrix:
    """The (2n-1) x (2n-1) compacted matrix.

    Row structure (1-based): a superdiagonal tail feeding the middle, three
    heavy central rows with weights n-2 and n-1, and a subdiagonal tail
    leaving the middle; equal to the blockwise sum
    T + JTJ + U(n) + (n-2)(U(n-1) + U(n+1)).
    """
    n = _rank(n)
    s = 2 * n - 1
    _check_matrix(n, s, "compacted matrix")
    c = [[0] * s for _ in range(s)]
    for i in range(1, n - 2):
        c[i - 1][i] = 1
    c[n - 3][n - 2] = 1
    c[n - 3][n - 1] = 1
    for j in range(1, s + 1):
        c[n - 2][j - 1] = (n - 2) if j <= n else (n - 1)
        c[n - 1][j - 1] = 1
        c[n][j - 1] = (n - 1) if j <= n - 1 else (n - 2)
    c[n + 1][n - 1] = 1
    c[n + 1][n] = 1
    for i in range(n + 3, s + 1):
        c[i - 1][i - 2] = 1
    return IntMatrix._from_rows(tuple(map(tuple, c)))


def divided_compacted_matrix(n: int) -> IntMatrix:
    """The 2n x 2n divided compacted matrix: the compacted matrix with its
    middle row and column split in two.

    Every compacted row but the middle one becomes a row here, with its
    middle column doubled (`row[:n] + row[n-1:]`); in place of the middle row
    go row n, ones over columns 1..n, and row n+1, ones over columns
    n+1..2n.  Its spectrum is that of the compacted matrix plus a simple
    eigenvalue 1.
    """
    n = _rank(n)
    _check_matrix(n, 2 * n, "divided compacted matrix")
    doubled = tuple(row[:n] + row[n - 1 :] for row in compacted_matrix(n).rows)
    ones, zeros = (1,) * n, (0,) * n
    return IntMatrix._from_rows(doubled[: n - 1] + (ones + zeros, zeros + ones) + doubled[n:])


def _perron_profile(n: int, x: float, size: int) -> list[int]:
    """V = d^(n-2) (a^2 - d^2) v(x) at the float x = a/d, on integers, where
    w = (x^(n-1) - 1)/(x^2 - 1) and v(x) = (1, x, ..., x^(n-3), x^(n-2) - 2w, w)
    has (S_n - x I) v(x) = -q_n(x)/(x + 1) e_(n-1); v > 0 for x >= 1 + sqrt(2).
    For side 2n-1 (C_n, whose middle coordinate merges n and n+1 of the
    centrosymmetric D_n with profile (V, JV)) it is the palindrome with 2 V_n
    in the middle; for 2n(2n-1), the transition matrix, that palindrome in
    each of the 2n blocks."""
    a, d = x.as_integer_ratio()
    scale, w = a * a - d * d, (a ** (n - 1) - d ** (n - 1)) * d
    v = [a**i * d ** (n - 2 - i) * scale for i in range(n - 2)] + [a ** (n - 2) * scale - 2 * w, w]
    if size == n:
        return v
    palindrome = v[: n - 1] + [2 * w] + v[n - 2 :: -1]
    return palindrome if size == 2 * n - 1 else palindrome * (2 * n)


def super_compacted_matrix(n: int) -> IntMatrix:
    """The n x n supercompacted matrix, the final exact reduction.

    Closed form: superdiagonal ones with a doubled corner entry at
    (n-2, n), a heavy row n-1 of weight 2n-3 (2n-4 in the last column), and
    an all-ones last row.  Equals D11 + D12*J for the n x n blocks D11, D12
    of the divided compacted matrix.
    """
    n = _rank(n)
    _check_matrix(n, n, "supercompacted matrix")
    m = [[0] * n for _ in range(n)]
    for i in range(1, n - 1):
        m[i - 1][i] = 1
    m[n - 3][n - 1] = 2
    for j in range(1, n + 1):
        m[n - 2][j - 1] = (2 * n - 3) if j < n else (2 * n - 4)
        m[n - 1][j - 1] = 1
    return IntMatrix._from_rows(tuple(map(tuple, m)))

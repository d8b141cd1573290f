"""Spectral-radius-preserving reductions of the big transition matrix.

The 2n(2n-1) x 2n(2n-1) transition matrix collapses in three steps, each
preserving the spectral radius:

1. block-circulant collapse: summing the first block row of the
   orientation-preserving matrix gives the (2n-1) x (2n-1) compacted matrix;
   the non-orientable matrix is *disoriented* block circulant (each block row
   is the circulant template row, possibly flipped by J) and collapses to the
   same compacted matrix.  The `*_masks` forms read both off one bit mask a
   row (`markov._block_masks`) by rotations and popcounts, with no matrix.
2. column doubling: splitting the middle column of the compacted matrix gives
   the 2n x 2n divided compacted matrix, whose spectrum adds only a simple
   eigenvalue 1.
3. folding by the central symmetry: the divided compacted matrix commutes
   with the rotation by half a turn, and folding identifies it with the
   n x n supercompacted matrix (up to spectrum below the spectral radius).

All three reduced matrices are also given here by closed entrywise formulas,
which the tests check against the matrix identities.  `core._check_matrix`
refuses them below rank 3 and past 6320 per side (from rank 3161; 6321 for
the supercompacted matrix) before anything is allocated.
"""

from __future__ import annotations

from .core import IntMatrix, _Frozen, _check_matrix

__all__ = [
    "BlockView",
    "sum_first_block_row",
    "is_block_circulant_masks",
    "is_disoriented_block_circulant_masks",
    "sum_first_block_row_masks",
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
        self._init(matrix, block_count, block_size)
        r, s = block_count, block_size
        if r < 1 or s < 1:
            raise ValueError("block count and size must be >= 1")
        if r * s != self.matrix.size:
            raise ValueError(
                f"block grid {r}x{s} does not tile a matrix of size {self.matrix.size}"
            )

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


def _rotated_block_rows(masks: list[int], s: int):
    """(block row b, the first block row rotated to row b) for each block row
    of the 0/1 matrix whose entry (i+1, j+1) is bit j of masks[i]: block row b
    of the plain circulant matrix that the first block row generates has each
    first-block mask rotated left by b bits in N = len(masks) bits."""
    size, full = len(masks), (1 << len(masks)) - 1
    for b in range(0, size, s):
        yield masks[b : b + s], [(f << b | f >> (size - b)) & full for f in masks[:s]]


def is_block_circulant_masks(masks: list[int], s: int) -> bool:
    """True iff block (i, j) depends only on (j - i) mod the block count."""
    return all(got == rotated for got, rotated in _rotated_block_rows(masks, s))


def is_disoriented_block_circulant_masks(masks: list[int], s: int) -> bool:
    """True iff every block row is that of the plain circulant matrix the
    first block row generates, either exactly or with every block
    premultiplied by the flip J, which reverses the order of its s rows.
    That plain circulant matrix is the parallelization."""
    return all(got in (rotated, rotated[::-1]) for got, rotated in _rotated_block_rows(masks, s))


def sum_first_block_row_masks(masks: list[int], s: int) -> IntMatrix:
    """`sum_first_block_row` from masks: entry (i, j) counts the bits of mask i
    at columns j, j+s, j+2s, ...."""
    stride = sum(1 << k for k in range(0, len(masks), s))
    return IntMatrix._from_rows(
        tuple(tuple((f & stride << j).bit_count() for j in range(s)) for f in masks[:s])
    )


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
    _check_matrix(n, 2 * n, "divided compacted matrix")
    doubled = tuple(row[:n] + row[n - 1 :] for row in compacted_matrix(n).rows)
    ones, zeros = (1,) * n, (0,) * n
    return IntMatrix._from_rows(doubled[: n - 1] + (ones + zeros, zeros + ones) + doubled[n:])


def super_compacted_matrix(n: int) -> IntMatrix:
    """The n x n supercompacted matrix, the final exact reduction.

    Closed form: superdiagonal ones with a doubled corner entry at
    (n-2, n), a heavy row n-1 of weight 2n-3 (2n-4 in the last column), and
    an all-ones last row.  Equals D11 + D12*J for the n x n blocks D11, D12
    of the divided compacted matrix.
    """
    _check_matrix(n, n, "supercompacted matrix")
    m = [[0] * n for _ in range(n)]
    for i in range(1, n - 1):
        m[i - 1][i] = 1
    m[n - 3][n - 1] = 2
    for j in range(1, n + 1):
        m[n - 2][j - 1] = (2 * n - 3) if j < n else (2 * n - 4)
        m[n - 1][j - 1] = 1
    return IntMatrix._from_rows(tuple(map(tuple, m)))

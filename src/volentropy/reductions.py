"""Spectral-radius-preserving reductions of the big transition matrix.

The 2n(2n-1) x 2n(2n-1) transition matrix collapses in three steps, each
preserving the spectral radius:

1. block-circulant collapse: summing the first block row of the
   orientation-preserving matrix gives the (2n-1) x (2n-1) compacted matrix;
   the non-orientable matrix is *disoriented* block circulant (each block row
   is the circulant template row, possibly flipped by J) and collapses to the
   same compacted matrix.
2. column doubling: splitting the middle column of the compacted matrix gives
   the 2n x 2n divided compacted matrix, whose spectrum adds only a simple
   eigenvalue 1.
3. folding by the central symmetry: the divided compacted matrix commutes
   with the rotation by half a turn, and folding identifies it with the
   n x n supercompacted matrix (up to spectrum below the spectral radius).

All three reduced matrices are also given here by closed entrywise formulas,
which the tests check against the matrix identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .core import IntMatrix

__all__ = [
    "BlockView",
    "is_block_circulant",
    "sum_first_block_row",
    "is_disoriented_block_circulant",
    "check_J_commutation",
    "compacted_matrix",
    "divided_compacted_matrix",
    "super_compacted_matrix",
]


# =====================================================================
# Block structure
# =====================================================================

@dataclass(frozen=True, slots=True)
class BlockView:
    """A square matrix seen as an r x r grid of s x s blocks (r*s = size)."""

    matrix: IntMatrix
    block_count: int
    block_size: int

    def __post_init__(self) -> None:
        r, s = self.block_count, self.block_size
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

    def block_row(self, i: int) -> list[IntMatrix]:
        return [self.block(i, j) for j in range(1, self.block_count + 1)]


def is_block_circulant(view: BlockView) -> bool:
    """True iff block (i, j) depends only on (j - i) mod block_count."""
    r, s = view.block_count, view.block_size
    first = view.block_row(1)
    m = view.matrix
    for i in range(2, r + 1):
        for j in range(1, r + 1):
            t = (j - i) % r  # template column index - 1
            base_r, base_c = (i - 1) * s, (j - 1) * s
            tmpl = first[t]
            for a in range(s):
                if m.rows[base_r + a][base_c : base_c + s] != tmpl.rows[a]:
                    return False
    return True


def sum_first_block_row(view: BlockView) -> IntMatrix:
    """Sum of the blocks of the first block row."""
    acc = IntMatrix.zeros(view.block_size)
    for blk in view.block_row(1):
        acc = acc + blk
    return acc


def is_disoriented_block_circulant(view: BlockView) -> tuple[bool, IntMatrix | None]:
    """Detect a block-circulant matrix with some rows flipped by J.

    A matrix is *disoriented* block circulant when every block row i equals
    the i-th block row of the circulant matrix generated by the first block
    row, either exactly or with every block premultiplied by the flip J.
    Returns (True, parallelization) where the parallelization is that plain
    circulant matrix, or (False, None).
    """
    r, s = view.block_count, view.block_size
    first = view.block_row(1)
    flipped_first = [blk.reverse_rows() for blk in first]
    rows: list[tuple[int, ...]] = []
    for i in range(1, r + 1):
        straight = [first[(j - i) % r] for j in range(1, r + 1)]
        actual = view.block_row(i)
        if actual == straight:
            pass
        elif actual == [flipped_first[(j - i) % r] for j in range(1, r + 1)]:
            pass
        else:
            return False, None
        for a in range(s):
            rows.append(tuple(chain.from_iterable(blk.rows[a] for blk in straight)))
    return True, IntMatrix._from_rows(tuple(rows))


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
    if n < 3:
        raise ValueError(f"compacted matrix needs rank >= 3, got {n}")
    s = 2 * n - 1
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
    return IntMatrix(c)


def divided_compacted_matrix(n: int) -> IntMatrix:
    """The 2n x 2n divided compacted matrix: the compacted matrix with its
    middle row and column split in two.

    Rows other than the two middle ones copy the compacted entries, with the
    middle column duplicated; row n covers columns 1..n, row n+1 covers
    columns n+1..2n.  Its spectrum is that of the compacted matrix plus a
    simple eigenvalue 1.
    """
    if n < 3:
        raise ValueError(f"divided compacted matrix needs rank >= 3, got {n}")
    c = compacted_matrix(n)
    size = 2 * n
    d = [[0] * size for _ in range(size)]
    for i in range(1, size + 1):
        if i == n:
            for j in range(1, n + 1):
                d[i - 1][j - 1] = 1
            continue
        if i == n + 1:
            for j in range(n + 1, size + 1):
                d[i - 1][j - 1] = 1
            continue
        ci = i if i < n else i - 1
        for j in range(1, size + 1):
            cj = j if j <= n else j - 1
            d[i - 1][j - 1] = c.entry(ci, cj)
    return IntMatrix(d)


def super_compacted_matrix(n: int) -> IntMatrix:
    """The n x n supercompacted matrix, the final exact reduction.

    Closed form: superdiagonal ones with a doubled corner entry at
    (n-2, n), a heavy row n-1 of weight 2n-3 (2n-4 in the last column), and
    an all-ones last row.  Equals D11 + D12*J for the n x n blocks D11, D12
    of the divided compacted matrix.
    """
    if n < 3:
        raise ValueError(f"supercompacted matrix needs rank >= 3, got {n}")
    m = [[0] * n for _ in range(n)]
    for i in range(1, n - 1):
        m[i - 1][i] = 1
    m[n - 3][n - 1] = 2
    for j in range(1, n + 1):
        m[n - 2][j - 1] = (2 * n - 3) if j < n else (2 * n - 4)
        m[n - 1][j - 1] = 1
    return IntMatrix(m)

"""Transition matrices of the interval maps attached to symmetric presentations.

For a rank-n symmetric presentation the circle at infinity splits into 2n
generator intervals, one per generator or inverse, and each generator interval
splits into 2n-1 subintervals (slots).  The induced boundary map sends every
subinterval onto a union of subintervals, and the 2n(2n-1) x 2n(2n-1)
transition matrix records which slot covers which.

Two independent constructions are provided and cross-checked in the tests:

* `build_markov_from_images` walks the image of every slot directly,
  using the combinatorial description of where each subinterval lands;
* `build_markov_from_blocks` assembles the matrix from a circulant template
  of (2n-1) x (2n-1) structural blocks.

For the orientation-reversing (non-orientable) presentation the block rows
at positions n and 2n act with reversed orientation: in the image route their
slot tables are mirrored, and in the block route every block in those rows is
premultiplied by the flip matrix J.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from itertools import chain

from .core import IntMatrix, mod1

__all__ = [
    "PresentationSpec",
    "BlockKind",
    "build_block",
    "build_markov_from_images",
    "build_markov_from_blocks",
    "reference_rows",
]


# =====================================================================
# Presentation data
# =====================================================================

@dataclass(frozen=True, slots=True)
class PresentationSpec:
    """A minimal symmetric presentation: rank n plus orientability.

    The orientable presentation exists geometrically only for even rank
    (genus n/2).  The defining index formulas of the orientable transition
    matrix still make sense for odd n, and the reduction identities hold for
    them; pass ``formal=True`` to construct that formal variant.  Everything
    user-facing (CLI, entropy reports) sticks to ``formal=False``.
    """

    n: int
    orientable: bool
    formal: bool = field(default=False, kw_only=True)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"rank must be >= 2, got {self.n}")
        if self.orientable and self.n % 2 == 1 and not self.formal:
            raise ValueError(
                f"orientable presentations require even rank, got n={self.n}"
            )

    @property
    def block_size(self) -> int:
        """Slots per generator interval: 2n - 1."""
        return 2 * self.n - 1

    @property
    def block_count(self) -> int:
        """Generator intervals: 2n."""
        return 2 * self.n

    @property
    def matrix_size(self) -> int:
        return self.block_size * self.block_count


# =====================================================================
# Structural blocks
# =====================================================================

@dataclass(frozen=True, slots=True)
class BlockKind:
    """One of the structural block shapes: T, JTJ, U(i), J, zero, identity."""

    name: str
    row: int | None = None

    _NAMES = ("T", "JTJ", "U", "J", "zero", "identity")

    def __post_init__(self) -> None:
        if self.name not in self._NAMES:
            raise ValueError(f"unknown block kind {self.name!r}")
        if self.name == "U":
            if self.row is None or self.row < 1:
                raise ValueError("U block needs a row index >= 1")
        elif self.row is not None:
            raise ValueError(f"block kind {self.name!r} takes no row index")

    @classmethod
    def T(cls) -> "BlockKind":
        return cls("T")

    @classmethod
    def JTJ(cls) -> "BlockKind":
        return cls("JTJ")

    @classmethod
    def U(cls, i: int) -> "BlockKind":
        return cls("U", i)

    @classmethod
    def J(cls) -> "BlockKind":
        return cls("J")

    @classmethod
    def zero(cls) -> "BlockKind":
        return cls("zero")

    @classmethod
    def identity(cls) -> "BlockKind":
        return cls("identity")


def _build_t(k: int) -> IntMatrix:
    # Row i <= h-3 has a single 1 on the superdiagonal; row h-2 covers the two
    # slots before the middle; row h-1 covers everything past the middle,
    # where h = (k+1)/2.  Rows h and beyond are zero.
    h = (k + 1) // 2
    rows = [[0] * k for _ in range(k)]
    for i in range(1, h - 2):
        rows[i - 1][i] = 1
    rows[h - 3][h - 2] = 1
    rows[h - 3][h - 1] = 1
    for j in range(h + 1, k + 1):
        rows[h - 2][j - 1] = 1
    return IntMatrix(rows)


def build_block(kind: BlockKind, k: int) -> IntMatrix:
    """The k x k structural block of the given kind.

    T and JTJ are only defined for odd k >= 5 (they encode the splitting of a
    generator interval, which always has an odd number of slots).  U(i) is the
    matrix whose row i is all ones, J the flip (anti-diagonal) involution.
    """
    if k < 1:
        raise ValueError(f"block size must be >= 1, got {k}")
    if kind.name in ("T", "JTJ"):
        if k < 5 or k % 2 == 0:
            raise ValueError(f"{kind.name} blocks require odd size >= 5, got {k}")
        t = _build_t(k)
        if kind.name == "T":
            return t
        return IntMatrix(
            [[t.rows[k - 1 - i][k - 1 - j] for j in range(k)] for i in range(k)]
        )
    if kind.name == "U":
        if kind.row > k:
            raise ValueError(f"U row {kind.row} out of range for size {k}")
        return IntMatrix(
            [[1] * k if i == kind.row - 1 else [0] * k for i in range(k)]
        )
    if kind.name == "J":
        return IntMatrix(
            [[1 if i + j == k - 1 else 0 for j in range(k)] for i in range(k)]
        )
    if kind.name == "zero":
        return IntMatrix.zeros(k)
    return IntMatrix.identity(k)


# =====================================================================
# Shared index plumbing
# =====================================================================

def _cyclic_range(a: int, b: int, m: int) -> list[int]:
    """Indices walking forward from mod1(a, m) to mod1(b, m) inclusive."""
    start = mod1(a, m)
    count = (mod1(b, m) - start) % m + 1
    return [mod1(start + t, m) for t in range(count)]


def _reversed_rows(spec: PresentationSpec) -> frozenset[int]:
    """Block rows acting with reversed orientation: n and 2n when non-orientable."""
    if spec.orientable:
        return frozenset()
    return frozenset((spec.n, 2 * spec.n))


# =====================================================================
# Route 1: direct slot images
# =====================================================================

def _slot_images(n: int, l: int, reversed_row: bool) -> list[list[tuple[int, list[int]]]]:
    """Images of the 2n-1 slots of block row l.

    Returns, for slot i (list index i-1), the covered targets as pairs
    (block index, covered slots in that block).  A full block shows up as all
    slots 1..2n-1.
    """
    r = 2 * n
    s = 2 * n - 1
    full = list(range(1, s + 1))
    ahead = mod1(l + n + 1, r)   # block reached from the left half
    behind = mod1(l + n - 1, r)  # block reached from the right half
    left_run = _cyclic_range(l + 1, l + n - 2, r)       # n-2 blocks
    right_run = _cyclic_range(l + n + 2, l - 1, r)      # n-2 blocks

    out: list[list[tuple[int, list[int]]]] = []
    for i in range(1, s + 1):
        if not reversed_row:
            if i <= n - 3:
                targets = [(ahead, [i + 1])]
            elif i == n - 2:
                targets = [(ahead, [n - 1, n])]
            elif i == n - 1:
                targets = [(ahead, list(range(n + 1, s + 1)))]
                targets += [(t, full) for t in right_run]
            elif i == n:
                targets = [(l, full)]
            elif i == n + 1:
                targets = [(t, full) for t in left_run]
                targets += [(behind, list(range(1, n)))]
            elif i == n + 2:
                targets = [(behind, [n, n + 1])]
            else:
                targets = [(behind, [i - 1])]
        else:
            # Mirror image: the reversed row sends slot i where the straight
            # row sends slot 2n-i, with left/right roles swapped.
            if i <= n - 3:
                targets = [(behind, [s - i])]
            elif i == n - 2:
                targets = [(behind, [n, n + 1])]
            elif i == n - 1:
                targets = [(behind, list(range(1, n)))]
                targets += [(t, full) for t in left_run]
            elif i == n:
                targets = [(l, full)]
            elif i == n + 1:
                targets = [(ahead, list(range(n + 1, s + 1)))]
                targets += [(t, full) for t in right_run]
            elif i == n + 2:
                targets = [(ahead, [n - 1, n])]
            else:
                targets = [(ahead, [s + 2 - i])]
        out.append(targets)
    return out


def build_markov_from_images(spec: PresentationSpec) -> IntMatrix:
    """Transition matrix assembled slot by slot from the image description."""
    n = spec.n
    if n < 3:
        raise ValueError(f"transition matrices need rank >= 3, got {n}")
    s = spec.block_size
    size = spec.matrix_size
    reversed_rows = _reversed_rows(spec)
    rows = [[0] * size for _ in range(size)]
    for l in range(1, spec.block_count + 1):
        images = _slot_images(n, l, l in reversed_rows)
        for i in range(1, s + 1):
            row = rows[(l - 1) * s + (i - 1)]
            for t, slots in images[i - 1]:
                base = (t - 1) * s
                for j in slots:
                    row[base + j - 1] = 1
    return IntMatrix._from_rows(tuple(map(tuple, rows)))


# =====================================================================
# Route 2: circulant block template
# =====================================================================

def _template_kinds(n: int, l: int) -> dict[int, BlockKind]:
    """Block kinds of row l of the straight (orientation-preserving) form."""
    r = 2 * n
    kinds: dict[int, BlockKind] = {mod1(l + n + 1, r): BlockKind.T()}
    for t in _cyclic_range(l + n + 2, l - 1, r):
        kinds[t] = BlockKind.U(n - 1)
    kinds[l] = BlockKind.U(n)
    for t in _cyclic_range(l + 1, l + n - 2, r):
        kinds[t] = BlockKind.U(n + 1)
    kinds[mod1(l + n - 1, r)] = BlockKind.JTJ()
    kinds[mod1(l + n, r)] = BlockKind.zero()
    assert len(kinds) == r, "block kinds must tile the whole block row"
    return kinds

def build_markov_from_blocks(spec: PresentationSpec) -> IntMatrix:
    """Transition matrix assembled from the circulant template of blocks.

    Every block row repeats the same template, shifted one block to the right
    per row; in the non-orientable case the two reversing rows (n and 2n) are
    premultiplied blockwise by the flip J, which reverses each block's rows.
    """
    n = spec.n
    if n < 3:
        raise ValueError(f"transition matrices need rank >= 3, got {n}")
    s = spec.block_size
    r = spec.block_count
    reversed_rows = _reversed_rows(spec)
    cache: dict[tuple[BlockKind, bool], tuple[tuple[int, ...], ...]] = {}

    def block_rows(kind: BlockKind, flipped: bool) -> tuple[tuple[int, ...], ...]:
        key = (kind, flipped)
        if key not in cache:
            blk = build_block(kind, s)
            cache[key] = (blk.reverse_rows() if flipped else blk).rows
        return cache[key]

    rows: list[tuple[int, ...]] = []
    for l in range(1, r + 1):
        kinds = _template_kinds(n, l)
        flipped = l in reversed_rows
        blocks = [block_rows(kinds[t], flipped) for t in range(1, r + 1)]
        for i in range(s):
            rows.append(tuple(chain.from_iterable(blk[i] for blk in blocks)))
    return IntMatrix._from_rows(tuple(rows))


# =====================================================================
# Reference data
# =====================================================================

_REFERENCE_FILES = {
    (4, True): "markov_rank4_orientable_rows1to3.txt",
    (3, False): "markov_rank3_nonorientable_rows1to3.txt",
}


def reference_rows(n: int, orientable: bool) -> list[list[int]]:
    """Frozen reference rows of the transition matrix (first three block rows).

    Available for (n=4, orientable) and (n=3, non-orientable).  Used by the
    verification battery and the test suite as ground truth for the
    constructions.
    """
    try:
        fname = _REFERENCE_FILES[(n, orientable)]
    except KeyError:
        raise ValueError(
            f"no reference data for n={n}, orientable={orientable}"
        ) from None
    text = resources.files("volentropy.data").joinpath(fname).read_text()
    rows = [[int(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    return rows

"""Transition matrices of the interval maps attached to symmetric presentations.

For a rank-n symmetric presentation the circle at infinity splits into 2n
generator intervals, one per generator or inverse, and each generator interval
splits into 2n-1 subintervals (slots).  The induced boundary map sends every
subinterval onto a union of subintervals, and the 2n(2n-1) x 2n(2n-1)
transition matrix records which slot covers which.

Two independent constructions are provided and cross-checked in the tests:

* `build_markov_from_images` writes each slot's image directly as runs of
  bits, from the combinatorial description of where each subinterval lands;
* `TransitionOperator` applies the circulant template of (2n-1) x (2n-1)
  structural blocks (T, JTJ, U(i), zero) to a vector without storing a
  matrix; `build_markov_from_blocks` reads the dense matrix off that
  operator, so the template is written once.

Both routes yield one bit mask per row, a block row of 2n-1 at a time
(`_image_masks`, `_block_masks`); `_from_masks` alone turns them into the 0/1
`IntMatrix`, so the routes agree iff their masks do.  `verify` compares and
collapses the block rows themselves, one at a time.
`core._check_matrix` refuses ranks below 3 and past 40 up front, through
`core._rank`, the one rank guard.

For the orientation-reversing (non-orientable) presentation the block rows
at positions n and 2n act with reversed orientation: every block in those
rows is premultiplied by the flip matrix J, which only reverses the order of
the row's slots.  The block route reverses the block row's output; the image
route reads the straight row's list of slot masks backwards.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import accumulate, chain

from .core import IntMatrix, _Frozen, _check_matrix, _flag, _int, _rank

__all__ = [
    "PresentationSpec",
    "BlockKind",
    "build_block",
    "build_markov_from_images",
    "build_markov_from_blocks",
    "TransitionOperator",
    "reference_rows",
]


# =====================================================================
# Presentation data
# =====================================================================

class PresentationSpec(_Frozen):
    """A minimal symmetric presentation: rank n plus orientability.

    The orientable presentation exists geometrically only for even rank
    (genus n/2).  The defining index formulas of the orientable transition
    matrix still make sense for odd n, and the reduction identities hold for
    them; pass ``formal=True`` to construct that formal variant.  Everything
    user-facing (CLI, entropy reports) sticks to ``formal=False``.  The rank
    passes `core._rank`: an int >= 2, stored as a plain int; both flags pass
    `core._flag`, so each must be True or False.
    """

    __slots__ = ("n", "orientable", "formal")

    def __init__(self, n: int, orientable: bool, *, formal: bool = False) -> None:
        n = _rank(n, 2, "a presentation")
        self._init(n, _flag(orientable, "orientable"), _flag(formal, "formal"))
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

class BlockKind(_Frozen):
    """One of the structural block shapes: T, JTJ, U(i), J, zero."""

    __slots__ = ("name", "row")

    _NAMES = ("T", "JTJ", "U", "J", "zero")

    def __init__(self, name: str, row: int | None = None) -> None:
        if name not in self._NAMES:
            raise ValueError(f"unknown block kind {name!r}")
        if name == "U":
            row = _int(row, "U row", 1)
        elif row is not None:
            raise ValueError(f"block kind {name!r} takes no row index")
        self._init(name, row)

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


def _build_t(k: int) -> IntMatrix:
    # Row i <= h-3 has a single 1 on the superdiagonal; row h-2 covers the two
    # slots before the middle; row h-1 covers everything past the middle,
    # where h = (k+1)/2.  Rows h and beyond are zero.
    h = (k + 1) // 2
    masks = [1 << i for i in range(1, h - 2)] + [3 << (h - 2), ((1 << (k - h)) - 1) << h]
    return _from_masks(masks + [0] * (k - h + 1), k)


def build_block(kind: BlockKind, k: int) -> IntMatrix:
    """The k x k structural block of the given kind.

    T and JTJ are only defined for odd k >= 5 (they encode the splitting of a
    generator interval, which always has an odd number of slots).  U(i) is the
    matrix whose row i is all ones, J the flip (anti-diagonal) involution.
    """
    k = _int(k, "block size", 1)
    if kind.name in ("T", "JTJ"):
        if k < 5 or k % 2 == 0:
            raise ValueError(f"{kind.name} blocks require odd size >= 5, got {k}")
        t = _build_t(k)
        if kind.name == "T":
            return t
        return t.reverse_rows().reverse_columns()
    if kind.name == "U":
        if kind.row > k:
            raise ValueError(f"U row {kind.row} out of range for size {k}")
        return _from_masks([(1 << k) - 1 if i == kind.row - 1 else 0 for i in range(k)], k)
    if kind.name == "J":
        return IntMatrix.identity(k).reverse_rows()
    return IntMatrix.zeros(k)


# =====================================================================
# Shared index plumbing
# =====================================================================

def _reversed_rows(spec: PresentationSpec) -> frozenset[int]:
    """0-based block rows acting with reversed orientation: n-1 and 2n-1 when non-orientable."""
    if spec.orientable:
        return frozenset()
    return frozenset((spec.n - 1, 2 * spec.n - 1))


def _check_matrix_rank(n: int) -> None:
    _check_matrix(n, 2 * n * (2 * n - 1), "transition matrix")


# Maps the characters of a binary numeral to the 0/1 byte values.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _from_masks(masks: Iterable[int], size: int) -> IntMatrix:
    """The 0/1 matrix whose row i has a 1 in column j iff bit j of masks[i] is set."""
    fmt = f"0{size}b"
    return IntMatrix._from_rows(
        tuple(tuple(format(m, fmt)[::-1].encode().translate(_BITS)) for m in masks)
    )


# =====================================================================
# Route 1: direct slot images
# =====================================================================

def _image_masks(spec: PresentationSpec) -> Iterator[list[int]]:
    """The bit masks of the rows from the image description, one block row
    (2n-1 masks) at a time.  Block b holds bits from (b-1)(2n-1), so each
    slot's image is a few runs of bits shifted into place, a run of full
    blocks past block 2n folded back to block 1.  J on a reversed row's blocks
    only reverses its slots: the straight row's list backwards."""
    n = spec.n
    _check_matrix_rank(n)
    s, r = spec.block_size, spec.block_count
    size, full, tail = r * s, (1 << s) - 1, (1 << n - 1) - 1  # tail: n-1 slots
    reversed_rows = _reversed_rows(spec)

    def blocks(first: int) -> int:  # the n-2 full blocks from 0-based block `first`
        run = ((1 << (n - 2) * s) - 1) << first * s
        return (run & (1 << size) - 1) | run >> size

    for l in range(r):  # 0-based: block row l+1
        ahead, behind = (l + n + 1) % r * s, (l + n - 1) % r * s
        row = [1 << ahead + i for i in range(1, n - 2)]  # slot i <= n-3: ahead's slot i+1
        row += [3 << ahead + n - 2,  # slot n-2: ahead's slots n-1, n
                tail << ahead + n | blocks((l + n + 2) % r),  # n-1: ahead's n+1.., blocks l+n+2..l-1
                full << l * s,  # slot n: all of block l
                blocks((l + 1) % r) | tail << behind,  # n+1: blocks l+1..l+n-2, behind's 1..n-1
                3 << behind + n - 1]  # slot n+2: behind's slots n, n+1
        row += [1 << behind + n + i for i in range(1, n - 2)]  # slot n+2+i: behind's n+1+i
        yield row[::-1] if l in reversed_rows else row


def build_markov_from_images(spec: PresentationSpec) -> IntMatrix:
    """Transition matrix assembled slot by slot from the image description."""
    return _from_masks(chain.from_iterable(_image_masks(spec)), spec.matrix_size)


# =====================================================================
# Route 2: circulant block template
# =====================================================================

def _block_masks(spec: PresentationSpec) -> Iterator[list[int]]:
    """One bit mask per row, a block row at a time: `TransitionOperator` on the
    bit basis, built a block at a time.  Column j goes in as the bit 1 << j, so
    block k is the s bits from k s and its sum a run of s bits.  M is 0/1 and
    each row sums distinct columns, so no sum carries: output i is the bit
    mask of row i's support."""
    op, s = TransitionOperator(spec), spec.block_size  # the operator refuses the rank first
    sums = [((1 << s) - 1) << k * s for k in range(spec.block_count)]
    return op._block_rows(lambda k: [1 << k * s + i for i in range(s)], sums)


def build_markov_from_blocks(spec: PresentationSpec) -> IntMatrix:
    """Transition matrix read off `TransitionOperator` applied to the basis."""
    return _from_masks(chain.from_iterable(_block_masks(spec)), spec.matrix_size)


class TransitionOperator:
    """The circulant block template as a matrix-free map v -> M v, exact on ints.

    Block row l holds T at block l+n+1, JTJ at l+n-1, U(n) at l, U(n-1) on
    l+n+2..l-1, U(n+1) on l+1..l+n-2 and zero at l+n; the reversing rows are
    flipped by J.  T and JTJ act on their blocks of v by slicing.  Each U(k)
    block adds its block's sum to slot k, so the U runs are differences of
    cyclic prefix sums of the 2n block sums: O(n^2) a product.  `apply` and
    `_block_masks` share the block-row loop, `_block_rows`.
    """

    def __init__(self, spec: PresentationSpec):
        _check_matrix_rank(spec.n)
        self.spec, self.size = spec, spec.matrix_size
        self._reversed = _reversed_rows(spec)

    def apply(self, v: list) -> list:
        """M v, for a list v of `size` ints or floats."""
        if len(v) != self.size:
            raise ValueError(f"vector has {len(v)} entries, the operator needs {self.size}")
        s = self.spec.block_size
        blocks = [v[b : b + s] for b in range(0, self.size, s)]
        return list(chain.from_iterable(self._block_rows(blocks.__getitem__, [sum(x) for x in blocks])))

    def _block_rows(self, block: Callable[[int], list], sums: list) -> Iterator[list]:
        """The block rows of M v, one at a time, where `block(k)` is v's 0-based
        block k and `sums` holds the 2n block sums."""
        n, s, r = self.spec.n, self.spec.block_size, self.spec.block_count
        prefix = list(accumulate(sums + sums, initial=0))
        for b in range(r):
            x, y = block((b + n + 1) % r), block((b + n - 1) % r)
            right = prefix[b + 2 * n] - prefix[b + n + 2]  # U(n-1): blocks b+n+2..b-1
            left = prefix[b + n - 1] - prefix[b + 1]  # U(n+1): blocks b+1..b+n-2
            row = x[1 : n - 2] + [x[n - 2] + x[n - 1], sum(x[n:]) + right, sums[b]]
            row += [sum(y[: n - 1]) + left, y[n - 1] + y[n]] + y[n + 1 : s - 1]
            yield row[::-1] if b in self._reversed else row


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
    fname = _REFERENCE_FILES.get((_rank(n), _flag(orientable, "orientable")))
    if fname is None:
        raise ValueError(f"no reference data for n={n}, orientable={orientable}")
    # This module's loader reads the file beside it, from a directory or a
    # zip archive, and imports nothing.
    text = __spec__.loader.get_data(f"{__file__.rpartition('markov.')[0]}data/{fname}").decode()
    return [[int(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]

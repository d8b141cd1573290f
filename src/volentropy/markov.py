"""Transition matrices of the interval maps attached to symmetric presentations.

For a rank-n symmetric presentation the circle at infinity splits into 2n
generator intervals, one per generator or inverse, and each generator interval
splits into 2n-1 subintervals (slots).  The induced boundary map sends every
subinterval onto a union of subintervals, and the 2n(2n-1) x 2n(2n-1)
transition matrix records which slot covers which.

Two independent constructions are provided and cross-checked in the tests:

* `build_markov_from_images` walks the image of every slot directly,
  using the combinatorial description of where each subinterval lands;
* `TransitionOperator` applies the circulant template of (2n-1) x (2n-1)
  structural blocks (T, JTJ, U(i), zero) to a vector without storing a
  matrix, for power iteration; `build_markov_from_blocks` reads the dense
  matrix off that operator, so the template is written once.

Both routes end in one bit mask per row (`_image_masks`, `_block_masks`),
which `_from_masks` alone turns into the 0/1 `IntMatrix`, so the routes agree
iff their masks do; `verify` compares and collapses the masks themselves.
`core._check_matrix` refuses ranks below 3 and past 40 up front.

For the orientation-reversing (non-orientable) presentation the block rows
at positions n and 2n act with reversed orientation: every block in those
rows is premultiplied by the flip matrix J, which only reverses the order of
the row's slots.  The block route reverses the block row's output; the image
route reads the straight row's slot list backwards.
"""

from __future__ import annotations

from itertools import accumulate

from .core import IntMatrix, _Frozen, _check_matrix, _ints, mod1

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
    user-facing (CLI, entropy reports) sticks to ``formal=False``.
    """

    __slots__ = ("n", "orientable", "formal")

    def __init__(self, n: int, orientable: bool, *, formal: bool = False) -> None:
        self._init(_ints((n,))[0], orientable, formal)
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

class BlockKind(_Frozen):
    """One of the structural block shapes: T, JTJ, U(i), J, zero, identity."""

    __slots__ = ("name", "row")

    _NAMES = ("T", "JTJ", "U", "J", "zero", "identity")

    def __init__(self, name: str, row: int | None = None) -> None:
        self._init(name, row)
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
    masks = [1 << i for i in range(1, h - 2)] + [3 << (h - 2), ((1 << (k - h)) - 1) << h]
    return _from_masks(masks + [0] * (k - h + 1), k)


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
        return t.reverse_rows().reverse_columns()
    if kind.name == "U":
        if kind.row > k:
            raise ValueError(f"U row {kind.row} out of range for size {k}")
        return _from_masks([(1 << k) - 1 if i == kind.row - 1 else 0 for i in range(k)], k)
    if kind.name == "J":
        return IntMatrix.identity(k).reverse_rows()
    if kind.name == "zero":
        return IntMatrix.zeros(k)
    return IntMatrix.identity(k)


# =====================================================================
# Shared index plumbing
# =====================================================================

def _reversed_rows(spec: PresentationSpec) -> frozenset[int]:
    """Block rows acting with reversed orientation: n and 2n when non-orientable."""
    if spec.orientable:
        return frozenset()
    return frozenset((spec.n, 2 * spec.n))


def _check_matrix_rank(n: int) -> None:
    _check_matrix(n, 2 * n * (2 * n - 1), "transition matrix")


# Maps the characters of a binary numeral to the 0/1 byte values.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _from_masks(masks: list[int], size: int) -> IntMatrix:
    """The 0/1 matrix whose row i has a 1 in column j iff bit j of masks[i] is set."""
    fmt = f"0{size}b"
    return IntMatrix._from_rows(
        tuple(tuple(format(m, fmt)[::-1].encode().translate(_BITS)) for m in masks)
    )


# =====================================================================
# Route 1: direct slot images
# =====================================================================

def _slot_images(n: int, l: int, reversed_row: bool) -> list[list[tuple[int, range]]]:
    """Images of the 2n-1 slots of block row l.

    Returns, for slot i (list index i-1), the covered targets as pairs
    (block index, covered slots in that block).  Every target is one run of
    slots, and a full block shows up as slots 1..2n-1.  J on every block of
    a reversed row only reverses the row's slots, so its slot i sends where
    the straight row sends slot 2n-i: the same list read backwards.
    """
    r = 2 * n
    s = 2 * n - 1
    full = range(1, s + 1)
    ahead = mod1(l + n + 1, r)   # block reached from the left half
    behind = mod1(l + n - 1, r)  # block reached from the right half
    left_run = [mod1(l + k, r) for k in range(1, n - 1)]       # blocks l+1..l+n-2
    right_run = [mod1(l + k, r) for k in range(n + 2, 2 * n)]  # blocks l+n+2..l-1

    out: list[list[tuple[int, range]]] = []
    for i in range(1, s + 1):
        if i <= n - 3:
            targets = [(ahead, range(i + 1, i + 2))]
        elif i == n - 2:
            targets = [(ahead, range(n - 1, n + 1))]
        elif i == n - 1:
            targets = [(ahead, range(n + 1, s + 1))]
            targets += [(t, full) for t in right_run]
        elif i == n:
            targets = [(l, full)]
        elif i == n + 1:
            targets = [(t, full) for t in left_run]
            targets += [(behind, range(1, n))]
        elif i == n + 2:
            targets = [(behind, range(n, n + 2))]
        else:
            targets = [(behind, range(i - 1, i))]
        out.append(targets)
    return out[::-1] if reversed_row else out


def _image_masks(spec: PresentationSpec) -> list[int]:
    """One bit mask per row from the image description: a row's mask sums one
    run of bits per target, and the targets are disjoint."""
    n = spec.n
    _check_matrix_rank(n)
    s = spec.block_size
    reversed_rows = _reversed_rows(spec)
    return [
        sum(((1 << len(run)) - 1) << ((t - 1) * s + run.start - 1) for t, run in targets)
        for l in range(1, spec.block_count + 1)
        for targets in _slot_images(n, l, l in reversed_rows)
    ]


def build_markov_from_images(spec: PresentationSpec) -> IntMatrix:
    """Transition matrix assembled slot by slot from the image description."""
    return _from_masks(_image_masks(spec), spec.matrix_size)


# =====================================================================
# Route 2: circulant block template
# =====================================================================

def _block_masks(spec: PresentationSpec) -> list[int]:
    """One bit mask per row: `TransitionOperator` applied to the basis.

    Column j goes in as the bit 1 << j.  M is 0/1 and each row sums distinct
    columns, so no sum carries: output i is the bit mask of row i's support.
    """
    return TransitionOperator(spec).apply([1 << j for j in range(spec.matrix_size)])


def build_markov_from_blocks(spec: PresentationSpec) -> IntMatrix:
    """Transition matrix read off `TransitionOperator` applied to the basis."""
    return _from_masks(_block_masks(spec), spec.matrix_size)


class TransitionOperator:
    """The circulant block template as a matrix-free map v -> M v, exact on ints.

    Block row l holds T at block l+n+1, JTJ at l+n-1, U(n) at l, U(n-1) on
    l+n+2..l-1, U(n+1) on l+1..l+n-2 and zero at l+n; the reversing rows are
    flipped by J.  T and JTJ act on their blocks of v by slicing.  Each U(k)
    block adds its block's sum to slot k, so the U runs are differences of
    cyclic prefix sums of the 2n block sums: O(n^2) a product.
    """

    def __init__(self, spec: PresentationSpec):
        _check_matrix_rank(spec.n)
        self.spec, self.size = spec, spec.matrix_size
        self._reversed = {l - 1 for l in _reversed_rows(spec)}

    def apply(self, v: list) -> list:
        """M v, for a list v of `size` ints or floats."""
        n, s, r = self.spec.n, self.spec.block_size, self.spec.block_count
        blocks = [v[b : b + s] for b in range(0, self.size, s)]
        sums = [sum(x) for x in blocks]
        prefix = list(accumulate(sums + sums, initial=0))
        out: list = []
        for b in range(r):
            x, y = blocks[(b + n + 1) % r], blocks[(b + n - 1) % r]
            right = prefix[b + 2 * n] - prefix[b + n + 2]  # U(n-1): blocks b+n+2..b-1
            left = prefix[b + n - 1] - prefix[b + 1]  # U(n+1): blocks b+1..b+n-2
            row = x[1 : n - 2] + [x[n - 2] + x[n - 1], sum(x[n:]) + right, sums[b]]
            row += [sum(y[: n - 1]) + left, y[n - 1] + y[n]] + y[n + 1 : s - 1]
            out += row[::-1] if b in self._reversed else row
        return out


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
    from importlib import resources
    text = resources.files("volentropy.data").joinpath(fname).read_text()
    rows = [[int(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]
    return rows

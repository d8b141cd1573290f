"""The reduction chain: block views, circulant collapse, closed-form matrices."""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from volentropy.core import IntMatrix, IntPolynomial, _check_matrix, format_blocks, poly_eval
from volentropy.entropy import lambda_n
from volentropy.markov import (
    BlockKind,
    PresentationSpec,
    TransitionOperator,
    _block_masks,
    _from_masks,
    _image_masks,
    build_block,
    build_markov_from_blocks,
)
from volentropy.reductions import (
    BlockView,
    check_J_commutation,
    compacted_matrix,
    _block_row_pass,
    _first_mask_difference,
    _perron_profile,
    _spectrum_split_failure,
    _sum_block_row,
    divided_compacted_matrix,
    sum_first_block_row,
    super_compacted_matrix,
)
from volentropy.rome import q_polynomial
from volentropy.spectral import _apply, char_poly_exact

C3 = IntMatrix(
    [
        [0, 1, 1, 0, 0],
        [1, 1, 1, 2, 2],
        [1, 1, 1, 1, 1],
        [2, 2, 1, 1, 1],
        [0, 0, 1, 1, 0],
    ]
)

DC3 = IntMatrix(
    [
        [0, 1, 1, 1, 0, 0],
        [1, 1, 1, 1, 2, 2],
        [1, 1, 1, 0, 0, 0],
        [0, 0, 0, 1, 1, 1],
        [2, 2, 1, 1, 1, 1],
        [0, 0, 1, 1, 1, 0],
    ]
)

SC3 = IntMatrix([[0, 1, 2], [3, 3, 2], [1, 1, 1]])


def plus_form(n: int) -> PresentationSpec:
    return PresentationSpec(n, True, formal=True)


# ---------------------------------------------------------------- BlockView

def test_block_view_validation():
    m = IntMatrix.identity(6)
    BlockView(m, 2, 3)
    BlockView(m, 3, 2)
    BlockView(m, 6, 1)
    with pytest.raises(ValueError):
        BlockView(m, 4, 2)
    with pytest.raises(ValueError):
        BlockView(m, 0, 6)


def test_block_view_extraction():
    m = IntMatrix([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]])
    v = BlockView(m, 2, 2)
    assert v.block(1, 1) == IntMatrix([[1, 2], [5, 6]])
    assert v.block(2, 1) == IntMatrix([[9, 10], [13, 14]])
    assert v.block(2, 2) == IntMatrix([[11, 12], [15, 16]])
    with pytest.raises(IndexError):
        v.block(3, 1)


# ---------------------------------------------------------------- circulant

def to_masks(m: IntMatrix) -> list[int]:
    """Row masks of a 0/1 matrix: bit j of mask i is entry (i+1, j+1)."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in m.rows]


def blocks_masks(spec: PresentationSpec) -> list[int]:
    """The blocks route's row masks as one list, a mask a row."""
    return [mask for row in _block_masks(spec) for mask in row]


def block_rows(masks: list[int], s: int) -> list[list[int]]:
    """Row masks cut into block rows of s masks, as the routes yield them."""
    return [masks[b : b + s] for b in range(0, len(masks), s)]


def row_pass(masks: list[int], s: int) -> tuple[list[int], bool, bool]:
    """(first block row, circulant, disoriented) from `_block_row_pass` over
    one matrix's block rows, given as both routes."""
    rows = block_rows(masks, s)
    difference, first, circulant, disoriented = _block_row_pass(rows, rows, len(masks))
    assert difference == ""
    return first, circulant, disoriented


def route_pass(spec: PresentationSpec) -> tuple[list[int], bool, bool]:
    """`row_pass` over the blocks and images routes of a presentation."""
    difference, *rest = _block_row_pass(_block_masks(spec), _image_masks(spec), spec.matrix_size)
    assert difference == ""
    return tuple(rest)


def parallelization(masks: list[int], s: int) -> list[int]:
    """The plain circulant matrix that the first block row generates: block
    row b has each first-row mask rotated left by b bits in N = len(masks)."""
    size, full = len(masks), (1 << len(masks)) - 1
    return [(f << b | f >> (size - b)) & full for b in range(0, size, s) for f in masks[:s]]


@pytest.mark.parametrize("n", range(3, 8))
def test_plus_form_is_block_circulant(n):
    _, circulant, _ = route_pass(plus_form(n))
    assert circulant


def test_minus_form_is_not_block_circulant():
    _, circulant, _ = route_pass(PresentationSpec(3, False))
    assert not circulant


def test_unequal_diagonal_blocks_are_not_circulant():
    # Block diagonal diag(I, 0): the circulant continuation of the first
    # block row (I 0) demands I again at block (2, 2), but 0 sits there.
    rows = [[int(i == j < 3) for j in range(6)] for i in range(6)]
    assert not row_pass(to_masks(IntMatrix(rows)), 3)[1]
    # Equal diagonal blocks, by contrast, do continue the template.
    assert row_pass(to_masks(IntMatrix.identity(6)), 3)[1]
    # ...but as 1x1 blocks of size 6 it trivially is.
    assert row_pass(to_masks(IntMatrix.identity(6)), 6)[1]


@pytest.mark.parametrize("n", range(3, 10))
def test_first_block_row_sums_to_compacted(n):
    m = build_markov_from_blocks(plus_form(n))
    assert sum_first_block_row(BlockView(m, 2 * n, 2 * n - 1)) == compacted_matrix(n)


@pytest.mark.parametrize("n", range(3, 10))
def test_minus_first_block_row_sums_to_compacted(n):
    # Block row 1 is unreflected in the reversing form, so the collapse
    # lands on the same compacted matrix.
    m = build_markov_from_blocks(PresentationSpec(n, False))
    assert sum_first_block_row(BlockView(m, 2 * n, 2 * n - 1)) == compacted_matrix(n)


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("orientable", [True, False])
def test_first_block_row_masks_sum_to_compacted(n, orientable):
    spec = PresentationSpec(n, orientable, formal=True)
    first, _, _ = route_pass(spec)
    assert _sum_block_row(first, spec.matrix_size) == compacted_matrix(n)


RANK3_MASKS = blocks_masks(PresentationSpec(3, False))


@pytest.mark.parametrize(
    "masks, s, message",
    [
        pytest.param(masks, s, message, id=f"{s}-{message}")
        for masks, s, message in [
            (RANK3_MASKS, 3.0, "block size must be an int, got 3.0"),
            (RANK3_MASKS, None, "block size must be an int, got None"),
            (RANK3_MASKS, 0, "block size must be >= 1, got 0"),
            (RANK3_MASKS, 4, "block size 4 does not divide matrix size 30"),
            ([], 1, "matrix size must be >= 1, got 0"),
        ]
    ],
)
def test_mask_helpers_refuse_a_block_size_like_format_blocks(masks, s, message):
    # format_blocks' guard, on the matrix that `_from_masks` spells from the
    # masks; with no masks, one with no rows.
    with pytest.raises(ValueError, match=f"^{message}$"):
        format_blocks(_from_masks(masks, len(masks)), s)


@given(st.data())
def test_route_difference_is_the_first_difference_of_the_flat_masks(data):
    # The images route with one bit flipped or cut short, or the blocks route
    # cut short: the pass reports where the flat lists first differ, 1-based
    # and global, or their sizes, and reads the first block row of blocks.
    r, s = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    size = r * s
    blocks = data.draw(st.lists(st.integers(0, (1 << size) - 1), min_size=size, max_size=size))
    images = list(blocks)
    change = data.draw(st.sampled_from(["none", "flip", "cut images", "cut blocks"]))
    if change == "flip":
        images[data.draw(st.integers(0, size - 1))] ^= 1 << data.draw(st.integers(0, size - 1))
    elif change == "cut images":
        images = images[: data.draw(st.integers(0, r - 1)) * s]
    elif change == "cut blocks":
        blocks = blocks[: data.draw(st.integers(0, r - 1)) * s]
    difference, first, _, _ = _block_row_pass(block_rows(blocks, s), block_rows(images, s), size)
    assert difference == _first_mask_difference(images, blocks)
    assert (difference == "") == (change == "none")
    assert first == (blocks[:s] or None)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("orientable", [True, False])
def test_route_difference_names_every_flipped_cell_and_every_cut(n, orientable):
    # Every bit of every images-route row flipped in turn (8072 flips over
    # n = 3, 4 and both presentations): the pass names that 1-based cell, the
    # images' bit first.  Either route cut after k block rows: the row totals.
    spec = PresentationSpec(n, orientable, formal=True)
    blocks, images = list(_block_masks(spec)), list(_image_masks(spec))
    size, s = spec.matrix_size, spec.block_size
    for i in range(size):
        b, k = divmod(i, s)
        for j in range(size):
            flipped = list(images)
            flipped[b] = [*images[b][:k], images[b][k] ^ 1 << j, *images[b][k + 1 :]]
            bit = blocks[b][k] >> j & 1
            difference = _block_row_pass(blocks, flipped, size)[0]
            assert difference == f"first difference at ({i + 1},{j + 1}): {1 - bit} vs {bit}"
    for k in range(2 * n):
        assert _block_row_pass(blocks, images[:k], size)[0] == f"sizes differ: {k * s} vs {size}"
        assert _block_row_pass(blocks[:k], images, size)[0] == f"sizes differ: {size} vs {k * s}"


# ---------------------------------------------------------------- disoriented

@pytest.mark.parametrize("n", range(3, 8))
def test_minus_form_is_disoriented_with_plus_parallelization(n):
    _, _, disoriented = route_pass(PresentationSpec(n, False))
    assert disoriented
    assert parallelization(blocks_masks(PresentationSpec(n, False)), 2 * n - 1) == blocks_masks(plus_form(n))


def test_plus_form_is_disoriented_with_itself():
    masks = blocks_masks(PresentationSpec(4, True))
    assert row_pass(masks, 7)[2]
    assert parallelization(masks, 7) == masks


def test_disoriented_rejects_scrambled_matrix():
    masks = blocks_masks(PresentationSpec(3, False))
    masks[7], masks[8] = masks[8], masks[7]  # break one block row's structure
    assert not row_pass(masks, 5)[2]


def reference_disoriented(view: BlockView) -> tuple[bool, IntMatrix | None]:
    # Block by block: block row i must be the circulant continuation of block
    # row 1, or that continuation with every block premultiplied by J.
    r, s = view.block_count, view.block_size
    rows = []
    for i in range(1, r + 1):
        straight = [view.block(1, (j - i) % r + 1) for j in range(1, r + 1)]
        actual = [view.block(i, j) for j in range(1, r + 1)]
        if actual not in (straight, [blk.reverse_rows() for blk in straight]):
            return False, None
        rows += [[v for blk in straight for v in blk.rows[a]] for a in range(s)]
    return True, IntMatrix(rows)


def reference_circulant(view: BlockView) -> bool:
    r = view.block_count
    return all(
        view.block(i, j) == view.block(1, (j - i) % r + 1)
        for i in range(1, r + 1)
        for j in range(1, r + 1)
    )


@st.composite
def disoriented_views(draw) -> BlockView:
    # A 0/1 matrix whose block row i is the first block row rotated i blocks,
    # flipped by J when flips[i] is set; sometimes one bit is flipped, so
    # every answer occurs.  Palindromic and repeated blocks occur at small s.
    r = draw(st.integers(1, 4))
    s = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, 1), min_size=s, max_size=s)
    block = st.lists(row, min_size=s, max_size=s)
    blocks = draw(st.lists(block, min_size=r, max_size=r))
    flips = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    rows = []
    for i in range(r):
        row_blocks = [blocks[(j - i) % r] for j in range(r)]
        if flips[i]:
            row_blocks = [blk[::-1] for blk in row_blocks]
        rows += [[v for blk in row_blocks for v in blk[a]] for a in range(s)]
    if draw(st.booleans()):
        a, b = draw(st.integers(0, r * s - 1)), draw(st.integers(0, r * s - 1))
        rows[a][b] ^= 1
    return BlockView(IntMatrix(rows), r, s)


@given(disoriented_views())
def test_circulant_pass_matches_block_by_block_reference(view):
    masks, s = to_masks(view.matrix), view.block_size
    first, circulant, disoriented = row_pass(masks, s)
    ok, para = reference_disoriented(view)
    assert disoriented == ok
    if ok:
        assert parallelization(masks, s) == to_masks(para)
    assert circulant == reference_circulant(view)
    assert _sum_block_row(first, len(masks)) == sum_first_block_row(view)


@given(disoriented_views())
def test_in_place_circulance_matches_the_parallelization(view):
    # The former definition: disoriented block circulant, with the plain
    # circulant parallelization equal to the matrix itself.
    masks, s = to_masks(view.matrix), view.block_size
    _, circulant, disoriented = row_pass(masks, s)
    assert circulant == (disoriented and parallelization(masks, s) == masks)


def test_check_J_commutation():
    for n in range(3, 11):
        assert check_J_commutation(compacted_matrix(n))
    assert check_J_commutation(build_block(BlockKind.J(), 5))
    assert check_J_commutation(IntMatrix.identity(4))
    assert not check_J_commutation(build_block(BlockKind.U(1), 3))


# The flip J is a permutation, so the code applies it as an index reversal
# instead of a matrix product; these pin each shortcut to the real product.
square_matrices = st.integers(1, 6).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(-9, 9), min_size=k, max_size=k), min_size=k, max_size=k
    )
).map(IntMatrix)


@given(square_matrices)
def test_row_reversal_is_premultiplication_by_J(m):
    assert m.reverse_rows() == build_block(BlockKind.J(), m.size) * m


@given(square_matrices)
def test_column_reversal_is_postmultiplication_by_J(m):
    assert m.reverse_columns() == m * build_block(BlockKind.J(), m.size)


@given(square_matrices, st.booleans())
def test_J_commutation_matches_the_products(m, symmetrize):
    j = build_block(BlockKind.J(), m.size)
    if symmetrize:
        m = m + j * m * j  # invariant under the half turn, so commutes with J
    assert check_J_commutation(m) == (m * j == j * m)
    if symmetrize:
        assert check_J_commutation(m)


# ---------------------------------------------------------------- closed forms

def test_compacted_rank_3_pinned():
    assert compacted_matrix(3) == C3


def test_compacted_rank_4_pinned():
    assert compacted_matrix(4) == IntMatrix(
        [
            [0, 1, 0, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, 0],
            [2, 2, 2, 2, 3, 3, 3],
            [1, 1, 1, 1, 1, 1, 1],
            [3, 3, 3, 2, 2, 2, 2],
            [0, 0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 0],
        ]
    )


@pytest.mark.parametrize("n", range(3, 11))
def test_compacted_equals_block_sum(n):
    s = 2 * n - 1
    side = build_block(BlockKind.U(n - 1), s) + build_block(BlockKind.U(n + 1), s)
    total = sum(
        [side] * (n - 2),
        build_block(BlockKind.T(), s) + build_block(BlockKind.JTJ(), s) + build_block(BlockKind.U(n), s),
    )
    assert total == compacted_matrix(n)


def test_divided_rank_3_pinned():
    assert divided_compacted_matrix(3) == DC3


@pytest.mark.parametrize("n", range(3, 9))
def test_divided_middle_rows_are_indicators(n):
    d = divided_compacted_matrix(n)
    assert d.rows[n - 1] == (1,) * n + (0,) * n
    assert d.rows[n] == (0,) * n + (1,) * n


@pytest.mark.parametrize("n", range(3, 9))
def test_divided_is_centrally_symmetric(n):
    d = divided_compacted_matrix(n)
    j = build_block(BlockKind.J(), 2 * n)
    assert j * d * j == d


@pytest.mark.parametrize("n", range(3, 9))
def test_divided_collapses_back_to_compacted(n):
    # The divided matrix duplicates the compacted middle column and splits
    # the compacted middle row: dropping one duplicate column and summing the
    # two indicator rows recovers the compacted matrix exactly.
    d = divided_compacted_matrix(n)
    c = compacted_matrix(n)

    def drop_middle_column(row: tuple[int, ...]) -> list[int]:
        return list(row[:n]) + list(row[n + 1 :])

    for i in range(1, 2 * n):
        expected = [c.entry(i, j) for j in range(1, 2 * n)]
        if i == n:
            summed = tuple(a + b for a, b in zip(d.rows[n - 1], d.rows[n]))
            assert drop_middle_column(summed) == expected
        else:
            di = i - 1 if i < n else i  # 0-based row in d, skipping the split pair
            row = d.rows[di]
            assert row[n - 1] == row[n], (n, i)  # duplicated middle column
            assert drop_middle_column(row) == expected


def test_supercompacted_rank_3_pinned():
    assert super_compacted_matrix(3) == SC3


def test_supercompacted_rank_4_pinned():
    assert super_compacted_matrix(4) == IntMatrix(
        [[0, 1, 0, 0], [0, 0, 1, 2], [5, 5, 5, 4], [1, 1, 1, 1]]
    )


@pytest.mark.parametrize("n", range(3, 11))
def test_fold_identity(n):
    # D11 + D12 * J: folding the divided matrix along its central symmetry.
    d = divided_compacted_matrix(n)
    view = BlockView(d, 2, n)
    j = build_block(BlockKind.J(), n)
    assert view.block(1, 1) + view.block(1, 2) * j == super_compacted_matrix(n)


@pytest.mark.parametrize("n", range(3, 11))
def test_conjugating_by_central_flip_pairs_the_blocks(n):
    # With Z = diag(I, J), the matrix Z * DC * Z has equal diagonal blocks
    # D11 and equal off-diagonal blocks D12 * J.
    d = divided_compacted_matrix(n)
    view = BlockView(d, 2, n)
    ident = IntMatrix.identity(n)
    j = build_block(BlockKind.J(), n)
    z_rows = []
    for i in range(n):
        z_rows.append(list(ident.rows[i]) + [0] * n)
    for i in range(n):
        z_rows.append([0] * n + list(j.rows[i]))
    z = IntMatrix(z_rows)
    conj = z * d * z
    cview = BlockView(conj, 2, n)
    d11, d12 = view.block(1, 1), view.block(1, 2)
    assert cview.block(1, 1) == d11
    assert cview.block(2, 2) == d11
    assert cview.block(1, 2) == d12 * j
    assert cview.block(2, 1) == d12 * j


@pytest.mark.parametrize("n", range(3, 25))
def test_spectrum_split_identity(n):
    lhs = char_poly_exact(divided_compacted_matrix(n))
    rhs = char_poly_exact(compacted_matrix(n)) * IntPolynomial([-1, 1])
    assert lhs == rhs


def test_spectrum_split_certificate_holds_for_the_closed_forms():
    for n in range(3, 301):
        assert _spectrum_split_failure(divided_compacted_matrix(n), compacted_matrix(n)) == ""


@pytest.mark.parametrize("n", [3, 4, 7])
def test_spectrum_split_certificate_rejects_a_unit_moved_between_the_middle_rows(n):
    # The unit at (n, n) moved down to (n+1, n): rows n and n+1 still sum to
    # the doubled middle row, but d(e_n - e_{n+1}) = 0, not e_n - e_{n+1}.
    rows = [list(row) for row in divided_compacted_matrix(n).rows]
    rows[n - 1][n - 1] -= 1
    rows[n][n - 1] += 1
    assert _spectrum_split_failure(IntMatrix(rows), compacted_matrix(n)) == (
        f"e_{n} - e_{n + 1} is not an eigenvector for 1: column {n} minus column {n + 1}, "
        f"first difference at ({n},1): 0 vs 1"
    )


@pytest.mark.parametrize("n", [3, 4, 7])
def test_spectrum_split_certificate_rejects_a_changed_compacted_entry(n):
    rows = [list(row) for row in compacted_matrix(n).rows]
    rows[n][1] += 1  # row n+1, column 2: columns of the doubled row keep their place
    got = _spectrum_split_failure(divided_compacted_matrix(n), IntMatrix(rows))
    assert got == f"first difference at ({n + 1},2): {rows[n][1] - 1} vs {rows[n][1]}"


@pytest.mark.parametrize("n", [3, 4, 7])
def test_spectrum_split_certificate_rejects_a_changed_doubled_entry(n):
    # Row 1 of d carries the compacted middle column twice, at n and n+1;
    # raising the second copy breaks S d = c S at (1, n+1).
    d = divided_compacted_matrix(n)
    rows = [list(row) for row in d.rows]
    rows[0][n] += 1
    got = _spectrum_split_failure(IntMatrix(rows), compacted_matrix(n))
    assert got == f"first difference at (1,{n + 1}): {rows[0][n]} vs {rows[0][n] - 1}"


def test_spectrum_split_certificate_rejects_mismatched_sizes():
    assert _spectrum_split_failure(DC3, C3) == ""
    assert _spectrum_split_failure(DC3, SC3) == "sizes differ: 6 vs 3 + 1"
    assert _spectrum_split_failure(C3, C3) == "sizes differ: 5 vs 5 + 1"


@st.composite
def split_pairs(draw):
    # A nonnegative c of odd size 2n-1 and the d whose rows are c's rows with
    # the middle column doubled, except that the doubled middle row is split
    # into two nonnegative rows n and n+1.  Half the draws pin the split at
    # columns n, n+1 to the one that makes e_n - e_{n+1} an eigenvector for 1.
    n = draw(st.integers(1, 4))
    size = 2 * n - 1
    entries = st.lists(st.integers(0, 3), min_size=size, max_size=size)
    c = draw(st.lists(entries, min_size=size, max_size=size))
    doubled = [row[:n] + row[n - 1 :] for row in c]
    middle = doubled[n - 1]
    top = [draw(st.integers(0, v)) for v in middle]
    if middle[n - 1] and draw(st.booleans()):
        t = draw(st.integers(0, middle[n - 1] - 1))
        top[n - 1], top[n] = t + 1, t
    bottom = [v - t for v, t in zip(middle, top)]
    d = doubled[: n - 1] + [top, bottom] + doubled[n:]
    return IntMatrix(d), IntMatrix(c)


@given(split_pairs())
def test_spectrum_split_certificate_implies_the_charpoly_identity(pair):
    d, c = pair
    if _spectrum_split_failure(d, c) == "":
        assert char_poly_exact(d) == char_poly_exact(c) * IntPolynomial([-1, 1])


def test_closed_forms_reject_rank_2():
    for builder in (compacted_matrix, divided_compacted_matrix, super_compacted_matrix):
        with pytest.raises(ValueError, match="matrix needs rank >= 3, got 2"):
            builder(2)


@pytest.mark.parametrize(
    "builder, n, size",
    [
        (compacted_matrix, 3161, 6321),
        (divided_compacted_matrix, 3161, 6322),
        (super_compacted_matrix, 6321, 6321),
    ],
)
def test_closed_forms_refuse_past_the_size_cap_before_allocating(builder, n, size):
    # One rank past 6320 per side; one row of the refused matrix alone would
    # take some 50 KB, the whole matrix hundreds of MB.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            builder(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    message = str(exc.value)
    assert f"{size}x{size}" in message and "6320x6320" in message
    assert "up to rank 40" in message and "lambda_n" in message


def test_size_cap_admits_exactly_6320_per_side():
    _check_matrix(3, 6320, "largest matrix")
    with pytest.raises(ValueError, match="6321x6321"):
        _check_matrix(3, 6321, "one side more")


def test_rank_floor_is_checked_before_the_size_cap():
    # A very negative rank gives a side far past the cap; the floor names it.
    n = -10**6
    with pytest.raises(ValueError, match=f"transition matrix needs rank >= 3, got {n}"):
        _check_matrix(n, 2 * n * (2 * n - 1), "transition matrix")


# ---------------------------------------------------------------- Perron profile

def _profile(n: int, x: Fraction) -> list[Fraction]:
    """v(x) = (1, x, ..., x^(n-3), x^(n-2) - 2w, w), w = (x^(n-1) - 1)/(x^2 - 1)."""
    w = (x ** (n - 1) - 1) / (x * x - 1)
    return [x**i for i in range(n - 2)] + [x ** (n - 2) - 2 * w, w]


PROFILE_POINTS = [Fraction(3), Fraction(7, 2), Fraction(11), Fraction(-5, 3)]


@pytest.mark.parametrize("x", PROFILE_POINTS, ids=str)
@pytest.mark.parametrize("n", range(3, 13))
def test_perron_profile_is_an_eigenvector_of_s_n_but_for_row_n_minus_1(n, x):
    # (S_n - x I) v(x) = -q_n(x)/(x + 1) e_(n-1), exactly.
    v = _profile(n, x)
    residual = [mv - x * vi for mv, vi in zip(_apply(super_compacted_matrix(n))(v), v)]
    want = [0] * n
    want[n - 2] = -poly_eval(q_polynomial(n), x) / (x + 1)
    assert residual == want


@pytest.mark.parametrize("x", [3.0, 3.5, 11.0, -5 / 3, 79.0], ids=str)
@pytest.mark.parametrize("n", [3, 4, 5, 8, 12, 40])
def test_integer_perron_profile_is_the_scaled_profile(n, x):
    a, d = x.as_integer_ratio()
    scale = d ** (n - 2) * (a * a - d * d)
    assert _perron_profile(n, x, n) == [scale * vi for vi in _profile(n, Fraction(a, d))]


def _smallest_float_from_1_plus_sqrt2() -> float:
    x = 1 + math.sqrt(2)
    while (Fraction(x) - 1) ** 2 < 2:
        x = math.nextafter(x, math.inf)
    while (Fraction(math.nextafter(x, 0)) - 1) ** 2 >= 2:
        x = math.nextafter(x, 0)
    return x


@pytest.mark.parametrize("n", range(3, 41))
def test_integer_perron_profile_is_positive_from_1_plus_sqrt2(n):
    for x in (_smallest_float_from_1_plus_sqrt2(), lambda_n(3), 79.0):
        assert min(_perron_profile(n, x, n)) > 0, (n, x)


@pytest.mark.parametrize("n", [3, 4, 5, 9])
def test_lifted_profiles_are_eigenvectors_but_at_the_middle_neighbours(n):
    # C_n's palindrome misses x u by the S_n defect at rows n-1 and n+1; the
    # transition matrices', in both orientations, by that in each block.
    x = 3.5
    a, d = x.as_integer_ratio()
    defect = -poly_eval(q_polynomial(n), Fraction(x)) / (x + 1) * d ** (n - 2) * (a * a - d * d)
    s = 2 * n - 1
    block = [defect if i in (n - 2, n) else 0 for i in range(s)]
    matrices = [compacted_matrix(n), TransitionOperator(PresentationSpec(n, False))]
    matrices.append(TransitionOperator(PresentationSpec(n, True, formal=n % 2 == 1)))
    for m in matrices:
        u = _perron_profile(n, x, m.size)
        residual = [Fraction(mu) - x * ui for mu, ui in zip(_apply(m)(u), u)]
        assert residual == block * (m.size // s), m.size

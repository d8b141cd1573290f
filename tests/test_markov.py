"""Transition matrix construction: structural blocks and both build routes."""

import hashlib
import random
import re

import pytest

from volentropy.core import IntMatrix
from volentropy.markov import (
    BlockKind,
    PresentationSpec,
    TransitionOperator,
    _block_masks,
    _image_masks,
    build_block,
    build_markov_from_blocks,
    build_markov_from_images,
    reference_rows,
)
from volentropy.reductions import BlockView


def spec_any(n: int, orientable: bool) -> PresentationSpec:
    """Presentation spec, quietly allowing the formal odd orientable variant."""
    return PresentationSpec(n, orientable, formal=True)


# ---------------------------------------------------------------- specs

def test_spec_validation():
    PresentationSpec(2, False)
    PresentationSpec(2, True)
    PresentationSpec(4, True)
    PresentationSpec(3, False)
    with pytest.raises(ValueError):
        PresentationSpec(3, True)
    with pytest.raises(ValueError):
        PresentationSpec(1, False)
    # the formal escape hatch admits the odd orientable index formulas
    assert PresentationSpec(3, True, formal=True).n == 3


def test_spec_rank_must_be_an_integer():
    # 4.0 is refused like 4.5, not coerced to rank 4.
    for bad in (4.0, 4.5, "4"):
        with pytest.raises(ValueError, match=f"rank must be an int, got {bad!r}$"):
            PresentationSpec(bad, False)


@pytest.mark.parametrize("bad", ["no", 1, None, 2.5])
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda flag: PresentationSpec(4, flag), "orientable"),
        (lambda flag: PresentationSpec(4, False, formal=flag), "formal"),
        (lambda flag: reference_rows(4, flag), "orientable"),
    ],
    ids=["spec-orientable", "spec-formal", "reference-rows-orientable"],
)
def test_flags_must_be_bools(call, what, bad):
    # "no" is truthy and 1 == True: both would pass for orientable without the flag rule.
    with pytest.raises(ValueError, match=f"^{what} must be a bool, got {re.escape(repr(bad))}$"):
        call(bad)


def test_spec_derived_sizes():
    sp = PresentationSpec(4, True)
    assert sp.block_size == 7
    assert sp.block_count == 8
    assert sp.matrix_size == 56


# ---------------------------------------------------------------- blocks

def test_block_t5():
    assert build_block(BlockKind.T(), 5) == IntMatrix(
        [
            [0, 1, 1, 0, 0],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0],
        ]
    )


def test_block_t7():
    assert build_block(BlockKind.T(), 7) == IntMatrix(
        [
            [0, 1, 0, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
        ]
    )


def test_block_jtj7():
    assert build_block(BlockKind.JTJ(), 7) == IntMatrix(
        [
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0, 0],
            [1, 1, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 1, 0, 0],
            [0, 0, 0, 0, 0, 1, 0],
        ]
    )


def test_block_u_and_j():
    u3 = build_block(BlockKind.U(3), 7)
    assert u3.rows[2] == (1,) * 7
    assert sum(sum(r) for r in u3.rows) == 7
    j = build_block(BlockKind.J(), 7)
    assert j == IntMatrix(
        [[1 if i + k == 6 else 0 for k in range(7)] for i in range(7)]
    )
    assert j * j == IntMatrix.identity(7)
    assert build_block(BlockKind.zero(), 3) == IntMatrix.zeros(3)


def test_block_jtj_is_conjugate_of_t():
    for k in (5, 7, 9, 11):
        j = build_block(BlockKind.J(), k)
        t = build_block(BlockKind.T(), k)
        assert build_block(BlockKind.JTJ(), k) == j * t * j


def test_block_validation():
    with pytest.raises(ValueError):
        build_block(BlockKind.T(), 4)
    with pytest.raises(ValueError):
        build_block(BlockKind.T(), 3)
    with pytest.raises(ValueError):
        build_block(BlockKind.JTJ(), 6)
    with pytest.raises(ValueError):
        build_block(BlockKind.U(8), 7)
    with pytest.raises(ValueError):
        BlockKind.U(0)
    with pytest.raises(ValueError):
        BlockKind("JT")
    with pytest.raises(ValueError, match="^block kind 'T' takes no row index$"):
        BlockKind("T", 3)


# ---------------------------------------------------------------- reference rows

def test_reference_rows_shapes():
    g = reference_rows(4, True)
    assert len(g) == 21 and all(len(r) == 56 for r in g)
    h = reference_rows(3, False)
    assert len(h) == 15 and all(len(r) == 30 for r in h)
    with pytest.raises(ValueError):
        reference_rows(5, True)


def test_images_match_reference_rank4_orientable():
    m = build_markov_from_images(PresentationSpec(4, True))
    assert [list(r) for r in m.rows[:21]] == reference_rows(4, True)


def test_images_match_reference_rank3_nonorientable():
    m = build_markov_from_images(PresentationSpec(3, False))
    assert [list(r) for r in m.rows[:15]] == reference_rows(3, False)


# ---------------------------------------------------------------- routes agree

@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("orientable", [True, False])
def test_image_and_block_routes_agree(n, orientable):
    sp = spec_any(n, orientable)
    assert build_markov_from_images(sp) == build_markov_from_blocks(sp)


@pytest.mark.parametrize(
    "kind, make",
    [
        ("formal orientable", lambda n: PresentationSpec(n, True, formal=True)),
        ("orientable", lambda n: PresentationSpec(n, True) if n % 2 == 0 else None),
        ("non-orientable", lambda n: PresentationSpec(n, False)),
    ],
)
def test_image_and_block_masks_agree_up_to_the_rank_cap(kind, make):
    # The images route's runs of bits against the operator on the bit basis,
    # block row by block row, at every rank the transition matrix accepts
    # (the orientable kind at even ranks only): 2n block rows of 2n-1 masks.
    for n in range(3, 41):
        spec = make(n)
        if spec is not None:
            rows = list(_image_masks(spec))
            assert [len(row) for row in rows] == [2 * n - 1] * (2 * n), (kind, n)
            assert rows == list(_block_masks(spec)), (kind, n)


# sha256 of each transition matrix, rows concatenated as bytes of 0/1, pinned
# when the images route still filled a zero matrix cell by cell.  Both routes
# end in the same 0/1 materialiser, so route agreement alone cannot catch a
# slip there; these digests can.  Odd orientable ranks use the formal variant.
PINNED_DIGESTS = {
    (3, True): "5e1062f1ec02ccc05e9dc4bae79836a98972613367f5332962c98782e73f2414",
    (4, True): "8a04f875d6bbfef498ba421a98cc8608917e6b03e964dc59fca6e3fa51a1316e",
    (5, True): "3a048314a59388bbdf416cf411688f847cfbd41a7da71033112fccccccf4510d",
    (6, True): "eab91ddbc8bf6ee5a821773cc31ced338a150496db57447c9fb75506bc67e67d",
    (7, True): "15aa8a1c741e191304b42cf761b2d8f439c06010cb066c5bbdd8af908f4ddbe4",
    (8, True): "77b177f2455eae0206654760f48be9dceb96bf13bcd3a9880b0cab871068276a",
    (9, True): "154a93b51d467be72f8dd08f71829f1f9dc270587dc1a9f45ae2f2170257d51e",
    (10, True): "ff75feabe5ba802cad103ef2c38b516a558e25a0c2c411edb4ce37612423b464",
    (11, True): "277f0b5a324bc3b902500d35a7a7d61315b00d40da1057136e3d6af81b378535",
    (12, True): "ae72e62f5e6466e9eabe549e9dbb6359a87441be7352b102845e54534b25abe2",
    (3, False): "d59f62fe5805a01bea626e73baca454ed36504cbb2d986883b42d5bc72038ef8",
    (4, False): "dc2cf6d515c38b4d6b11619d210a9e8ce2c338e35a822b281554526317e3c669",
    (5, False): "ff8fdb766ad1f3f81009eadf2cdd86a793f9f824545de1625e667e1ba99e9071",
    (6, False): "3238d620aae186b79d02f2fe6f6beb06335c9da49755c4707909a54314e3f96f",
    (7, False): "d21fe6d70eb9364e8083cf036ddd7e4f4e567b767a6a8b76f98cdd50f737f5e9",
    (8, False): "d1706c1c294e90d5d26566e652aa56e1f16f69686fc1057cadf4bb82f59596ec",
    (9, False): "9ca89464189e316262c9680f1d04e4db0e9a933ed6b7681ef447bb95fbf7de23",
    (10, False): "ddc089fa0cb06af69e2685a891bcb84fb1b7789710d244a427669d1a5921c9c6",
    (11, False): "302a981de98b212ad95e09ca72b32f51e312de98f2bd8a258538cb83ecac6cec",
    (12, False): "4004fb0a17bf0481f3207b6889b5c34b61e58a1274ca5c6e1bb560a30afda09e",
}


@pytest.mark.parametrize("n, orientable", sorted(PINNED_DIGESTS))
@pytest.mark.parametrize("build", [build_markov_from_images, build_markov_from_blocks])
def test_builders_reproduce_the_pinned_digests(build, n, orientable):
    rows = build(PresentationSpec(n, orientable, formal=orientable and n % 2 == 1)).rows
    digest = hashlib.sha256(b"".join(map(bytes, rows))).hexdigest()
    assert digest == PINNED_DIGESTS[(n, orientable)]


def test_builders_reject_rank_2():
    with pytest.raises(ValueError):
        build_markov_from_images(PresentationSpec(2, False))
    with pytest.raises(ValueError):
        build_markov_from_blocks(PresentationSpec(2, True))


# ---------------------------------------------------------------- template

def template_kinds(n: int, l: int) -> dict[int, BlockKind]:
    """The paper's block kinds of block row l (straight form), by block column."""
    r = 2 * n

    def col(t: int) -> int:
        return (t - 1) % r + 1

    kinds = {col(l + n + 1): BlockKind.T()}
    for t in range(l + n + 2, l + r):  # l+n+2 .. l-1, cyclically
        kinds[col(t)] = BlockKind.U(n - 1)
    kinds[l] = BlockKind.U(n)
    for t in range(l + 1, l + n - 1):  # l+1 .. l+n-2
        kinds[col(t)] = BlockKind.U(n + 1)
    kinds[col(l + n - 1)] = BlockKind.JTJ()
    kinds[col(l + n)] = BlockKind.zero()
    assert len(kinds) == r, "block kinds must tile the whole block row"
    return kinds


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("orientable", [True, False])
def test_blocks_route_follows_the_paper_template(n, orientable):
    # Block rows n and 2n of the non-orientable form are row-reversed (J M).
    sp = spec_any(n, orientable)
    s = sp.block_size
    view = BlockView(build_markov_from_blocks(sp), sp.block_count, s)
    reversed_rows = () if orientable else (n, 2 * n)
    for l in range(1, 2 * n + 1):
        for t, kind in template_kinds(n, l).items():
            expected = build_block(kind, s)
            if l in reversed_rows:
                expected = expected.reverse_rows()
            assert view.block(l, t) == expected, (l, t, kind)


# ---------------------------------------------------------------- operator

# Every rank through 24, then 32 and the cap 40.
OPERATOR_RANKS = [*range(3, 25), 32, 40]


@pytest.mark.parametrize("n", OPERATOR_RANKS)
@pytest.mark.parametrize("orientable", [True, False])
def test_operator_equals_the_dense_blocks_product(n, orientable, image_rows):
    # The blocks-route matrix is read off the operator, so the operator is
    # checked against the independent image route instead, read off its row
    # masks: a 6320² dense build at n = 40 would take seconds.
    sp = spec_any(n, orientable)
    m = image_rows(sp)
    op = TransitionOperator(sp)
    assert op.size == m.size
    rng = random.Random(n)
    v = [rng.randint(-9, 9) for _ in range(m.size)]
    # Every row of the images-route matrix is a nonempty 0/1 row of `size`
    # columns, so a row's product is the sum of the entries of v it selects.
    assert all(0 < mask < 1 << m.size for mask in m.masks)
    assert op.apply(v) == m.apply(v)


@pytest.mark.parametrize("build", [build_markov_from_images, build_markov_from_blocks])
@pytest.mark.parametrize("n", range(3, 17))
def test_flip_reverses_the_rows_of_block_rows_n_and_2n(build, n):
    # J on every block of a row reverses the block row's rows; the rest of
    # the non-orientable matrix is the orientable template's.
    s = 2 * n - 1
    minus = build(PresentationSpec(n, False)).rows
    plus = build(spec_any(n, True)).rows
    for l in range(1, 2 * n + 1):
        straight = plus[(l - 1) * s : l * s]
        expected = straight[::-1] if l in (n, 2 * n) else straight
        assert minus[(l - 1) * s : l * s] == expected, l


@pytest.mark.parametrize("length", [29, 31, 0])
def test_operator_refuses_a_vector_of_another_length(length):
    # At n = 3 the operator is 30 x 30: 31 entries are not cut to 30, and 29
    # raise no IndexError from inside; both lengths are named.
    op = TransitionOperator(PresentationSpec(3, False))
    with pytest.raises(ValueError, match=f"^vector has {length} entries, the operator needs 30$"):
        op.apply([1] * length)


def test_operator_keeps_the_rank_cap_without_claiming_a_dense_build():
    with pytest.raises(ValueError, match="up to rank 40") as exc:
        TransitionOperator(PresentationSpec(41, False))
    assert "lambda_n" in str(exc.value) and "volentropy table" in str(exc.value)
    assert "dense" not in str(exc.value)
    with pytest.raises(ValueError):
        TransitionOperator(PresentationSpec(2, False))


@pytest.mark.parametrize(
    "build",
    [
        build_markov_from_images,
        build_markov_from_blocks,
        pytest.param(lambda spec: next(_image_masks(spec)), id="first image block row"),
        pytest.param(lambda spec: next(_block_masks(spec)), id="first blocks block row"),
    ],
)
def test_builders_reject_ranks_past_the_dense_cap(build):
    # Rejected before any row is built; the message names the exact route.
    # At rank 10**6 the 2n block sums of the bit basis alone would not fit in memory.
    with pytest.raises(ValueError, match="lambda_n"):
        build(PresentationSpec(41, False))
    with pytest.raises(ValueError, match="up to rank 40"):
        build(PresentationSpec(200, True))
    with pytest.raises(ValueError, match="up to rank 40"):
        build(PresentationSpec(10**6, False))


# ---------------------------------------------------------------- structure

@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("orientable", [True, False])
def test_rows_are_cyclic_intervals(n, orientable):
    # Each subinterval maps onto an arc, so every row's support must be a
    # cyclically contiguous run of columns.
    m = build_markov_from_images(spec_any(n, orientable))
    for row in m.rows:
        runs = sum(
            1 for j in range(m.size) if row[j] and not row[(j - 1) % m.size]
        )
        assert runs == 1


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_zero_block_at_offset_n(n):
    # No subinterval of interval l ever lands in interval l+n (the opposite
    # side of the circle): that block column is identically zero.
    m = build_markov_from_blocks(spec_any(n, True))
    s = 2 * n - 1
    for l in range(1, 2 * n + 1):
        t = (l + n - 1) % (2 * n) + 1
        block = [
            m.rows[(l - 1) * s + a][(t - 1) * s + b]
            for a in range(s)
            for b in range(s)
        ]
        assert set(block) == {0}


def test_matrix_is_zero_one_and_rows_nonempty():
    for n, orientable in ((3, False), (4, True), (5, False)):
        m = build_markov_from_images(spec_any(n, orientable))
        values = {v for row in m.rows for v in row}
        assert values <= {0, 1}
        assert all(sum(row) >= 1 for row in m.rows)


def test_reversing_rows_are_flipped_copies():
    # In the non-orientable form, block rows n and 2n equal the corresponding
    # orientation-preserving rows premultiplied blockwise by the flip.
    n = 4
    s = 2 * n - 1
    plus = build_markov_from_blocks(PresentationSpec(n, True))
    minus = build_markov_from_blocks(PresentationSpec(n, False))
    flip = build_block(BlockKind.J(), s)
    for l in (n, 2 * n):
        base = (l - 1) * s
        for a in range(s):
            flipped = plus.rows[base + (s - 1 - a)]
            assert minus.rows[base + a] == flipped
    for l in range(1, 2 * n + 1):
        if l in (n, 2 * n):
            continue
        base = (l - 1) * s
        for a in range(s):
            assert minus.rows[base + a] == plus.rows[base + a]
    assert flip * flip == IntMatrix.identity(s)

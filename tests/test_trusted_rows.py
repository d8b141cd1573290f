"""Matrices the package builds itself skip the public constructor's coercion.

Every producer that wraps its own rows without coercion must hand back
exactly what `IntMatrix(rows)` would have stored: a non-empty square tuple
of tuples whose cells are all plain ints.
"""

import pytest
from hypothesis import given, strategies as st

from volentropy.core import IntMatrix
from volentropy.markov import (
    PresentationSpec,
    build_markov_from_blocks,
    build_markov_from_images,
)
from volentropy.reductions import BlockView, is_disoriented_block_circulant


def assert_canonical(m: IntMatrix) -> None:
    assert type(m.rows) is tuple
    assert m.size == len(m.rows) >= 1
    for row in m.rows:
        assert type(row) is tuple
        assert len(row) == m.size
        assert all(type(v) is int for v in row)
    assert m == IntMatrix(m.rows)


def square_rows(k: int):
    return st.lists(
        st.lists(st.integers(-99, 99), min_size=k, max_size=k), min_size=k, max_size=k
    )


square_matrices = st.integers(1, 5).flatmap(square_rows).map(IntMatrix)
matrix_pairs = st.integers(1, 5).flatmap(
    lambda k: st.tuples(square_rows(k).map(IntMatrix), square_rows(k).map(IntMatrix))
)


def test_public_constructor_still_coerces_and_validates():
    m = IntMatrix([[True, 2.0], [0, 1]])
    assert m.rows == ((1, 2), (0, 1))
    assert_canonical(m)
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2, 3], [4, 5, 6]])


@given(matrix_pairs)
def test_sum_and_product_are_canonical(pair):
    a, b = pair
    assert_canonical(a + b)
    assert_canonical(a * b)


@given(square_matrices)
def test_transpose_and_reversals_are_canonical(m):
    assert_canonical(m.transpose())
    assert_canonical(m.reverse_rows())
    assert_canonical(m.reverse_columns())


@given(st.data())
def test_blocks_are_canonical(data):
    r = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, 3))
    m = data.draw(square_rows(r * s).map(IntMatrix))
    view = BlockView(m, r, s)
    for i in range(1, r + 1):
        for blk in view.block_row(i):
            assert blk.size == s
            assert_canonical(blk)


@given(st.data())
def test_parallelization_is_canonical(data):
    # A disoriented block-circulant matrix: block row i is the template row
    # shifted i blocks, with its blocks flipped by J when flips[i] is set.
    r = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 3))
    template = data.draw(st.lists(square_rows(s), min_size=r, max_size=r))
    flips = [False] + data.draw(st.lists(st.booleans(), min_size=r - 1, max_size=r - 1))

    def block_row(i: int, flipped: bool) -> list[list[int]]:
        blocks = [template[(j - i) % r] for j in range(r)]
        if flipped:
            blocks = [blk[::-1] for blk in blocks]
        return [[v for blk in blocks for v in blk[a]] for a in range(s)]

    rows = [row for i in range(r) for row in block_row(i, flips[i])]
    ok, para = is_disoriented_block_circulant(BlockView(IntMatrix(rows), r, s))
    assert ok
    assert_canonical(para)
    assert para == IntMatrix([row for i in range(r) for row in block_row(i, False)])


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("orientable", [True, False])
@pytest.mark.parametrize("build", [build_markov_from_blocks, build_markov_from_images])
def test_transition_matrices_are_canonical(build, orientable, n):
    assert_canonical(build(PresentationSpec(n, orientable, formal=True)))

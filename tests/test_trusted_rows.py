"""Matrices the package builds itself skip the public constructor's coercion.

Every producer that wraps its own rows without coercion must hand back
exactly what `IntMatrix(rows)` would have stored: a non-empty square tuple
of tuples whose cells are all plain ints.
"""

import pytest
from hypothesis import given, strategies as st

from volentropy.core import IntMatrix
from volentropy.markov import (
    BlockKind,
    PresentationSpec,
    build_block,
    build_markov_from_blocks,
    build_markov_from_images,
)
from volentropy.reductions import (
    BlockView,
    compacted_matrix,
    divided_compacted_matrix,
    _sum_block_row,
    super_compacted_matrix,
)


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
    # A bool is an int and is stored as one; a float is refused, even 2.0.
    m = IntMatrix([[True, 2], [0, 1]])
    assert m.rows == ((1, 2), (0, 1))
    assert_canonical(m)
    with pytest.raises(ValueError, match=r"matrix entry must be an int, got 2\.0$"):
        IntMatrix([[1, 2.0], [0, 1]])
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
def test_reversals_are_canonical(m):
    assert_canonical(m.reverse_rows())
    assert_canonical(m.reverse_columns())


@given(st.data())
def test_blocks_are_canonical(data):
    r = data.draw(st.integers(1, 3))
    s = data.draw(st.integers(1, 3))
    m = data.draw(square_rows(r * s).map(IntMatrix))
    view = BlockView(m, r, s)
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            blk = view.block(i, j)
            assert blk.size == s
            assert_canonical(blk)


@given(st.data())
def test_mask_block_sum_is_canonical(data):
    # The first block row of a 0/1 matrix given as row masks, summed.
    r = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 3))
    first = data.draw(st.lists(st.integers(0, (1 << r * s) - 1), min_size=s, max_size=s))
    assert_canonical(_sum_block_row(first, r * s))


@pytest.mark.parametrize("n", range(3, 7))
@pytest.mark.parametrize("orientable", [True, False])
@pytest.mark.parametrize("build", [build_markov_from_blocks, build_markov_from_images])
def test_transition_matrices_are_canonical(build, orientable, n):
    assert_canonical(build(PresentationSpec(n, orientable, formal=True)))


@pytest.mark.parametrize("n", range(3, 8))
def test_reduced_matrices_are_canonical(n):
    for build in (compacted_matrix, divided_compacted_matrix, super_compacted_matrix):
        assert_canonical(build(n))


@pytest.mark.parametrize("k", [5, 7, 9])
def test_structural_blocks_are_canonical(k):
    kinds = [BlockKind.T(), BlockKind.JTJ(), BlockKind.J(), BlockKind.zero()]
    for kind in kinds + [BlockKind.U(i) for i in range(1, k + 1)]:
        assert_canonical(build_block(kind, k))


@given(st.integers(1, 6))
def test_zeros_and_identity_are_canonical(k):
    assert_canonical(IntMatrix.zeros(k))
    assert_canonical(IntMatrix.identity(k))
    assert IntMatrix.identity(k) == IntMatrix([[int(i == j) for j in range(k)] for i in range(k)])
    assert IntMatrix.zeros(k) == IntMatrix([[0] * k] * k)


@pytest.mark.parametrize("k", [0, -1])
def test_zeros_and_identity_reject_empty_sizes(k):
    with pytest.raises(ValueError):
        IntMatrix.zeros(k)
    with pytest.raises(ValueError):
        IntMatrix.identity(k)

"""Romes, simple paths, and characteristic polynomials via path determinants."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from volentropy.core import IntMatrix, IntPolynomial, LaurentPolynomial
from volentropy.reductions import super_compacted_matrix
from volentropy.rome import (
    RomeSpec,
    SimplePath,
    enumerate_simple_paths,
    format_digraph,
    q_polynomial,
    rome_char_poly,
    rome_check,
    rome_matrix,
)
from volentropy.spectral import char_poly_exact

SC3 = IntMatrix([[0, 1, 2], [3, 3, 2], [1, 1, 1]])


# ---------------------------------------------------------------- oracles

def brute_force_paths(m: IntMatrix, nodes: tuple[int, ...]) -> set[tuple[tuple[int, ...], int]]:
    """Exhaustive simple-path enumeration by trying every vertex sequence.

    Only feasible for tiny matrices; used as the independent oracle for the
    DFS enumeration.
    """
    k = m.size
    rset = set(nodes)
    interior = [v for v in range(1, k + 1) if v not in rset]
    found = set()
    for a in nodes:
        for b in nodes:
            for length in range(0, len(interior) + 1):
                for mids in itertools.permutations(interior, length):
                    seq = (a,) + mids + (b,)
                    width = 1
                    for u, v in zip(seq, seq[1:]):
                        width *= m.entry(u, v)
                    if width != 0:
                        found.add((seq, width))
    return found


def random_matrix_with_rome(rng: random.Random) -> tuple[IntMatrix, RomeSpec]:
    """A random small nonnegative matrix plus a valid rome grown greedily.

    Start from the empty candidate and add a vertex of any cycle that still
    avoids it, until the complement is acyclic.
    """
    k = rng.randint(1, 8)
    rows = [
        [rng.choice((0, 0, 1, 2, 3)) for _ in range(k)] for _ in range(k)
    ]
    m = IntMatrix(rows)
    nodes: list[int] = []
    while True:
        spec = RomeSpec(tuple(nodes))
        cyc = _find_cycle_vertex(m, set(nodes))
        if cyc is None:
            return m, spec
        nodes.append(cyc)


def _find_cycle_vertex(m: IntMatrix, excluded: set[int]) -> int | None:
    alive = [v for v in range(1, m.size + 1) if v not in excluded]
    alive_set = set(alive)
    changed = True
    while changed:
        changed = False
        for v in list(alive_set):
            if all(m.entry(v, w) == 0 for w in alive_set):
                alive_set.discard(v)
                changed = True
    if not alive_set:
        return None
    return min(alive_set)


# ---------------------------------------------------------------- rome_check

def test_rome_check_supercompacted():
    for n in range(3, 12):
        sc = super_compacted_matrix(n)
        assert rome_check(sc, RomeSpec((n - 1, n)))
        # dropping n-1 leaves its self-loop in the complement
        assert not rome_check(sc, RomeSpec((n,)))
        assert rome_check(sc, RomeSpec(tuple(range(1, n + 1))))


def test_rome_check_edge_cases():
    nilpotent = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert rome_check(nilpotent, RomeSpec(()))
    loop = IntMatrix([[1]])
    assert not rome_check(loop, RomeSpec(()))
    assert rome_check(loop, RomeSpec((1,)))
    with pytest.raises(ValueError):
        rome_check(loop, RomeSpec((2,)))
    with pytest.raises(ValueError):
        RomeSpec((0, 1))


def test_rome_spec_normalizes():
    assert RomeSpec((3, 1, 3, 2)).nodes == (1, 2, 3)
    assert len(RomeSpec((5,))) == 1


# ---------------------------------------------------------------- paths

def test_simple_paths_supercompacted_rank3_pinned():
    paths = enumerate_simple_paths(SC3, RomeSpec((2, 3)))
    got = {(p.vertices, p.width) for p in paths}
    assert got == {
        ((2, 2), 3),
        ((2, 1, 2), 3),
        ((2, 3), 2),
        ((2, 1, 3), 6),
        ((3, 2), 1),
        ((3, 1, 2), 1),
        ((3, 3), 1),
        ((3, 1, 3), 2),
    }
    assert all(p.length in (1, 2) for p in paths)


def test_simple_paths_require_a_rome():
    with pytest.raises(ValueError):
        enumerate_simple_paths(SC3, RomeSpec((3,)))


def test_simple_path_length():
    p = SimplePath((2, 1, 3), 6)
    assert p.length == 2


def test_simple_paths_walk_a_long_cycle():
    # One path around a 1200-cycle: deeper than the default recursion limit.
    k = 1200
    m = IntMatrix([[int(j == (i + 1) % k) for j in range(k)] for i in range(k)])
    paths = enumerate_simple_paths(m, RomeSpec((1,)))
    assert len(paths) == 1
    assert paths[0].length == k
    assert paths[0].vertices == (*range(1, k + 1), 1)
    assert paths[0].width == 1


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_path_enumeration_matches_brute_force(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 5)
    m = IntMatrix([[rng.choice((0, 0, 1, 2)) for _ in range(k)] for _ in range(k)])
    nodes = tuple(v for v in range(1, k + 1) if rng.random() < 0.6)
    spec = RomeSpec(nodes)
    if not rome_check(m, spec):
        return
    got = {(p.vertices, p.width) for p in enumerate_simple_paths(m, spec)}
    assert got == brute_force_paths(m, spec.nodes)


# ---------------------------------------------------------------- rome matrix

def xinv_sum(lo: int, hi: int, scale: int = 1) -> LaurentPolynomial:
    """scale * (x^-lo + ... + x^-hi); zero when the range is empty."""
    acc = LaurentPolynomial.zero()
    for e in range(lo, hi + 1):
        acc = acc + LaurentPolynomial.x_power(-e, scale)
    return acc


@pytest.mark.parametrize("n", range(3, 9))
def test_rome_matrix_closed_form(n):
    # With the two-vertex rome {n-1, n} the path matrix has the closed form
    #   [ b(x^-1 + z)      (b-1)x^-1 + 2bz ]
    #   [   x^-1 + z         x^-1 + 2z     ]
    # where b = 2n-3 and z = x^-2 + ... + x^-(n-1).
    sc = super_compacted_matrix(n)
    grid = rome_matrix(sc, RomeSpec((n - 1, n)))
    b = 2 * n - 3
    xinv = LaurentPolynomial.x_power(-1)
    z = xinv_sum(2, n - 1)
    assert grid[0][0] == b * (xinv + z)
    assert grid[0][1] == (b - 1) * xinv + (2 * b) * z
    assert grid[1][0] == xinv + z
    assert grid[1][1] == xinv + 2 * z


def test_rome_matrix_rank3_pinned():
    grid = rome_matrix(SC3, RomeSpec((2, 3)))
    assert grid[0][0] == LaurentPolynomial(-2, [3, 3])
    assert grid[0][1] == LaurentPolynomial(-2, [6, 2])
    assert grid[1][0] == LaurentPolynomial(-2, [1, 1])
    assert grid[1][1] == LaurentPolynomial(-2, [2, 1])


def reference_rome_matrix(m: IntMatrix, r: RomeSpec) -> list[list[LaurentPolynomial]]:
    """The path matrix built one path at a time, each a separate monomial."""
    pos = {v: idx for idx, v in enumerate(r.nodes)}
    grid = [[LaurentPolynomial.zero() for _ in r.nodes] for _ in r.nodes]
    for p in enumerate_simple_paths(m, r):
        i, j = pos[p.vertices[0]], pos[p.vertices[-1]]
        grid[i][j] = grid[i][j] + LaurentPolynomial.x_power(-p.length, p.width)
    return grid


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_rome_matrix_matches_the_path_by_path_sum(seed):
    m, spec = random_matrix_with_rome(random.Random(seed))
    assert rome_matrix(m, spec) == reference_rome_matrix(m, spec)


# ---------------------------------------------------------------- char poly

def test_rome_char_poly_one_by_one():
    m = IntMatrix([[7]])
    assert rome_char_poly(m, RomeSpec((1,))) == IntPolynomial([-7, 1])


def test_rome_char_poly_empty_rome_on_nilpotent():
    m = IntMatrix([[0, 2, 0], [0, 0, 5], [0, 0, 0]])
    assert rome_char_poly(m, RomeSpec(())) == IntPolynomial([0, 0, 0, 1])


def test_rome_char_poly_supercompacted_rank3():
    assert rome_char_poly(SC3, RomeSpec((2, 3))) == IntPolynomial([1, -4, -4, 1])


@pytest.mark.parametrize("n", [*range(3, 13), 80])
def test_rome_equals_exact_equals_closed_form(n):
    sc = super_compacted_matrix(n)
    via_rome = rome_char_poly(sc, RomeSpec((n - 1, n)))
    assert via_rome == char_poly_exact(sc)
    assert via_rome == q_polynomial(n)


def test_rome_char_poly_is_rome_invariant():
    # Two different valid romes of the same matrix give the same polynomial.
    sc = super_compacted_matrix(4)
    p1 = rome_char_poly(sc, RomeSpec((3, 4)))
    p2 = rome_char_poly(sc, RomeSpec((2, 3, 4)))
    p3 = rome_char_poly(sc, RomeSpec((1, 2, 3, 4)))
    assert p1 == p2 == p3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_rome_char_poly_matches_exact_on_random_matrices(seed):
    m, spec = random_matrix_with_rome(random.Random(seed))
    assert rome_char_poly(m, spec) == char_poly_exact(m)


def test_rome_char_poly_at_rank_1000():
    # Paths up to length 999 through the two-vertex rome: the determinant in
    # x^-1 has degree 1000, read back by reversing its coefficients.
    sc = super_compacted_matrix(1000)
    assert rome_char_poly(sc, RomeSpec((999, 1000))) == q_polynomial(1000)


# ---------------------------------------------------------------- q polynomial

def test_q_polynomial_pinned():
    assert q_polynomial(2) == IntPolynomial([1, -2, 1])
    assert q_polynomial(3) == IntPolynomial([1, -4, -4, 1])
    assert q_polynomial(4) == IntPolynomial([1, -6, -6, -6, 1])
    with pytest.raises(ValueError):
        q_polynomial(1)


def test_q_polynomial_degenerates_at_rank_2():
    q = q_polynomial(2)
    assert q == IntPolynomial([-1, 1]) * IntPolynomial([-1, 1])


# ---------------------------------------------------------------- digraph

def test_format_digraph():
    text = format_digraph(IntMatrix([[0, 2], [1, 0]]))
    assert text.splitlines() == ["1 -> 2 [2]", "2 -> 1 [1]"]

"""Romes, simple paths, and characteristic polynomials via path determinants."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from volentropy.core import IntMatrix, IntPolynomial, LaurentPolynomial, poly_eval
from volentropy.reductions import super_compacted_matrix
from volentropy.rome import (
    RomeSpec,
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


def simple_paths(m: IntMatrix, r: RomeSpec) -> list[tuple[tuple[int, ...], int]]:
    """Reference walk: every path from a rome vertex to a rome vertex whose
    interior avoids the rome, one at a time, as (1-based vertices, width).

    Depth-first with an explicit stack and the whole vertex sequence kept;
    a valid rome keeps the walk finite.
    """
    assert rome_check(m, r)
    rset = {v - 1 for v in r.nodes}
    nonzero = m.nonzeros()
    out = []
    for a in r.nodes:
        path, stack = [a], [(zip(*nonzero[a - 1]), 1)]
        while stack:
            edges, width = stack[-1]
            for j, w in edges:
                if j in rset:
                    out.append(((*path, j + 1), width * w))
                else:
                    path.append(j + 1)
                    stack.append((zip(*nonzero[j]), width * w))
                    break
            else:
                stack.pop()
                path.pop()
    return out


def path_by_path_sum(paths, r: RomeSpec) -> list[list[LaurentPolynomial]]:
    """The path matrix built one path at a time, each a separate monomial."""
    pos = {v: idx for idx, v in enumerate(r.nodes)}
    grid = [[LaurentPolynomial.zero() for _ in r.nodes] for _ in r.nodes]
    for vertices, width in paths:
        i, j = pos[vertices[0]], pos[vertices[-1]]
        grid[i][j] = grid[i][j] + LaurentPolynomial.x_power(1 - len(vertices), width)
    return grid


def reference_rome_matrix(m: IntMatrix, r: RomeSpec) -> list[list[LaurentPolynomial]]:
    return path_by_path_sum(simple_paths(m, r), r)


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


def test_rome_spec_nodes_must_be_integers():
    assert RomeSpec((True, 2)) == RomeSpec((1, 2))
    for bad in (1.5, 2.0):
        with pytest.raises(ValueError, match=f"rome node must be an int, got {bad}$"):
            RomeSpec((bad, 1))


# ---------------------------------------------------------------- paths

SC3_PATHS = {
    ((2, 2), 3),
    ((2, 1, 2), 3),
    ((2, 3), 2),
    ((2, 1, 3), 6),
    ((3, 2), 1),
    ((3, 1, 2), 1),
    ((3, 3), 1),
    ((3, 1, 3), 2),
}


def test_simple_paths_supercompacted_rank3_pinned():
    rome = RomeSpec((2, 3))
    assert set(simple_paths(SC3, rome)) == SC3_PATHS
    assert rome_matrix(SC3, rome) == path_by_path_sum(SC3_PATHS, rome)


def test_simple_paths_require_a_rome():
    for fn in (rome_matrix, rome_char_poly):
        with pytest.raises(ValueError, match="not a rome"):
            fn(SC3, RomeSpec((3,)))


def test_simple_paths_walk_a_long_cycle():
    # One path around a 1200-cycle: deeper than the default recursion limit.
    k = 1200
    m = IntMatrix([[int(j == (i + 1) % k) for j in range(k)] for i in range(k)])
    assert rome_matrix(m, RomeSpec((1,))) == [[LaurentPolynomial.x_power(-k)]]


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
    got = simple_paths(m, spec)
    assert len(got) == len(set(got))
    assert set(got) == brute_force_paths(m, spec.nodes)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_rome_matrix_matches_the_path_by_path_sum(seed):
    m, spec = random_matrix_with_rome(random.Random(seed))
    assert rome_matrix(m, spec) == reference_rome_matrix(m, spec)


def laurent_at(p: LaurentPolynomial, x: Fraction) -> Fraction:
    return sum((c * x ** (p.min_exponent + i) for i, c in enumerate(p.coeffs)), Fraction(0))


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    rows = [list(row) for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_rome_char_poly_matches_the_path_by_path_reference(seed):
    # det(xI - m) = (-1)^|R| x^k det(A(x) - I) for the reference path matrix
    # A; agreement at k + 1 points pins the degree-k polynomial.
    m, spec = random_matrix_with_rome(random.Random(seed))
    grid = reference_rome_matrix(m, spec)
    poly = rome_char_poly(m, spec)
    for x in map(Fraction, range(1, m.size + 2)):
        shifted = [[laurent_at(e, x) - (i == j) for j, e in enumerate(row)] for i, row in enumerate(grid)]
        assert poly_eval(poly, x) == (-1) ** len(spec.nodes) * x**m.size * fraction_det(shifted)


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

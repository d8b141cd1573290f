"""Power iteration and exact characteristic polynomials."""

import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from volentropy.core import IntMatrix, IntPolynomial
from volentropy.markov import (
    BlockKind,
    PresentationSpec,
    TransitionOperator,
    build_block,
    build_markov_from_blocks,
)
from volentropy.reductions import (
    compacted_matrix,
    divided_compacted_matrix,
    super_compacted_matrix,
)
from volentropy.spectral import (
    _apply,
    _collatz_wielandt_failure,
    char_poly_exact,
    is_irreducible,
    power_iteration,
)


# ---------------------------------------------------------------- oracle

def naive_char_poly(m: IntMatrix) -> IntPolynomial:
    """det(xI - m) by cofactor expansion over polynomial entries.

    Expands along successive rows, memoized on the set of columns still
    free (2^k minors rather than k! chains), and skips zero entries.
    Independent of the production recurrence; the cross-check runs on
    small sizes only.
    """
    k = m.size
    x_minus = [
        [
            IntPolynomial([-m.rows[i][j], 1]) if i == j else IntPolynomial([-m.rows[i][j]])
            for j in range(k)
        ]
        for i in range(k)
    ]
    memo: dict[tuple[int, ...], IntPolynomial] = {(): IntPolynomial([1])}

    def det(cols: tuple[int, ...]) -> IntPolynomial:
        if cols not in memo:
            row = x_minus[k - len(cols)]
            acc = IntPolynomial([0])
            for pos, j in enumerate(cols):
                if row[j].is_zero():
                    continue
                term = row[j] * det(cols[:pos] + cols[pos + 1 :])
                acc = acc + term if pos % 2 == 0 else acc - term
            memo[cols] = acc
        return memo[cols]

    return det(tuple(range(k)))


def dense_char_poly(m: IntMatrix) -> IntPolynomial:
    """The Faddeev-LeVerrier recurrence with a dense IntMatrix product per
    step, as `char_poly_exact` computed it before it went sparse-left."""
    k = m.size
    coeffs = [0] * (k + 1)
    coeffs[k] = 1
    acc = IntMatrix.identity(k)
    for step in range(1, k + 1):
        prod = m * acc
        trace = sum(prod.rows[i][i] for i in range(k))
        q, r = divmod(trace, step)
        assert r == 0
        coeffs[k - step] = -q
        acc = IntMatrix([[v - q * (i == j) for j, v in enumerate(row)] for i, row in enumerate(prod.rows)])
    return IntPolynomial(coeffs)


# ---------------------------------------------------------------- power iteration

def test_power_iteration_supercompacted_rank3():
    est = power_iteration(super_compacted_matrix(3))
    assert est.converged
    assert est.value == pytest.approx(4.791287847478, abs=1e-8)


def test_power_iteration_flip_terminates_at_one():
    est = power_iteration(build_block(BlockKind.J(), 5))
    assert est.converged
    assert est.value == 1.0
    assert est.iterations <= 8


def test_power_iteration_zero_matrix():
    est = power_iteration(IntMatrix.zeros(4))
    assert est.converged
    assert est.value == 0.0


def test_power_iteration_nilpotent():
    m = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    est = power_iteration(m)
    assert est.converged
    assert est.value == 0.0


def test_power_iteration_two_cycle_with_weights():
    # Raw sup-norm growth factors oscillate 2, 1, 2, 1, ... whose geometric
    # mean sqrt(2) is the true spectral radius.
    m = IntMatrix([[0, 2], [1, 0]])
    est = power_iteration(m)
    assert est.converged
    assert est.value == pytest.approx(2 ** 0.5, abs=1e-9)


def test_power_iteration_validation():
    with pytest.raises(ValueError):
        power_iteration(IntMatrix.identity(2), tol=0.0)
    with pytest.raises(ValueError):
        power_iteration(IntMatrix([[1, -1], [0, 1]]))
    with pytest.raises(ValueError):
        power_iteration(IntMatrix.identity(2), max_iter=0)


# ---------------------------------------------------------------- Collatz-Wielandt bounds

def test_collatz_wielandt_bounds_name_the_end_and_row_that_fail():
    # rho = 3 with Perron vector (1, 2); (1, 1) has ratios 2 and 4.
    product = _apply(IntMatrix([[1, 1], [2, 2]]))
    assert _collatz_wielandt_failure(product([1, 2]), [1, 2], (3.0, 3.0)) == ""
    assert _collatz_wielandt_failure(product([1, 1]), [1, 1], (2.0, 4.0)) == ""
    assert _collatz_wielandt_failure(product([1, 1]), [1, 1], (2.5, 4.0)) == "row 1 below the lower end 2.5"
    assert _collatz_wielandt_failure(product([1, 1]), [1, 1], (2.0, 3.5)) == "row 2 above the upper end 3.5"


def test_collatz_wielandt_bounds_need_a_nonnegative_matrix_and_a_positive_vector():
    # The product is made by _apply, which refuses a negative entry; the
    # bound itself refuses a vector with an entry <= 0.
    with pytest.raises(ValueError, match="nonnegative"):
        _apply(IntMatrix([[1, -1], [0, 1]]))
    with pytest.raises(ValueError, match="the vector must be positive"):
        _collatz_wielandt_failure([1, 0], [1, 0], (1.0, 1.0))


def test_exact_routes_do_not_load_numpy():
    # No volentropy module imports numpy; a table of certified roots must
    # not start paying for loading it.
    code = (
        "import sys, volentropy; volentropy.entropy_table(3, 40); "
        "assert 'numpy' not in sys.modules, 'numpy was imported'"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_power_iteration_reports_non_convergence():
    # A period-3 weighted cycle defeats the length-8 window; the estimate
    # must come back flagged, not silently wrong.
    m = IntMatrix([[0, 2, 0], [0, 0, 3], [5, 0, 0]])
    est = power_iteration(m, tol=1e-14, max_iter=50)
    assert not est.converged


def test_power_iteration_markov_matrix():
    est = power_iteration(build_markov_from_blocks(PresentationSpec(4, True)))
    assert est.converged
    assert est.value == pytest.approx(6.979835779216, abs=1e-7)


@settings(max_examples=60)
@given(
    st.integers(2, 6).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 5), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
)
def test_power_iteration_between_row_sum_bounds(rows):
    m = IntMatrix(rows)
    est = power_iteration(m, max_iter=3000)
    sums = [sum(row) for row in m.rows]
    assert 0.0 <= est.value <= max(sums) + 1e-6
    if est.converged:
        # The spectral radius of a nonnegative matrix is pinched between the
        # extreme row sums; a converged estimate has to respect that.
        assert est.value >= min(sums) - 1e-6


# ---------------------------------------------------------------- char poly

def test_char_poly_identity_and_diagonal():
    assert char_poly_exact(IntMatrix.identity(3)) == IntPolynomial([-1, 3, -3, 1])
    d = IntMatrix([[2, 0], [0, 5]])
    assert char_poly_exact(d) == IntPolynomial([-2, 1]) * IntPolynomial([-5, 1])


def test_char_poly_companion():
    # Companion matrix of x^3 - 2x^2 + 7x - 4.
    m = IntMatrix([[0, 0, 4], [1, 0, -7], [0, 1, 2]])
    assert char_poly_exact(m) == IntPolynomial([-4, 7, -2, 1])


def test_char_poly_cycle():
    m = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert char_poly_exact(m) == IntPolynomial([-1, 0, 0, 1])


def test_char_poly_supercompacted_rank3():
    assert char_poly_exact(super_compacted_matrix(3)) == IntPolynomial([1, -4, -4, 1])


def test_char_poly_is_monic_with_det_constant():
    m = IntMatrix([[3, 1], [2, 4]])
    p = char_poly_exact(m)
    assert p.coeffs[-1] == 1
    assert p.coeffs[0] == 3 * 4 - 1 * 2  # det for even size


def int_square_matrices(max_k: int):
    """Square integer matrices up to max_k, dense or mostly zero."""
    dense = st.integers(-3, 3)
    sparse = st.sampled_from((0,) * 6 + (-3, -2, -1, 1, 2, 3))
    return st.tuples(st.integers(1, max_k), st.sampled_from((dense, sparse))).flatmap(
        lambda kc: st.lists(
            st.lists(kc[1], min_size=kc[0], max_size=kc[0]), min_size=kc[0], max_size=kc[0]
        )
    )


@settings(max_examples=80)
@given(int_square_matrices(8))
def test_char_poly_matches_naive_determinant(rows):
    m = IntMatrix(rows)
    assert char_poly_exact(m) == naive_char_poly(m)


@pytest.mark.parametrize("n", range(3, 13))
def test_char_poly_matches_the_dense_recurrence_on_the_reductions(n):
    for m in (compacted_matrix(n), divided_compacted_matrix(n), super_compacted_matrix(n)):
        assert char_poly_exact(m) == dense_char_poly(m)


# ---------------------------------------------------------------- irreducibility

def test_irreducible_examples():
    assert is_irreducible(super_compacted_matrix(3))
    assert is_irreducible(super_compacted_matrix(7))
    assert is_irreducible(IntMatrix([[0, 1], [1, 0]]))
    assert not is_irreducible(IntMatrix([[1, 1], [0, 1]]))
    assert not is_irreducible(IntMatrix.zeros(3))
    assert is_irreducible(IntMatrix([[1]]))


def test_markov_matrices_are_irreducible():
    for n, orientable in ((3, False), (4, True)):
        m = build_markov_from_blocks(PresentationSpec(n, orientable))
        assert is_irreducible(m)


# ---------------------------------------------------------------- dense oracle

def dense_power_iteration(m: IntMatrix, tol: float = 1e-10):
    """The dense numpy loop the sparse kernel replaced, same stop rules."""
    np = pytest.importorskip("numpy")
    a = np.array(m.rows, dtype=np.float64)
    v = np.ones(m.size, dtype=np.float64)
    window: list[float] = []
    smoothed, smoothed_prev = 0.0, None
    for it in range(1, 100 * m.size + 1001):
        w = a @ v
        growth = float(np.max(w))
        if growth == 0.0:
            return 0.0, it, True
        if np.array_equal(w, growth * v):
            return growth, it, True
        v = w / growth
        window = (window + [growth])[-8:]
        smoothed = math.exp(math.fsum(math.log(g) for g in window) / len(window))
        if smoothed_prev is not None and len(window) == 8:
            if abs(smoothed - smoothed_prev) <= tol:
                return smoothed, it, True
        smoothed_prev = smoothed
    return smoothed, 100 * m.size + 1000, False


def assert_matches_dense(m: IntMatrix) -> None:
    value, iterations, converged = dense_power_iteration(m)
    est = power_iteration(m)
    assert (est.iterations, est.converged) == (iterations, converged)
    assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", range(3, 11))
def test_sparse_power_iteration_matches_dense_numpy(n):
    pytest.importorskip("numpy")
    for orientable in (True, False):
        assert_matches_dense(
            build_markov_from_blocks(PresentationSpec(n, orientable, formal=True))
        )
    assert_matches_dense(compacted_matrix(n))
    assert_matches_dense(super_compacted_matrix(n))


def test_sparse_power_iteration_matches_dense_numpy_on_weights_and_zero_rows():
    pytest.importorskip("numpy")
    assert_matches_dense(IntMatrix([[0, 3, 1], [2, 0, 7], [1, 4, 0]]))
    assert_matches_dense(IntMatrix([[1, 1, 0], [0, 0, 0], [1, 0, 1]]))


# ---------------------------------------------------------------- operator

@pytest.mark.parametrize("n", [*range(3, 25), 40])
@pytest.mark.parametrize("orientable", [True, False])
def test_power_iteration_on_the_operator_matches_the_dense_matrix(n, orientable, image_rows):
    # The dense side is the images-route matrix, summed row by row as the
    # sparse-row pass sums an IntMatrix.  The operator sums each row in
    # another order, so the values may differ in the last bits, but never
    # the stop.
    sp = PresentationSpec(n, orientable, formal=True)
    dense = power_iteration(image_rows(sp))
    est = power_iteration(TransitionOperator(sp))
    assert (est.iterations, est.converged) == (dense.iterations, dense.converged)
    assert est.converged
    assert est.value == pytest.approx(dense.value, rel=1e-13, abs=0.0)

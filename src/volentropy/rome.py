"""Characteristic polynomials through a rome.

In the weighted digraph of a k x k matrix (edge i -> j iff the entry is
nonzero), a *rome* is a set of vertices R whose complement supports no cycle:
every road leads to R.  All spectral information then concentrates on the
simple paths between rome vertices, and the characteristic polynomial of the
whole matrix is a small determinant over the |R| x |R| path matrix, an
`IntPolynomial` one in y = x^-1.  One depth-first walk sums the widths of
the paths by length straight into that matrix; no path is stored.  That
shortcut is what makes the n x n supercompacted matrix tractable
symbolically: with the right two-vertex rome its characteristic polynomial
comes out in closed form.
"""

from __future__ import annotations

from .core import IntMatrix, IntPolynomial, LaurentPolynomial, _Frozen, _ints

__all__ = [
    "RomeSpec",
    "rome_check",
    "rome_matrix",
    "rome_char_poly",
    "q_polynomial",
]


# =====================================================================
# Romes
# =====================================================================

class RomeSpec(_Frozen):
    """An ordered set of 1-based vertex indices proposed as a rome."""

    __slots__ = ("nodes",)

    def __init__(self, nodes):
        self._init(tuple(sorted(set(_ints(nodes)))))
        if any(v < 1 for v in self.nodes):
            raise ValueError(f"rome nodes must be >= 1, got {self.nodes}")

    def __len__(self) -> int:
        return len(self.nodes)


def rome_check(m: IntMatrix, r: RomeSpec) -> bool:
    """True iff the subgraph induced on the complement of r is acyclic.

    Self-loops count as cycles.  Kahn's peeling over the complement's edges:
    a vertex goes once no edge into it is left; all go iff there is no cycle.
    """
    if r.nodes and r.nodes[-1] > m.size:
        raise ValueError(f"rome node {r.nodes[-1]} out of range for matrix of size {m.size}")
    rset = {v - 1 for v in r.nodes}
    alive = [i for i in range(m.size) if i not in rset]
    nonzero = m.nonzeros()
    indeg = [0] * m.size
    for i in alive:
        for j in nonzero[i][0]:
            indeg[j] += 1
    peeled = [i for i in alive if indeg[i] == 0]
    for i in peeled:
        for j in nonzero[i][0]:
            indeg[j] -= 1
            if indeg[j] == 0 and j not in rset:
                peeled.append(j)
    return len(peeled) == len(alive)


# =====================================================================
# The rome determinant formula
# =====================================================================

def _path_sums(m: IntMatrix, r: RomeSpec) -> list[list[list[int]]]:
    """The path matrix in y = x^-1: entry (i, j) lists by length (from 0,
    which no path has) the summed widths of the simple paths from rome
    vertex i to rome vertex j, those whose interior avoids the rome.

    One depth-first walk over out-edges with an explicit stack, so long paths
    do not hit the recursion limit; a frame holds (edges, length, width).  No
    visited set is needed: the guard proves the complement acyclic, so no
    walk can repeat an interior vertex and the walk is finite.
    """
    if not rome_check(m, r):
        raise ValueError("the given node set is not a rome for this matrix")
    pos = {v - 1: idx for idx, v in enumerate(r.nodes)}
    nonzero = m.nonzeros()
    grid = [[[0] for _ in r.nodes] for _ in r.nodes]
    for a, row in zip(r.nodes, grid):
        stack = [(zip(*nonzero[a - 1]), 1, 1)]
        while stack:
            edges, length, width = stack[-1]
            for j, w in edges:
                if j in pos:
                    sums = row[pos[j]]
                    sums.extend([0] * (length + 1 - len(sums)))
                    sums[length] += width * w
                else:
                    stack.append((zip(*nonzero[j]), length + 1, width * w))
                    break
            else:
                stack.pop()
    return grid


def rome_matrix(m: IntMatrix, r: RomeSpec) -> list[list[LaurentPolynomial]]:
    """The |R| x |R| path matrix: entry (i, j) sums width * x^(-length) over
    all simple paths from the i-th to the j-th rome vertex."""
    grid = _path_sums(m, r)
    return [[LaurentPolynomial(1 - len(c), c[::-1]) for c in row] for row in grid]


def _det(grid: list[list[IntPolynomial]]) -> IntPolynomial:
    """Determinant by Laplace expansion memoized on the active column set.

    Sharing minors between expansion branches costs one entry per column
    subset (2^k) instead of one chain per permutation (k!), which keeps
    dense romes of moderate size cheap.
    """
    size = len(grid)
    memo: dict[tuple[int, ...], IntPolynomial] = {(): IntPolynomial([1])}

    def expand(cols: tuple[int, ...]) -> IntPolynomial:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = grid[size - len(cols)]
        acc = IntPolynomial([0])
        for pos, col in enumerate(cols):
            entry = row[col]
            if entry.is_zero():
                continue
            term = entry * expand(cols[:pos] + cols[pos + 1 :])
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return expand(tuple(range(size)))


def rome_char_poly(m: IntMatrix, r: RomeSpec) -> IntPolynomial:
    """Characteristic polynomial det(xI - m) computed through the rome.

    The path matrix A satisfies det(xI - m) = (-1)^|R| x^k det(A - I), where
    det(A - I) = d_0 + d_1 y + ... + d_k y^k in y = x^-1.  So the result is
    the d_j reversed, negated when |R| is odd, and matches `char_poly_exact`.
    """
    grid = _path_sums(m, r)
    for i, row in enumerate(grid):
        row[i][0] -= 1
    det = _det([[IntPolynomial(c) for c in row] for row in grid])
    if det.degree > m.size:
        raise ValueError("rome paths longer than the matrix size; not a rome?")
    poly = IntPolynomial((det.coeffs + (0,) * (m.size + 1 - len(det.coeffs)))[::-1])
    return -poly if len(r.nodes) % 2 else poly


# =====================================================================
# The closed-form family
# =====================================================================

def q_polynomial(n: int) -> IntPolynomial:
    """The degree-n polynomial x^n - 2(n-1)(x^(n-1) + ... + x) + 1.

    Its unique root above 1 is the growth rate whose logarithm is the volume
    entropy of the rank-n presentations; at n = 2 it degenerates to (x-1)^2,
    matching entropy zero for the torus and Klein bottle.
    """
    if n < 2:
        raise ValueError(f"q polynomial needs n >= 2, got {n}")
    coeffs = [1] + [-2 * (n - 1)] * (n - 1) + [1]
    return IntPolynomial(coeffs)

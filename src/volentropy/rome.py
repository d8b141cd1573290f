"""Characteristic polynomials through a rome.

In the weighted digraph of a k x k matrix (edge i -> j iff the entry is
nonzero), a *rome* is a set of vertices R whose complement supports no cycle:
every road leads to R.  All spectral information then concentrates on the
simple paths between rome vertices, and the characteristic polynomial of the
whole matrix is a small determinant in x^-1 over the |R| x |R| path matrix.
That shortcut is what makes the n x n supercompacted matrix tractable
symbolically: with the right two-vertex rome its characteristic polynomial
comes out in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IntMatrix, IntPolynomial, LaurentPolynomial

__all__ = [
    "RomeSpec",
    "SimplePath",
    "rome_check",
    "enumerate_simple_paths",
    "rome_matrix",
    "rome_char_poly",
    "q_polynomial",
    "format_digraph",
]


# =====================================================================
# Romes and paths
# =====================================================================

@dataclass(frozen=True, slots=True)
class RomeSpec:
    """An ordered set of 1-based vertex indices proposed as a rome."""

    nodes: tuple[int, ...]

    def __init__(self, nodes):
        object.__setattr__(self, "nodes", tuple(sorted(set(int(v) for v in nodes))))
        if any(v < 1 for v in self.nodes):
            raise ValueError(f"rome nodes must be >= 1, got {self.nodes}")

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, slots=True)
class SimplePath:
    """A path between rome vertices whose interior avoids the rome.

    vertices -- 1-based vertex sequence, endpoints in the rome, interior
                vertices outside it and pairwise distinct
    width    -- product of the traversed matrix entries
    """

    vertices: tuple[int, ...]
    width: int

    @property
    def length(self) -> int:
        return len(self.vertices) - 1


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


def enumerate_simple_paths(m: IntMatrix, r: RomeSpec) -> list[SimplePath]:
    """All paths that start and end in the rome and avoid it in between.

    Depth-first over out-edges with an explicit stack, so long paths do not
    hit the recursion limit.  No visited set is needed: the guard proves the
    complement acyclic, so no walk can repeat an interior vertex and the
    enumeration is finite.  Paths are sorted by (start, end, length, vertices).
    """
    if not rome_check(m, r):
        raise ValueError("the given node set is not a rome for this matrix")
    rset = {v - 1 for v in r.nodes}
    nonzero = m.nonzeros()
    out: list[SimplePath] = []
    for a in r.nodes:
        path, stack = [a], [(zip(*nonzero[a - 1]), 1)]
        while stack:
            edges, width = stack[-1]
            for j, w in edges:
                if j in rset:
                    out.append(SimplePath((*path, j + 1), width * w))
                else:
                    path.append(j + 1)
                    stack.append((zip(*nonzero[j]), width * w))
                    break
            else:
                stack.pop()
                path.pop()
    out.sort(key=lambda p: (p.vertices[0], p.vertices[-1], p.length, p.vertices))
    return out


# =====================================================================
# The rome determinant formula
# =====================================================================

def rome_matrix(m: IntMatrix, r: RomeSpec) -> list[list[LaurentPolynomial]]:
    """The |R| x |R| path matrix: entry (i, j) sums width * x^(-length) over
    all simple paths from the i-th to the j-th rome vertex."""
    paths = enumerate_simple_paths(m, r)
    pos = {v: idx for idx, v in enumerate(r.nodes)}
    ell = len(r.nodes)
    grid = [[LaurentPolynomial.zero() for _ in range(ell)] for _ in range(ell)]
    for p in paths:
        i, j = pos[p.vertices[0]], pos[p.vertices[-1]]
        grid[i][j] = grid[i][j] + LaurentPolynomial.x_power(-p.length, p.width)
    return grid


def _laurent_det(grid: list[list[LaurentPolynomial]]) -> LaurentPolynomial:
    """Determinant by Laplace expansion memoized on the active column set.

    Sharing minors between expansion branches costs one entry per column
    subset (2^k) instead of one chain per permutation (k!), which keeps
    dense romes of moderate size cheap.
    """
    size = len(grid)
    memo: dict[tuple[int, ...], LaurentPolynomial] = {
        (): LaurentPolynomial.from_int(1)
    }

    def expand(cols: tuple[int, ...]) -> LaurentPolynomial:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        row = grid[size - len(cols)]
        acc = LaurentPolynomial.zero()
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

    The path matrix A(x) satisfies det(xI - m) = (-1)^|R| x^k det(A(x) - I);
    multiplying through by x^k clears the negative exponents and the sign
    factor makes the result monic, so it matches `char_poly_exact` exactly.
    """
    grid = rome_matrix(m, r)
    ell = len(r.nodes)
    for i in range(ell):
        grid[i][i] = grid[i][i] - LaurentPolynomial.from_int(1)
    det = _laurent_det(grid)
    shifted = det.times_x_power(m.size)
    if shifted.min_exponent < 0:
        raise ValueError("rome paths longer than the matrix size; not a rome?")
    poly = shifted.to_int_polynomial()
    if ell % 2 == 1:
        poly = -poly
    return poly


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


# =====================================================================
# Optional digraph emitter
# =====================================================================

def format_digraph(m: IntMatrix) -> str:
    """Edge list of the weighted digraph, one `i -> j [w]` line per edge."""
    return "\n".join(
        f"{i} -> {j + 1} [{w}]"
        for i, (cols, vals) in enumerate(m.nonzeros(), 1)
        for j, w in zip(cols, vals)
    )

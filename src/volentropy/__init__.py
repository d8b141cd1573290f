"""Volume entropy of minimal symmetric presentations of surface groups.

A rank-n surface group (orientable of genus n/2 for even n, non-orientable
of genus n otherwise) has a minimal geodesic presentation whose boundary
dynamics is captured by a 2n(2n-1) x 2n(2n-1) nonnegative transition matrix.
This package builds that matrix two independent ways, collapses it through a
chain of exact spectral-radius-preserving reductions down to an n x n matrix
and finally to a single degree-n polynomial, and certifies the volume entropy
log(growth rate) by rational-arithmetic bisection, cross-checked against
numerical power iteration at every stage.
"""

from .core import (
    IntMatrix,
    IntPolynomial,
    IntervalLabel,
    LaurentPolynomial,
    format_blocks,
    matrix_from_csv,
    matrix_to_csv,
    mod1,
    poly_eval,
    poly_reciprocal_check,
    slot_name,
)
from .entropy import (
    EntropyReport,
    EntropyTableRow,
    bounds_check,
    entropy_table,
    lambda_n,
    lambda_n_bracket,
    volume_entropy,
)
from .markov import (
    BlockKind,
    PresentationSpec,
    TransitionOperator,
    build_block,
    build_markov_from_blocks,
    build_markov_from_images,
    reference_rows,
)
from .reductions import (
    BlockView,
    check_J_commutation,
    compacted_matrix,
    divided_compacted_matrix,
    is_block_circulant,
    is_disoriented_block_circulant,
    sum_first_block_row,
    super_compacted_matrix,
)
from .rome import (
    RomeSpec,
    SimplePath,
    enumerate_simple_paths,
    format_digraph,
    q_polynomial,
    rome_char_poly,
    rome_check,
    rome_matrix,
)
from .spectral import (
    SpectralEstimate,
    char_poly_exact,
    is_irreducible,
    power_iteration,
)

__version__ = "0.1.0"

__all__ = [
    "mod1",
    "IntMatrix",
    "IntPolynomial",
    "LaurentPolynomial",
    "IntervalLabel",
    "slot_name",
    "poly_eval",
    "poly_reciprocal_check",
    "matrix_to_csv",
    "matrix_from_csv",
    "format_blocks",
    "PresentationSpec",
    "BlockKind",
    "build_block",
    "build_markov_from_images",
    "build_markov_from_blocks",
    "TransitionOperator",
    "reference_rows",
    "BlockView",
    "is_block_circulant",
    "sum_first_block_row",
    "is_disoriented_block_circulant",
    "check_J_commutation",
    "compacted_matrix",
    "divided_compacted_matrix",
    "super_compacted_matrix",
    "SpectralEstimate",
    "power_iteration",
    "char_poly_exact",
    "is_irreducible",
    "RomeSpec",
    "SimplePath",
    "rome_check",
    "enumerate_simple_paths",
    "rome_matrix",
    "rome_char_poly",
    "q_polynomial",
    "format_digraph",
    "EntropyReport",
    "EntropyTableRow",
    "lambda_n",
    "lambda_n_bracket",
    "bounds_check",
    "volume_entropy",
    "entropy_table",
    "__version__",
]

"""Volume entropy of minimal symmetric presentations of surface groups.

A rank-n surface group (orientable of genus n/2 for even n, non-orientable
of genus n otherwise) has a minimal geodesic presentation whose boundary
dynamics is captured by a 2n(2n-1) x 2n(2n-1) nonnegative transition matrix.
This package builds that matrix two independent ways, collapses it through a
chain of exact spectral-radius-preserving reductions down to an n x n matrix
and finally to a single degree-n polynomial, and certifies the volume entropy
log(growth rate) by exact signs, cross-checked by exact integer bounds on
the spectral radius of the transition matrix and its reductions.
"""

from . import core, entropy, markov, reductions, rome, spectral
from .core import *
from .entropy import *
from .markov import *
from .reductions import *
from .rome import *
from .spectral import *

__version__ = "0.1.0"

# Each layer's __all__ names its public API; the package re-exports them all.
__all__ = [
    *core.__all__,
    *markov.__all__,
    *reductions.__all__,
    *spectral.__all__,
    *rome.__all__,
    *entropy.__all__,
    "__version__",
]

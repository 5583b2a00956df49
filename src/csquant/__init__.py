"""Coherent-state quantization toolkit for constrained oscillator models.

Truncated Fock spaces, canonical and SU(2) coherent states, spectral
constraint projectors, reduced-phase-space geometry, correlation ratios as
sums over the constraint sector with their classical limit, and discrete
Wiener-measure estimators, run as the eight experiments of the batch CLI.
"""

from ._kernels import backend_name
from .fock import FockSpace, LinearOperator, make_space
from .coherent import coherent_vector

__version__ = "0.1.0"

__all__ = [
    "FockSpace",
    "LinearOperator",
    "make_space",
    "coherent_vector",
    "backend_name",
    "__version__",
]

"""Coherent-state quantization toolkit for constrained oscillator models.

Truncated Fock-space operator algebra, canonical and SU(2) coherent
states, spectral constraint projectors with a sin-kernel oracle,
reduced-phase-space geometry, correlation functions with classical
limits, and discrete Wiener-measure estimators, with a batch CLI exposing
the standard experiments.
"""

from ._kernels import backend_name
from .fock import FockSpace, FockVector, LinearOperator, make_space
from .coherent import CoherentLabel, KernelValue, coherent_vector, overlap_analytic

__version__ = "0.1.0"

__all__ = [
    "FockSpace",
    "FockVector",
    "LinearOperator",
    "make_space",
    "CoherentLabel",
    "KernelValue",
    "coherent_vector",
    "overlap_analytic",
    "backend_name",
    "__version__",
]

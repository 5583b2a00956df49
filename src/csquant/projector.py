"""Projection onto the near-kernel of a first-class constraint operator.

Both oscillator models carry a single constraint, a number operator minus
a real target, which is diagonal in the occupation basis.  A constraint is
therefore stored as its eigenvalue per basis state, and its projector as a
weight per basis state (build_projector): a projected state is that weight
vector times the state's amplitudes.  A projected norm below NULL_NORM
counts as a null projection.
The weights are spectral-interval weights: eigenvalues of the constraint
within (-eps, eps) get weight 1, exactly on the boundary weight 1/2,
outside 0.

The sin-kernel measure (sin_kernel_weights) is the quadrature estimate
that the Wiener experiment scores against the spectral weights: the
finite-range integral int_{-L}^{L} exp(i t Phi) sin(eps t)/(pi t) dt,
evaluated exactly per eigenvalue x as [Si(L(x+eps)) - Si(L(x-eps))]/pi
(DLMF 6.2), which converges to the spectral weights as L grows.  The
integrand decays only like 1/t, so L must scale like
1/(eps * SIN_KERNEL_TOL); default_lam_max chooses it from that bound.
_sine_integral evaluates Si with numpy alone: its Maclaurin series up to
|x| = 4 and, beyond, pi/2 - f(x) cos x - g(x) sin x with the auxiliary
functions f and g (DLMF 6.2, 6.7) integrated by a Gauss-Laguerre rule.

Projecting a coherent state keeps one total-occupation sector: empty when
the target is not near an integer, which is how energy quantization shows
up here as observed behavior rather than an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .fock import FockSpace

BOUNDARY_TOL = 1e-12
NULL_NORM = 1e-12
SIN_KERNEL_TOL = 1e-4

# Si's Maclaurin coefficients (-1)^k / ((2k+1) (2k+1)!): at |x| = 4 the last term is below 1e-24
_SI_SERIES = np.array([(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(20)])
# 60-node Gauss-Laguerre rule for f and g past |x| = 4: it matches Si to ~2e-15 there
_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = laggauss(60)
_LAGUERRE_NODES_SQ = _LAGUERRE_NODES**2
_SI_CHUNK = 4096  # arguments per (chunk x nodes) block of the Laguerre sums


@dataclass(frozen=True, eq=False)
class ConstraintOp:
    """Diagonal constraint: its eigenvalue (occupation minus target) per basis state."""

    space: FockSpace
    eigs: np.ndarray
    target: float

    def __post_init__(self):
        eigs = np.array(self.eigs, dtype=np.float64)
        if eigs.shape != (self.space.dim,):
            raise ValueError(f"constraint needs {self.space.dim} eigenvalues")
        eigs.flags.writeable = False
        object.__setattr__(self, "eigs", eigs)

    def eigensystem(self) -> np.ndarray:
        """Eigenvalues in basis order; the occupation basis is the eigenbasis."""
        return self.eigs


def single_constraint(space: FockSpace, target: float) -> ConstraintOp:
    """Number operator of mode 0 minus target."""
    return ConstraintOp(space, space.mode_occupations(0) - target, float(target))


def double_constraint(space: FockSpace, target: float) -> ConstraintOp:
    """Total number operator of a two-mode space minus target."""
    if space.modes != 2:
        raise ValueError("double constraint needs a two-mode space")
    return ConstraintOp(space, space.total_occupations() - target, float(target))


def default_lam_max(epsilon: float, eigs: np.ndarray) -> float:
    """Integration range for the 1/t-decaying sin-kernel integrand.

    The truncation error at eigenvalue x is bounded by Dirichlet tails
    ~ (1/pi) / (|x - eps| L) + (1/pi) / (|x + eps| L), so L must scale with
    the inverse distance of the spectrum to the window edges; it is chosen
    to keep that error below SIN_KERNEL_TOL.
    """
    gap = float(np.min(np.minimum(np.abs(eigs - epsilon), np.abs(eigs + epsilon))))
    if gap < 1e-6:
        raise ValueError(
            "constraint eigenvalue sits on the epsilon window boundary; "
            "the sin-kernel quadrature cannot converge there"
        )
    return 2.2 / (math.pi * SIN_KERNEL_TOL * gap)


def sin_kernel_weights(eigs: np.ndarray, eps: float, lam_max: float) -> np.ndarray:
    """int_{-L}^{L} e^{i t x} sin(eps t)/(pi t) dt per eigenvalue x, in closed form.

    The integrand's odd part cancels, leaving
    (1/pi) int_0^L [sin((x+eps) t) - sin((x-eps) t)]/t dt
    = [Si(L(x+eps)) - Si(L(x-eps))]/pi, which is real.
    """
    eigs = np.asarray(eigs, dtype=np.float64)
    return (_sine_integral(lam_max * (eigs + eps)) - _sine_integral(lam_max * (eigs - eps))) / math.pi


def _sine_integral(x: np.ndarray) -> np.ndarray:
    """Si(x) = int_0^x sin(t)/t dt, elementwise, to ~2e-15 absolute.

    |x| <= 4: the Maclaurin series sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!),
    by Horner's rule in x^2.  |x| > 4: Si(x) = pi/2 - f(x) cos x - g(x) sin x
    with f(x) = int_0^inf e^(-u) x / (x^2 + u^2) du and
    g(x) = int_0^inf e^(-u) u / (x^2 + u^2) du (DLMF 6.7(iii) with t = u/x),
    both smooth in u for |x| > 4, by the 60-node Gauss-Laguerre rule.  Si is
    odd, so negative arguments take the sign of x.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax <= 4.0
    x2 = ax[small] ** 2
    series = np.full_like(x2, _SI_SERIES[-1])
    for c in _SI_SERIES[-2::-1]:
        series *= x2
        series += c
    out[small] = series * ax[small]
    large = np.flatnonzero(~small)
    for lo in range(0, large.size, _SI_CHUNK):
        idx = large[lo : lo + _SI_CHUNK]
        xl = ax[idx]
        inv = _LAGUERRE_WEIGHTS / (xl[:, None] ** 2 + _LAGUERRE_NODES_SQ)
        f = xl * inv.sum(axis=1)
        g = inv @ _LAGUERRE_NODES
        out[idx] = 0.5 * math.pi - f * np.cos(xl) - g * np.sin(xl)
    return np.copysign(out, x)


def build_projector(constraint: ConstraintOp, epsilon: float = 0.1) -> np.ndarray:
    """Spectral-interval weight per basis state: 1 for |eigenvalue| < epsilon, 1/2 on the edge, else 0.

    A projected state is this vector times the state's amplitudes.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 1/2)")
    eigs = constraint.eigensystem()
    w = np.where(np.abs(eigs) < epsilon, 1.0, 0.0)
    w[np.abs(np.abs(eigs) - epsilon) <= BOUNDARY_TOL] = 0.5
    return w

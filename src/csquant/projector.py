"""Projection onto the near-kernel of a first-class constraint operator.

Both oscillator models carry a single constraint, the total number
operator of their one or two modes minus a real target
(number_constraint), which is diagonal in the occupation basis.  A
constraint is therefore stored as its eigenvalue per basis state, and its
projector as a weight per basis state (build_projector): a projected
state is that weight vector times the state's amplitudes.  The weights
are spectral-interval weights: eigenvalues of the constraint within
(-eps, eps) get weight 1, exactly on the boundary weight 1/2, outside 0.

The sin-kernel measure (sin_kernel_weights) is the quadrature estimate
that the Wiener experiment scores against the spectral weights: the
finite-range integral int_{-L}^{L} exp(i t Phi) sin(eps t)/(pi t) dt,
evaluated exactly per eigenvalue x as [Si(L(x+eps)) - Si(L(x-eps))]/pi
(DLMF 6.2), which converges to the spectral weights as L grows.  The
integrand decays only like 1/t, so L must scale like
1/(eps * SIN_KERNEL_TOL); default_lam_max chooses it from that bound,
and sin_kernel_weights applies it itself.  That L puts every Si argument
at least 2.2/(pi * SIN_KERNEL_TOL) ~ 7003 from zero, where two terms of
the asymptotic series of Si's auxiliary functions f and g (DLMF 6.2,
6.12(ii)) are exact to roundoff, so _sine_integral is one numpy
expression.

Projecting a coherent state keeps one total-occupation sector: empty when
the target is not near an integer, which is how energy quantization shows
up here as observed behavior rather than an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace

BOUNDARY_TOL = 1e-12
SIN_KERNEL_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class ConstraintOp:
    """Diagonal constraint: its eigenvalue (occupation minus target) per basis state."""

    space: FockSpace
    eigs: np.ndarray

    def __post_init__(self):
        eigs = np.array(self.eigs, dtype=np.float64)
        eigs.flags.writeable = False
        object.__setattr__(self, "eigs", eigs)

    def eigensystem(self) -> np.ndarray:
        """Eigenvalues in basis order; the occupation basis is the eigenbasis."""
        return self.eigs


def number_constraint(space: FockSpace, target: float) -> ConstraintOp:
    """Total number operator of the space's modes minus target: one mode for the single model, two for the double."""
    return ConstraintOp(space, space.total_occupations() - target)


def default_lam_max(epsilon: float, eigs: np.ndarray) -> float:
    """Integration range for the 1/t-decaying sin-kernel integrand.

    The truncation error at eigenvalue x is bounded by Dirichlet tails
    ~ (1/pi) / (|x - eps| L) + (1/pi) / (|x + eps| L), so L must scale with
    the inverse distance of the spectrum to the window edges; it is chosen
    to keep that error below SIN_KERNEL_TOL.
    """
    gap = float(np.min(np.minimum(np.abs(eigs - epsilon), np.abs(eigs + epsilon))))
    return 2.2 / (math.pi * SIN_KERNEL_TOL * gap)


def sin_kernel_weights(eigs: np.ndarray, eps: float) -> np.ndarray:
    """int_{-L}^{L} e^{i t x} sin(eps t)/(pi t) dt per eigenvalue x, in closed form, at L = default_lam_max.

    The integrand's odd part cancels, leaving
    (1/pi) int_0^L [sin((x+eps) t) - sin((x-eps) t)]/t dt
    = [Si(L(x+eps)) - Si(L(x-eps))]/pi, which is real.
    """
    eigs = np.asarray(eigs, dtype=np.float64)
    lam_max = default_lam_max(eps, eigs)
    return (_sine_integral(lam_max * (eigs + eps)) - _sine_integral(lam_max * (eigs - eps))) / math.pi


def _sine_integral(x: np.ndarray) -> np.ndarray:
    """Si(x) = int_0^x sin(t)/t dt, elementwise, for |x| >= 2.2/(pi * SIN_KERNEL_TOL) ~ 7003 only.

    That floor is L times the spectrum's gap to the window edges at
    L = default_lam_max, so sin_kernel_weights forms no smaller argument
    (to the one rounding of L).  Si(x) = pi/2 - f(x) cos x - g(x) sin x for
    x > 0, with two terms each of f ~ (1 - 2/x^2 + 24/x^4 ...)/x and
    g ~ (1 - 6/x^2 + 120/x^4 ...)/x^2 (DLMF 6.2, 6.12(ii)); each remainder
    is bounded by its first neglected term, 24/|x|^5 <= 1.5e-18 and
    120/x^6 <= 1e-21 here.  Si is odd, so negative arguments take the sign of x.
    """
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    inv2 = 1.0 / ax**2
    out = 0.5 * math.pi - (1.0 - 2.0 * inv2) * np.cos(ax) / ax - (1.0 - 6.0 * inv2) * np.sin(ax) * inv2
    return np.copysign(out, x)


def build_projector(constraint: ConstraintOp, epsilon: float = 0.1) -> np.ndarray:
    """Spectral-interval weight per basis state: 1 for |eigenvalue| < epsilon, 1/2 on the edge, else 0.

    A projected state is this vector times the state's amplitudes.
    """
    eigs = constraint.eigensystem()
    w = np.where(np.abs(eigs) < epsilon, 1.0, 0.0)
    w[np.abs(np.abs(eigs) - epsilon) <= BOUNDARY_TOL] = 0.5
    return w

"""Projection onto the near-kernel of a first-class constraint operator.

Both oscillator models carry a single constraint, a number operator minus
a real target, which is diagonal in the occupation basis.  A constraint is
therefore stored as its eigenvalue per basis state, and its projector as a
weight per basis state: projecting a vector is an elementwise product.
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

Projecting a coherent state keeps one total-occupation sector: empty when
the target is not near an integer, which is how energy quantization shows
up here as observed behavior rather than an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .fock import FockSpace, FockVector

BOUNDARY_TOL = 1e-12
NULL_NORM = 1e-12
SIN_KERNEL_TOL = 1e-4


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


@dataclass(frozen=True)
class ProjectorSpec:
    """Constraint plus the half-width of its spectral window."""

    constraint: ConstraintOp
    epsilon: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")


def _spectral_weights(eigs: np.ndarray, eps: float) -> np.ndarray:
    w = np.where(np.abs(eigs) < eps, 1.0, 0.0)
    w[np.abs(np.abs(eigs) - eps) <= BOUNDARY_TOL] = 0.5
    return w


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
    si_hi, _ = special.sici(lam_max * (eigs + eps))
    si_lo, _ = special.sici(lam_max * (eigs - eps))
    return (si_hi - si_lo) / math.pi


def build_projector(spec: ProjectorSpec) -> np.ndarray:
    """The projector's spectral-interval weight per basis state."""
    return _spectral_weights(spec.constraint.eigensystem(), spec.epsilon)


@dataclass(frozen=True, eq=False)
class PhysicalState:
    """Result of projecting a vector; null when nothing survives."""

    spec: ProjectorSpec
    vec: FockVector | None
    norm_in_full_space: float
    gauge_phase: complex | None = None

    @property
    def is_null(self) -> bool:
        return self.vec is None


def project(spec: ProjectorSpec, v: FockVector) -> PhysicalState:
    if v.space != spec.constraint.space:
        raise ValueError("vector lives on a different space than the constraint")
    amps = build_projector(spec) * v.amps
    norm = float(np.linalg.norm(amps))
    if norm < NULL_NORM:
        return PhysicalState(spec=spec, vec=None, norm_in_full_space=norm)
    return PhysicalState(spec=spec, vec=FockVector(v.space, amps), norm_in_full_space=norm)


def _extract_gauge_phase(state: PhysicalState) -> complex | None:
    """Phase of the |m> (one mode) or |0, m> (two modes) component; (beta/|beta|)^m for coherent input."""
    space = state.spec.constraint.space
    m = int(round(state.spec.constraint.target))
    if space.modes > 2 or not 0 <= m <= space.nmax:
        return None
    c = state.vec.amps[space.index((0,) * (space.modes - 1) + (m,))]
    return c / abs(c) if abs(c) > 0.0 else None


def normalize_physical(state: PhysicalState) -> PhysicalState:
    if state.is_null:
        raise ValueError("no physical component to normalize")
    unit = FockVector(state.vec.space, state.vec.amps / state.norm_in_full_space)
    normalized = replace(state, vec=unit)
    return replace(normalized, gauge_phase=_extract_gauge_phase(normalized))

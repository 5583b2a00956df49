"""Projection onto the near-kernel of a first-class constraint operator.

Both oscillator models carry a single constraint, a number operator minus
a real target, which is diagonal in the occupation basis.  A constraint is
therefore stored as its eigenvalue per basis state, and its projector as a
weight per basis state: projecting a vector is an elementwise product.
Two constructions of the weights are kept side by side:

* spectral-interval (primary): eigenvalues of the constraint within
  (-eps, eps) get weight 1, exactly on the boundary weight 1/2, outside 0.
* sin-kernel measure (oracle): the finite-range integral
  int_{-L}^{L} exp(i t Phi) sin(eps t)/(pi t) dt, evaluated exactly per
  eigenvalue x as [Si(L(x+eps)) - Si(L(x-eps))]/pi (DLMF 6.2), which
  converges to the spectral answer as L grows.  The integrand decays only
  like 1/t, so L must scale like 1/(eps * tol); the default is chosen from
  that bound.

Projecting a coherent state keeps one total-occupation sector: empty when
the target is not near an integer, which is how energy quantization shows
up here as observed behavior rather than an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special
from scipy.linalg import expm

from .coherent import CoherentLabel, KernelValue, coherent_vector
from .fock import FockSpace, FockVector, LinearOperator

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


def single_constraint(space: FockSpace, target: float, mode: int = 0) -> ConstraintOp:
    """Number operator of one mode minus target."""
    return ConstraintOp(space, space.mode_occupations(mode) - target, float(target))


def double_constraint(space: FockSpace, target: float) -> ConstraintOp:
    """Total number operator of a two-mode space minus target."""
    if space.modes != 2:
        raise ValueError("double constraint needs a two-mode space")
    return ConstraintOp(space, space.total_occupations() - target, float(target))


@dataclass(frozen=True)
class ProjectorSpec:
    """Constraint plus interval half-width and the measure used to build P."""

    constraint: ConstraintOp
    epsilon: float = 0.1
    measure: str = "spectral"
    lam_max: float | None = None

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError("epsilon must lie in (0, 1/2)")
        if self.measure not in ("spectral", "sin-kernel"):
            raise ValueError("measure must be 'spectral' or 'sin-kernel'")


def _spectral_weights(eigs: np.ndarray, eps: float) -> np.ndarray:
    w = np.where(np.abs(eigs) < eps, 1.0, 0.0)
    w[np.abs(np.abs(eigs) - eps) <= BOUNDARY_TOL] = 0.5
    return w


def default_lam_max(epsilon: float, eigs=None, tol: float = SIN_KERNEL_TOL) -> float:
    """Integration range for the 1/t-decaying sin-kernel integrand.

    The truncation error at eigenvalue x is bounded by Dirichlet tails
    ~ (1/pi) / (|x - eps| L) + (1/pi) / (|x + eps| L), so L must scale with
    the inverse distance of the spectrum to the window edges (just eps when
    the spectrum is unknown).
    """
    gap = epsilon
    if eigs is not None and np.size(eigs):
        gap = float(np.min(np.minimum(np.abs(eigs - epsilon), np.abs(eigs + epsilon))))
        if gap < 1e-6:
            raise ValueError(
                "constraint eigenvalue sits on the epsilon window boundary; "
                "the sin-kernel quadrature cannot converge there"
            )
    return 2.2 / (math.pi * tol * gap)


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
    """The projector's weight per basis state; sin-kernel mode is validated against spectral."""
    eigs = spec.constraint.eigensystem()
    w_spec = _spectral_weights(eigs, spec.epsilon)
    if spec.measure == "spectral":
        return w_spec
    lam_max = spec.lam_max if spec.lam_max is not None else default_lam_max(spec.epsilon, eigs)
    w_sin = sin_kernel_weights(eigs, spec.epsilon, lam_max)
    resid = float(np.max(np.abs(w_sin - w_spec)))
    if resid > SIN_KERNEL_TOL:
        raise RuntimeError(
            f"sin-kernel quadrature residual {resid:.3e} exceeds {SIN_KERNEL_TOL:.0e} "
            f"(lam_max={lam_max:.3g} under-resolved; the tail decays like 1/lam_max)"
        )
    return w_sin


def sin_kernel_residual(spec: ProjectorSpec) -> float:
    """max |sin-kernel weights - spectral weights| at the constraint's spectrum."""
    eigs = spec.constraint.eigensystem()
    lam_max = spec.lam_max if spec.lam_max is not None else default_lam_max(spec.epsilon, eigs)
    w_sin = sin_kernel_weights(eigs, spec.epsilon, lam_max)
    return float(np.max(np.abs(w_sin - _spectral_weights(eigs, spec.epsilon))))


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
    space = state.spec.constraint.space
    target = state.spec.constraint.target
    m = int(round(target))
    amps = state.vec.amps
    if space.modes == 1:
        if 0 <= m <= space.nmax:
            c = amps[m]
            if abs(c) > 0.0:
                return c / abs(c)
        return None
    if space.modes == 2:
        # phase of the |0, m> component, i.e. (beta/|beta|)^m for coherent input
        if 0 <= m <= space.nmax:
            c = amps[space.index((0, m))]
            if abs(c) > 0.0:
                return c / abs(c)
        return None
    return None


def normalize_physical(state: PhysicalState) -> PhysicalState:
    if state.is_null:
        raise ValueError("no physical component to normalize")
    unit = FockVector(state.vec.space, state.vec.amps / state.norm_in_full_space)
    normalized = replace(state, vec=unit)
    return replace(normalized, gauge_phase=_extract_gauge_phase(normalized))


@dataclass(frozen=True)
class IdentityReport:
    idempotency: float
    hermiticity: float
    gauge: dict
    evolution: dict

    def max_residual(self) -> float:
        vals = [self.idempotency, self.hermiticity]
        vals += list(self.gauge.values()) + list(self.evolution.values())
        return max(vals)


def projector_identities(
    spec: ProjectorSpec,
    hamiltonian: LinearOperator,
    sigmas=(0.3, 1.7, math.pi),
    times=(0.5, 2.0),
    hbar: float = 1.0,
) -> IdentityReport:
    """Residuals of P^2 = P, P+ = P, exp(i s Phi) P = P and [P, U(t)] = 0.

    P and Phi are diagonal, so the first three are elementwise on the
    weights w and eigenvalues x; [P, U]_ij = (w_i - w_j) U_ij.  The
    evolution check needs [H, Phi] = 0, which holds for both models
    (H is an affine function of the constraint there).
    """
    w = build_projector(spec)
    eigs = spec.constraint.eigensystem()
    report_gauge = {
        sigma: float(np.max(np.abs((np.exp(1j * sigma * eigs) - 1.0) * w))) for sigma in sigmas
    }
    report_evo = {}
    for t in times:
        u = expm(-1j * t / hbar * hamiltonian.mat)
        report_evo[t] = float(np.max(np.abs(np.subtract.outer(w, w) * u)))
    return IdentityReport(
        idempotency=float(np.max(np.abs(w * w - w))),
        hermiticity=float(np.max(np.abs(w - np.conj(w)))),
        gauge=report_gauge,
        evolution=report_evo,
    )


def _labels_to_vector(space: FockSpace, labels) -> FockVector:
    if isinstance(labels, CoherentLabel):
        labels = (labels,)
    alphas = [lab.alpha for lab in labels]
    return coherent_vector(space, alphas)


def projected_propagator(spec: ProjectorSpec, labels_bra, labels_ket) -> KernelValue:
    """<coherent(bra)| P |coherent(ket)> on the constraint's space."""
    space = spec.constraint.space
    v_bra = _labels_to_vector(space, labels_bra)
    v_ket = _labels_to_vector(space, labels_ket)
    return KernelValue(complex(np.vdot(v_bra.amps, build_projector(spec) * v_ket.amps)))


def physical_subspace_dim(constraint: ConstraintOp, epsilon: float) -> int:
    """Number of constraint eigenvalues within the epsilon window."""
    return int(np.count_nonzero(np.abs(constraint.eigensystem()) < epsilon))

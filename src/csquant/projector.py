"""Projection onto the near-kernel of a first-class constraint operator.

Both oscillator models carry a single constraint, a number operator minus
a real target, which is diagonal in the occupation basis.  A constraint is
therefore stored as its eigenvalue per basis state, and its projector as a
weight per basis state: projecting a vector is an elementwise product.
The weights are spectral-interval weights: eigenvalues of the constraint
within (-eps, eps) get weight 1, exactly on the boundary weight 1/2,
outside 0.

The sin-kernel measure is kept only as an oracle (sin_kernel_weights,
sin_kernel_residual): the finite-range integral
int_{-L}^{L} exp(i t Phi) sin(eps t)/(pi t) dt, evaluated exactly per
eigenvalue x as [Si(L(x+eps)) - Si(L(x-eps))]/pi (DLMF 6.2), which
converges to the spectral weights as L grows.  The integrand decays only
like 1/t, so L must scale like 1/(eps * SIN_KERNEL_TOL); default_lam_max
chooses it from that bound.

Projecting a coherent state keeps one total-occupation sector: empty when
the target is not near an integer, which is how energy quantization shows
up here as observed behavior rather than an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

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


def sin_kernel_residual(spec: ProjectorSpec) -> float:
    """max |sin-kernel weights - spectral weights| at the constraint's spectrum."""
    eigs = spec.constraint.eigensystem()
    w_sin = sin_kernel_weights(eigs, spec.epsilon, default_lam_max(spec.epsilon, eigs))
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
    hbar: float = 1.0,
) -> IdentityReport:
    """Residuals of P^2 = P, P+ = P, exp(i s Phi) P = P and [P, U(t)] = 0 at t = 0.5, 2.

    P and Phi are diagonal, so the first three are elementwise on the
    weights w and eigenvalues x; [P, U]_ij = (w_i - w_j) U_ij.  The
    evolution check needs [H, Phi] = 0, which holds for both models
    (H is an affine function of the constraint there).  U(t) comes from
    the eigendecomposition of the Hermitian H; a non-Hermitian H raises
    ValueError.
    """
    ham = hamiltonian.mat
    if not np.allclose(ham, ham.conj().T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(ham))))):
        raise ValueError("hamiltonian must be Hermitian")
    w = build_projector(spec)
    eigs = spec.constraint.eigensystem()
    report_gauge = {
        sigma: float(np.max(np.abs((np.exp(1j * sigma * eigs) - 1.0) * w))) for sigma in sigmas
    }
    energies, vecs = np.linalg.eigh(ham)
    report_evo = {}
    for t in (0.5, 2.0):
        u = (vecs * np.exp(-1j * t / hbar * energies)) @ vecs.conj().T
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

"""Projection onto the near-kernel of a first-class constraint operator.

Two constructions of the projector are kept side by side:

* spectral-interval (primary): eigenvalues of the constraint within
  (-eps, eps) get weight 1, exactly on the boundary weight 1/2, outside 0.
  For the diagonal constraints used here this is exact.
* sin-kernel measure (oracle): the finite-range integral
  int_{-L}^{L} exp(i t Phi) sin(eps t)/(pi t) dt, evaluated exactly per
  eigenvalue x as [Si(L(x+eps)) - Si(L(x-eps))]/pi (DLMF 6.2), which
  converges to the spectral answer as L grows.  The integrand decays only
  like 1/t, so L must scale like 1/(eps * tol); the default is chosen from
  that bound.

Both oscillator models carry a single diagonal constraint (number operator
minus a real target), so projecting a coherent state keeps one
total-occupation sector: empty when the target is not near an integer,
which is how energy quantization shows up here as observed behavior rather
than an input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special
from scipy.linalg import expm

from .coherent import CoherentLabel, KernelValue, coherent_vector
from .fock import FockSpace, FockVector, LinearOperator, from_diagonal, total_number_operator, number_operator

BOUNDARY_TOL = 1e-12
NULL_NORM = 1e-12
SIN_KERNEL_TOL = 1e-4


@dataclass(frozen=True, eq=False)
class ConstraintOp:
    """Hermitian constraint operator with its target eigenvalue split off."""

    op: LinearOperator
    target: float
    label: str

    @property
    def space(self) -> FockSpace:
        return self.op.space

    def eigensystem(self):
        """(eigenvalues, eigenvectors or None).  None means already diagonal."""
        mat = self.op.mat
        off = mat - np.diag(np.diag(mat))
        if np.max(np.abs(off)) == 0.0:
            return np.real(np.diag(mat)).copy(), None
        vals, vecs = np.linalg.eigh(mat)
        return vals, vecs


def single_constraint(space: FockSpace, target: float, mode: int = 0) -> ConstraintOp:
    """Number operator of one mode minus target."""
    n = number_operator(space, mode)
    op = from_diagonal(space, np.real(np.diag(n.mat)) - target)
    return ConstraintOp(op=op, target=float(target), label="single")

def double_constraint(space: FockSpace, target: float) -> ConstraintOp:
    """Total number operator of a two-mode space minus target."""
    if space.modes != 2:
        raise ValueError("double constraint needs a two-mode space")
    n = total_number_operator(space)
    op = from_diagonal(space, np.real(np.diag(n.mat)) - target)
    return ConstraintOp(op=op, target=float(target), label="double")


def model_constraint(model: str, space: FockSpace, target: float) -> ConstraintOp:
    if model == "single":
        return single_constraint(space, target)
    if model == "double":
        return double_constraint(space, target)
    raise ValueError(f"unknown model {model!r}")


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


def _assemble(space, weights, vecs) -> LinearOperator:
    if vecs is None:
        return from_diagonal(space, weights)
    return LinearOperator(space, (vecs * weights) @ vecs.conj().T)


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


def build_projector(spec: ProjectorSpec) -> LinearOperator:
    """The projector for `spec`; sin-kernel mode is validated against spectral."""
    eigs, vecs = spec.constraint.eigensystem()
    w_spec = _spectral_weights(eigs, spec.epsilon)
    if spec.measure == "spectral":
        return _assemble(spec.constraint.space, w_spec, vecs)
    lam_max = spec.lam_max if spec.lam_max is not None else default_lam_max(spec.epsilon, eigs)
    w_sin = sin_kernel_weights(eigs, spec.epsilon, lam_max)
    resid = float(np.max(np.abs(w_sin - w_spec)))
    if resid > SIN_KERNEL_TOL:
        raise RuntimeError(
            f"sin-kernel quadrature residual {resid:.3e} exceeds {SIN_KERNEL_TOL:.0e} "
            f"(lam_max={lam_max:.3g} under-resolved; the tail decays like 1/lam_max)"
        )
    return _assemble(spec.constraint.space, w_sin, vecs)


def sin_kernel_residual(spec: ProjectorSpec) -> float:
    """max |sin-kernel weights - spectral weights| at the constraint's spectrum."""
    eigs, _ = spec.constraint.eigensystem()
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
    proj = build_projector(spec)
    w = proj.mat @ v.amps
    norm = float(np.linalg.norm(w))
    if norm < NULL_NORM:
        return PhysicalState(spec=spec, vec=None, norm_in_full_space=norm)
    return PhysicalState(spec=spec, vec=FockVector(v.space, w), norm_in_full_space=norm)


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

    The evolution check needs [H, Phi] = 0, which holds for both models
    (H is an affine function of the constraint there).
    """
    proj = build_projector(spec).mat
    phi = spec.constraint.op.mat
    report_gauge = {}
    for s in sigmas:
        g = expm(1j * s * phi)
        report_gauge[s] = float(np.max(np.abs(g @ proj - proj)))
    report_evo = {}
    for t in times:
        u = expm(-1j * t / hbar * hamiltonian.mat)
        report_evo[t] = float(np.max(np.abs(proj @ u - u @ proj)))
    return IdentityReport(
        idempotency=float(np.max(np.abs(proj @ proj - proj))),
        hermiticity=float(np.max(np.abs(proj - proj.conj().T))),
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
    proj = build_projector(spec)
    return KernelValue(complex(np.vdot(v_bra.amps, proj.mat @ v_ket.amps)))


def physical_subspace_dim(constraint: ConstraintOp, epsilon: float) -> int:
    """Number of constraint eigenvalues within the epsilon window."""
    eigs, _ = constraint.eigensystem()
    return int(np.count_nonzero(np.abs(eigs) < epsilon))

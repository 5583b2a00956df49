"""Classical side of the reparameterization-invariant oscillator models.

Dynamics is generated by H_T = lambda * (H - E) with H = sum_i (p_i^2 +
omega^2 q_i^2)/2, so trajectories depend on the lapse lambda(t) only
through the proper time tau = int lambda dt:

    q_i(tau) = A_i cos(omega tau + phi_i)
    p_i(tau) = -A_i omega sin(omega tau + phi_i)

with the amplitude(s) fixed by the constraint H = E, i.e.
sum_i (A_i omega)^2 = 2E.  (Single oscillator: A = sqrt(2E)/omega.)

Reduced-phase-space geometry of the two-oscillator model works in rescaled
dimensionless coordinates p -> p/sqrt(omega hbar), q -> q sqrt(omega/hbar),
in which the constraint surface is the 3-sphere r1^2 + r2^2 = S^2 with
S^2 = 2E/(omega hbar).  The gauge slice (theta2 fixed) induces the metric
ds^2 = (1 - r1^2/S^2)^-1 dr1^2 + r1^2 dtheta1^2 on the patch r1 < S,
a round hemisphere of radius S (Gauss curvature 1/S^2, scalar curvature
2/S^2, metric area 2 pi S^2).  The symplectic area of the patch is the
disc area pi S^2; single-valuedness of exp(i oint p dq) quantizes it to
2 pi n, hence S^2 = 2n and E = hbar omega n with n >= 1.

The operator quantization of the same model gives E = hbar omega (m' + 1),
m' >= 0.  The n >= 1 floor on the geometric side traces back to excluding
the point where the gauge slice degenerates (r1 = S); patching around that
point instead would shift the geometric spectrum onto the operator one.
This note documents the discrepancy; the two-patch construction itself is
out of scope here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True)
class ClassicalState:
    """Phase-space point of one trajectory sample, with its lapse bookkeeping."""

    q: tuple
    p: tuple
    lam: float
    tau: float
    t: float


def proper_times(lapse_samples, t_grid) -> np.ndarray:
    """Accumulated tau_k = int_0^{t_k} lambda dt by trapezoid on the grid."""
    lam = np.asarray(lapse_samples, dtype=np.float64)
    t = np.asarray(t_grid, dtype=np.float64)
    if lam.shape != t.shape:
        raise ValueError("lapse samples and t grid must have equal length")
    tau = np.zeros_like(t)
    if t.size > 1:
        tau[1:] = np.cumsum(0.5 * (lam[1:] + lam[:-1]) * np.diff(t))
    return tau


def classical_trajectory(
    model: str,
    energy: float,
    phases,
    lapse_samples,
    t_grid,
    omega: float = 1.0,
    amplitudes=None,
) -> list:
    """Closed-form trajectory samples of the constrained oscillator(s).

    single: the amplitude sqrt(2E)/omega is implied by the constraint.
    double: pass amplitudes=(A, B); they must satisfy (A w)^2 + (B w)^2 = 2E.
    """
    if energy <= 0:
        raise ValueError("energy must be > 0")
    if model == "single":
        if np.isscalar(phases):
            phases = (phases,)
        if len(phases) != 1:
            raise ValueError("single model takes one phase")
        amps = (math.sqrt(2.0 * energy) / omega,)
    elif model == "double":
        if len(phases) != 2:
            raise ValueError("double model takes two phases")
        if amplitudes is None or len(amplitudes) != 2:
            raise ValueError("double model needs amplitudes=(A, B)")
        a, b = amplitudes
        defect = abs((a * omega) ** 2 + (b * omega) ** 2 - 2.0 * energy)
        if defect > CONSTRAINT_TOL:
            raise ValueError(
                f"amplitude split violates the constraint by {defect:.3e} "
                "(need (A w)^2 + (B w)^2 = 2E)"
            )
        amps = (float(a), float(b))
    else:
        raise ValueError(f"unknown model {model!r}")

    taus = proper_times(lapse_samples, t_grid)
    lam = np.asarray(lapse_samples, dtype=np.float64)
    t = np.asarray(t_grid, dtype=np.float64)
    states = []
    for k in range(t.size):
        qk = tuple(a * math.cos(omega * taus[k] + ph) for a, ph in zip(amps, phases))
        pk = tuple(-a * omega * math.sin(omega * taus[k] + ph) for a, ph in zip(amps, phases))
        states.append(ClassicalState(q=qk, p=pk, lam=float(lam[k]), tau=float(taus[k]), t=float(t[k])))
    return states


def constraint_value(state: ClassicalState, energy: float, omega: float = 1.0) -> float:
    h = sum(0.5 * (pp**2 + omega**2 * qq**2) for pp, qq in zip(state.p, state.q))
    return h - energy


@dataclass(frozen=True)
class SCoords:
    """Gauge-invariant quadratic coordinates of the two-oscillator model.

    In rescaled coordinates: s1 = (p1 p2 + q1 q2)/2, s2 = (p2 q1 - p1 q2)/2,
    s3 = (r1^2 - r2^2)/4 and s0 = (r1^2 + r2^2)/4, so s1^2+s2^2+s3^2 = s0^2
    identically, and on the constraint surface s0 = S^2/4.
    """

    s1: float
    s2: float
    s3: float
    s0: float


def s_coordinates(p1: float, q1: float, p2: float, q2: float) -> SCoords:
    """SCoords of a rescaled two-mode phase-space point."""
    return SCoords(
        s1=0.5 * (p1 * p2 + q1 * q2),
        s2=0.5 * (p2 * q1 - p1 * q2),
        s3=0.25 * (p1**2 + q1**2 - p2**2 - q2**2),
        s0=0.25 * (p1**2 + q1**2 + p2**2 + q2**2),
    )


def reduced_metric_eval(s_squared: float, r1: float):
    """(g_rr, g_thth) of the patch metric at radius r1, S^2 = 2E/(omega hbar).

    The metric does not depend on theta1 and is defined for 0 <= r1 < S only.
    """
    s = math.sqrt(s_squared)
    if not 0.0 <= r1 < s:
        raise ValueError(
            f"r1={r1} outside the patch [0, S={s}); "
            "metric singular at the gauge-fixing locus"
        )
    return 1.0 / (1.0 - r1**2 / s_squared), r1**2


def gauss_curvature_fd(s_squared: float, r1: float) -> float:
    """Gauss curvature of the patch metric by central differences of step 1e-3.

    For an orthogonal metric diag(E, G) depending on r only:
    K = -(1 / 2 sqrt(EG)) d/dr ( G' / sqrt(EG) ).
    """
    h = 1e-3

    def sqrt_eg(r):
        g_rr, g_thth = reduced_metric_eval(s_squared, r)
        return math.sqrt(g_rr * g_thth)

    def g_prime_over_sqrt_eg(r):
        gp = (reduced_metric_eval(s_squared, r + h)[1] - reduced_metric_eval(s_squared, r - h)[1]) / (2 * h)
        return gp / sqrt_eg(r)

    outer = (g_prime_over_sqrt_eg(r1 + h) - g_prime_over_sqrt_eg(r1 - h)) / (2 * h)
    return -outer / (2.0 * sqrt_eg(r1))


def scalar_curvature_fd(s_squared: float, r1: float) -> float:
    """Scalar curvature = 2 * Gauss curvature for a 2-surface; expect 2/S^2."""
    return 2.0 * gauss_curvature_fd(s_squared, r1)


def embedding_pullback_metric(s_squared: float, r1: float, theta1: float, theta2: float = 0.0) -> np.ndarray:
    """Induced metric from the flat 4-space embedding, by complex-step derivatives.

    The gauge slice theta2 = const restricted to the constraint sphere is
    the map (r1, theta1) -> (q1, p1, q2, p2) with r2 = sqrt(S^2 - r1^2);
    numerical pullback of the Cartesian metric should reproduce
    reduced_metric_eval.
    """

    def embed(r, th):
        r2 = np.sqrt(s_squared - r * r)
        return np.array(
            [r * np.cos(th), r * np.sin(th), r2 * np.cos(theta2), r2 * np.sin(theta2)]
        )

    h = 1e-20
    d_r = np.imag(embed(r1 + 1j * h, theta1)) / h
    d_th = np.imag(embed(r1, theta1 + 1j * h)) / h
    return np.array([[d_r @ d_r, d_r @ d_th], [d_th @ d_r, d_th @ d_th]])


def patch_symplectic_area(s_squared: float, n_radial: int = 4096) -> float:
    """int dp1 ^ dq1 over the patch = int r dr dtheta; equals pi S^2."""
    s = math.sqrt(s_squared)
    dr = s / n_radial
    r = (np.arange(n_radial) + 0.5) * dr
    return float(2.0 * math.pi * np.sum(r) * dr)


def patch_metric_area(s_squared: float, n_nodes: int = 4096) -> float:
    """int sqrt(det g) dr1 dtheta1 over the patch.

    The integrand r (1 - r^2/S^2)^(-1/2) is improper at r -> S; the double
    substitution u = 1 - r^2/S^2 = v^2 flattens it to the constant S^2 dv,
    so midpoint quadrature converges immediately.  The value is 2 pi S^2:
    the patch is a metric hemisphere of radius S, twice the symplectic
    (Liouville) area pi S^2 that enters the quantization condition.
    """
    dv = 1.0 / n_nodes
    v = (np.arange(n_nodes) + 0.5) * dv
    integrand = np.full_like(v, s_squared)
    return float(2.0 * math.pi * np.sum(integrand) * dv)


@dataclass(frozen=True)
class AreaQuantization:
    n: int
    s_squared: float
    energy: float
    symplectic_area: float
    metric_area: float


def area_quantization(n: int, omega: float = 1.0, hbar: float = 1.0) -> AreaQuantization:
    """Quantized constraint radius and energy for winding number n >= 1.

    2 pi n = (symplectic area) = pi S^2 gives S^2 = 2n and E = hbar omega n.
    n = 0 is rejected: the metric and the gauge slice degenerate at S = 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1; the S = 0 sphere is excluded")
    s_squared = 2.0 * n
    return AreaQuantization(
        n=n,
        s_squared=s_squared,
        energy=hbar * omega * n,
        symplectic_area=patch_symplectic_area(s_squared),
        metric_area=patch_metric_area(s_squared),
    )

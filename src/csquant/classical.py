"""Reduced-phase-space geometry of the two-oscillator model.

Dynamics is generated by H_T = lambda * (H - E) with
H = sum_i (p_i^2 + q_i^2)/2 in units hbar = omega = 1, so trajectories
depend on the lapse lambda(t) only through the proper time
tau = int lambda dt, and the constraint surface H = E of two oscillators
is the 3-sphere r1^2 + r2^2 = S^2 with S^2 = 2E.  The gauge slice (theta2
fixed) induces the metric ds^2 = (1 - r1^2/S^2)^-1 dr1^2 + r1^2 dtheta1^2
on the patch r1 < S, a round hemisphere of radius S (Gauss curvature
1/S^2, scalar curvature 2/S^2, metric area 2 pi S^2).  The symplectic
area of the patch is the disc area pi S^2; single-valuedness of
exp(i oint p dq) quantizes it to 2 pi n, hence S^2 = 2n and E = n with
n >= 1.

The operator quantization of the same model gives E = m' + 1 with
m' >= 0, the zero-point energy 1/2 per mode included.  Under n = m' + 1
both spectra are {1, 2, ...}: the geometric and the operator energies
agree level by level, so there is no discrepancy to patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AREA_NODES = 16  # midpoint nodes per axis of patch_symplectic_area


def reduced_metric_eval(s_squared: float, r1: float):
    """(g_rr, g_thth) of the patch metric at radius r1, S^2 = 2E.

    The metric does not depend on theta1 and is defined for 0 <= r1 < S only.
    """
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


def _embedding(s_squared, r1, theta1, theta2=0.0) -> np.ndarray:
    """The gauge slice theta2 = const of the constraint sphere: (r1, theta1) -> (q1, p1, q2, p2).

    r2 = sqrt(S^2 - r1^2); array arguments give an array per coordinate.
    """
    r2 = np.sqrt(s_squared - r1 * r1)
    return np.array([r1 * np.cos(theta1), r1 * np.sin(theta1), r2 * np.cos(theta2), r2 * np.sin(theta2)])


def _tangents(s_squared, r1, theta1, theta2=0.0):
    """d/dr1 and d/dtheta1 of _embedding by complex-step derivatives, which take no difference."""
    h = 1e-20
    d_r = np.imag(_embedding(s_squared, r1 + 1j * h, theta1, theta2)) / h
    d_th = np.imag(_embedding(s_squared, r1, theta1 + 1j * h, theta2)) / h
    return d_r, d_th


def embedding_pullback_metric(s_squared: float, r1: float, theta1: float, theta2: float = 0.0) -> np.ndarray:
    """Induced metric from the flat 4-space embedding; should reproduce reduced_metric_eval."""
    d_r, d_th = _tangents(s_squared, r1, theta1, theta2)
    return np.array([[d_r @ d_r, d_r @ d_th], [d_th @ d_r, d_th @ d_th]])


def patch_symplectic_area(s_squared: float) -> float:
    """int of the pullback of dq1 ^ dp1 + dq2 ^ dp2 through _embedding over the patch; equals pi S^2.

    The two-form evaluated on the two tangents is the density in
    dr1 dtheta1 (r1 on this slice, whose mode-2 point does not move with
    theta1), integrated by the midpoint rule on AREA_NODES x AREA_NODES
    nodes of (0, S) x (0, 2 pi): exact for a density linear in r1 and a
    trigonometric polynomial of degree < AREA_NODES in theta1.
    """
    dr, dth = math.sqrt(s_squared) / AREA_NODES, 2.0 * math.pi / AREA_NODES
    nodes = np.arange(AREA_NODES) + 0.5
    d_r, d_th = _tangents(s_squared, *np.meshgrid(nodes * dr, nodes * dth, indexing="ij"))
    density = d_r[0] * d_th[1] - d_th[0] * d_r[1] + d_r[2] * d_th[3] - d_th[2] * d_r[3]
    return float(np.sum(density) * dr * dth)


@dataclass(frozen=True)
class AreaQuantization:
    n: int
    s_squared: float
    energy: float
    symplectic_area: float


def area_quantization(n: int) -> AreaQuantization:
    """Quantized constraint radius and energy for winding number n >= 1.

    2 pi n = (symplectic area) = pi S^2 gives S^2 = 2n and E = S^2/2 = n.
    n = 0 is excluded: the metric and the gauge slice degenerate at S = 0.
    """
    s_squared = 2.0 * n
    return AreaQuantization(
        n=n,
        s_squared=s_squared,
        energy=0.5 * s_squared,
        symplectic_area=patch_symplectic_area(s_squared),
    )

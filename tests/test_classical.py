import math

import numpy as np
import pytest

from csquant.classical import (
    area_quantization,
    embedding_pullback_metric,
    gauss_curvature_fd,
    patch_symplectic_area,
    reduced_metric_eval,
    scalar_curvature_fd,
)

# The trajectory and s-coordinate claims below hold in closed form and no
# experiment computes them, so each test states its claim in plain numpy.


def _trajectory(energy, phases, lapse, t, amplitudes=None):
    """(tau, q, p) under H_T = lambda (H - E), omega = 1: q_i = A_i cos(tau + phi_i), p_i = -A_i sin(tau + phi_i).

    tau = int lambda dt by the trapezoid rule; one oscillator has A = sqrt(2E).
    """
    tau = np.concatenate([[0.0], np.cumsum(0.5 * (lapse[1:] + lapse[:-1]) * np.diff(t))])
    amps = np.atleast_1d(math.sqrt(2.0 * energy) if amplitudes is None else amplitudes)
    angle = tau[:, None] + np.atleast_1d(phases)
    return tau, amps * np.cos(angle), -amps * np.sin(angle)


def _s_coordinates(p1, q1, p2, q2):
    """(s1, s2, s3, s0) = ((p1 p2 + q1 q2)/2, (p2 q1 - p1 q2)/2, (r1^2 - r2^2)/4, (r1^2 + r2^2)/4)."""
    return (
        0.5 * (p1 * p2 + q1 * q2),
        0.5 * (p2 * q1 - p1 * q2),
        0.25 * (p1**2 + q1**2 - p2**2 - q2**2),
        0.25 * (p1**2 + q1**2 + p2**2 + q2**2),
    )


def test_single_trajectory_closed_form():
    # E = 1, phi = 0, lambda = 1: at tau = pi/2 the oscillator sits at
    # q = 0 with all of the (constraint-consistent) amplitude in p
    t = np.linspace(0.0, math.pi / 2.0, 41)
    tau, q, p = _trajectory(1.0, 0.0, np.ones_like(t), t)
    assert tau[-1] == pytest.approx(math.pi / 2.0, abs=1e-12)
    assert q[-1, 0] == pytest.approx(0.0, abs=1e-12)
    assert p[-1, 0] == pytest.approx(-math.sqrt(2.0), rel=1e-12)


def test_constraint_held_along_trajectory():
    t = np.linspace(0.0, 7.0, 200)
    _, q, p = _trajectory(2.3, 0.7, 0.5 + 0.4 * np.sin(t), t)
    assert np.max(np.abs(0.5 * np.sum(p**2 + q**2, axis=1) - 2.3)) < 1e-12


def test_zero_lapse_freezes_motion():
    t = np.linspace(0.0, 5.0, 11)
    tau, q, p = _trajectory(1.0, 0.4, np.zeros_like(t), t)
    assert tau[-1] == 0.0
    assert np.array_equal(q[-1], q[0]) and np.array_equal(p[-1], p[0])


def test_gauge_covariance_same_proper_time():
    # two different lapse profiles with equal accumulated tau end identically
    t = np.linspace(0.0, 2.0, 401)
    lam2 = 1.0 + 0.8 * np.sin(2.0 * math.pi * t)  # integrates to the same tau
    (tau1, q1, p1), (tau2, q2, p2) = (_trajectory(1.5, 0.3, lam, t) for lam in (np.ones_like(t), lam2))
    assert tau1[-1] == pytest.approx(tau2[-1], abs=1e-10)
    assert q1[-1, 0] == pytest.approx(q2[-1, 0], abs=1e-10)
    assert p1[-1, 0] == pytest.approx(p2[-1, 0], abs=1e-10)


def test_proper_time_trapezoid_invariant():
    t = np.linspace(0.0, 3.0, 50)
    lam = np.cos(t) ** 2
    tau, _, _ = _trajectory(1.0, 0.0, lam, t)
    assert tau[-1] == pytest.approx(np.trapezoid(lam, t), abs=1e-10)


def test_double_trajectory_phase_difference_gauge_invariant():
    t = np.linspace(0.0, 4.0, 101)
    for lam in (np.ones_like(t), np.ones_like(t) + 0.25):
        _, q, p = _trajectory(1.0, (0.3, 1.1), lam, t, amplitudes=(1.0, 1.0))
        ph1, ph2 = np.arctan2(-p[-1], q[-1])
        assert (ph1 - ph2) % (2.0 * math.pi) == pytest.approx((0.3 - 1.1) % (2.0 * math.pi), abs=1e-10)


def test_s_coordinates_example_point():
    s1, s2, s3, s0 = _s_coordinates(0.0, math.sqrt(2.0), 0.0, 0.0)
    assert s3 == pytest.approx(0.5, rel=1e-12)
    assert s1 == 0.0 and s2 == 0.0
    assert s0 == pytest.approx(0.5, rel=1e-12)


def test_s_coordinates_sphere_identity_on_constraint():
    rng = np.random.default_rng(37)
    for _ in range(20):
        # random point on r1^2 + r2^2 = S^2
        s_sq = rng.uniform(1.0, 6.0)
        r1 = math.sqrt(s_sq) * math.sin(rng.uniform(0, math.pi / 2))
        r2 = math.sqrt(s_sq - r1**2)
        th1, th2 = rng.uniform(0, 2 * math.pi, size=2)
        s1, s2, s3, s0 = _s_coordinates(r1 * math.sin(th1), r1 * math.cos(th1), r2 * math.sin(th2), r2 * math.cos(th2))
        assert s1**2 + s2**2 + s3**2 == pytest.approx(s0**2, rel=1e-10)
        assert s0 == pytest.approx(s_sq / 4.0, rel=1e-10)


def test_s_coordinates_poisson_brackets_fd():
    # finite-difference Poisson brackets {s_i, s_j} = eps_ijk s_k and {s_i, r^2} = 0
    h = 1e-6
    rng = np.random.default_rng(41)

    def bracket(f, g, x):
        # argument layout (p1, q1, p2, q2): p at slots 0, 2 and q at slots 1, 3
        total = 0.0
        for mode in range(2):
            dp = np.zeros(4)
            dp[2 * mode] = h
            dq = np.zeros(4)
            dq[2 * mode + 1] = h
            df_dq = (f(*(x + dq)) - f(*(x - dq))) / (2 * h)
            dg_dp = (g(*(x + dp)) - g(*(x - dp))) / (2 * h)
            df_dp = (f(*(x + dp)) - f(*(x - dp))) / (2 * h)
            dg_dq = (g(*(x + dq)) - g(*(x - dq))) / (2 * h)
            total += df_dq * dg_dp - df_dp * dg_dq
        return total

    comp = {i: (lambda *x, i=i: _s_coordinates(*x)[i - 1]) for i in (1, 2, 3)}
    radius_sq = lambda p1, q1, p2, q2: p1**2 + q1**2 + p2**2 + q2**2

    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, size=4)
        for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            got = bracket(comp[i], comp[j], x)
            want = comp[k](*x)
            assert got == pytest.approx(want, abs=1e-6)
        for i in (1, 2, 3):
            assert bracket(comp[i], radius_sq, x) == pytest.approx(0.0, abs=1e-6)


def test_reduced_metric_values_and_domain():
    g_rr, g_thth = reduced_metric_eval(2.0, 0.0)
    assert g_rr == 1.0 and g_thth == 0.0
    g_rr, g_thth = reduced_metric_eval(4.0, 1.0)
    assert g_rr == pytest.approx(1.0 / (1.0 - 0.25), rel=1e-14)
    assert g_thth == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("s_squared", [2.0, 6.0])
def test_curvature_finite_differences(s_squared):
    r1 = 0.5 * math.sqrt(s_squared)
    assert scalar_curvature_fd(s_squared, r1) == pytest.approx(2.0 / s_squared, abs=1e-4)
    assert gauss_curvature_fd(s_squared, r1) == pytest.approx(1.0 / s_squared, abs=1e-4)


def test_embedding_pullback_matches_printed_metric():
    s_squared = 2.0
    s = math.sqrt(s_squared)
    for frac in np.linspace(0.05, 0.9, 10):
        r1 = frac * s
        g = embedding_pullback_metric(s_squared, r1, 0.7, theta2=0.3)
        g_rr, g_thth = reduced_metric_eval(s_squared, r1)
        assert abs(g[0, 0] - g_rr) < 1e-8
        assert abs(g[1, 1] - g_thth) < 1e-8
        assert abs(g[0, 1]) < 1e-8


def test_patch_areas():
    s_squared = 2.0
    assert patch_symplectic_area(s_squared) == pytest.approx(math.pi * s_squared, abs=1e-4)
    # the metric area of the hemisphere patch is twice the symplectic area
    # int sqrt(g_rr g_thth) dr1 dtheta1 with r1 = S sqrt(1 - v^2), which flattens the
    # improper integrand r1 (1 - r1^2/S^2)^(-1/2) to the constant S^2 dv
    v = (np.arange(4096) + 0.5) / 4096
    r1 = math.sqrt(s_squared) * np.sqrt(1.0 - v**2)
    density = np.array([math.sqrt(math.prod(reduced_metric_eval(s_squared, r))) for r in r1])
    metric_area = 2.0 * math.pi * np.sum(density * math.sqrt(s_squared) * v / np.sqrt(1.0 - v**2)) / 4096
    assert metric_area == pytest.approx(2.0 * math.pi * s_squared, abs=1e-4)


def test_area_quantization():
    q1 = area_quantization(1)
    assert q1.s_squared == 2.0
    assert q1.energy == 1.0
    assert area_quantization(3).s_squared == 6.0
    assert area_quantization(3).energy == 3.0

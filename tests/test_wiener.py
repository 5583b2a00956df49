import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from csquant import wiener
from csquant.coherent import coherent_vector
from csquant.fock import make_space
from csquant.projector import build_projector, default_lam_max, number_constraint, sin_kernel_weights
from csquant.wiener import (
    bridge_column_variance,
    heat_kernel,
    lapse_averages,
    rng_stream,
    sample_lapse_proper_times,
    semigroup_residual,
)
from reference import kernel_normalization_residual, kernel_variance


def test_heat_kernel_symmetric_in_displacement():
    variance = 0.8 * 0.7
    assert heat_kernel(variance, [0.2, -0.4], [1.0, 0.3]) == heat_kernel(variance, [1.0, 0.3], [0.2, -0.4])


def test_heat_kernel_batch_equals_scalar_calls():
    rng = np.random.default_rng(44)
    variance = 0.9 * (0.8 - 0.1)
    for d in (1, 2, 3):
        x1 = rng.normal(size=(4, 5, d))
        x2 = rng.normal(size=(4, 5, d))
        batch = heat_kernel(variance, x1, x2)
        assert batch.shape == (4, 5)
        scalar = [[heat_kernel(variance, x1[i, j], x2[i, j]) for j in range(5)] for i in range(4)]
        assert np.array_equal(batch, np.array(scalar))
        # one fixed endpoint broadcasts against a batch of the other
        fixed = heat_kernel(variance, x1[0, 0], x2)
        assert np.array_equal(fixed[1], [heat_kernel(variance, x1[0, 0], p) for p in x2[1]])
    single = heat_kernel(variance, [0.2, -0.4], [1.0, 0.3])
    assert type(single) is float


def test_semigroup_2d_heat_kernel_call_count(monkeypatch):
    calls = []
    original = wiener.heat_kernel

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(wiener, "heat_kernel", counting)
    assert semigroup_residual(0.7, 0.0, 0.4, 1.0, [0.1, -0.2], [0.5, 0.3]) < 1e-8
    assert len(calls) <= 3


def test_heat_kernel_normalization_by_quadrature():
    assert kernel_normalization_residual(0.7 * 0.5, [0.3]) < 1e-8
    assert kernel_normalization_residual(0.7 * 0.5, [0.1, -0.2]) < 1e-8


def test_heat_kernel_variance():
    variance = 1.3 * (1.0 - 0.2)
    assert kernel_variance(variance) == pytest.approx(variance, abs=1e-8)


def test_semigroup_equal_subintervals_closed_form():
    nu = 1.3
    direct = heat_kernel(nu * 2.0, [0.0, 0.0], [0.0, 0.0])
    assert direct == pytest.approx(1.0 / (2.0 * math.pi * nu * 2.0), rel=1e-14)
    assert semigroup_residual(nu, 0.0, 1.0, 2.0, [0.0, 0.0], [0.0, 0.0]) < 1e-8


def test_semigroup_near_degenerate_subinterval():
    assert semigroup_residual(0.5, 0.0, 0.02, 1.0, [0.1], [0.4], n_nodes=4097) < 1e-8


def test_semigroup_random_2d_endpoints():
    rng = np.random.default_rng(43)
    for _ in range(5):
        x1 = rng.uniform(-0.5, 0.5, size=2)
        x3 = rng.uniform(-0.5, 0.5, size=2)
        t2 = rng.uniform(0.2, 0.8)
        assert semigroup_residual(0.7, 0.0, t2, 1.0, x1, x3) < 1e-8


def _bridge_ensemble_oracle(nu, x_start, x_end, t_total, n_steps, n_paths, seed, stream=0):
    """Oracle: the whole (n_paths, n_steps+1, d) bridge ensemble from one block of normals."""
    x_start = np.atleast_1d(np.asarray(x_start, dtype=np.float64))
    x_end = np.atleast_1d(np.asarray(x_end, dtype=np.float64))
    normals = rng_stream(seed, stream).standard_normal((n_paths, n_steps - 1, x_start.size))
    dt = t_total / n_steps
    out = np.empty((n_paths, n_steps + 1, x_start.size))
    out[:, 0, :] = x_start
    out[:, n_steps, :] = x_end
    for k in range(1, n_steps):
        remaining = n_steps - k + 1
        mean = out[:, k - 1, :] + (x_end - out[:, k - 1, :]) / remaining
        std = np.sqrt(nu * dt * (remaining - 1) / remaining)
        out[:, k, :] = mean + std * normals[:, k - 1, :]
    return out


def test_bridge_column_variance_is_the_bridge_marginal():
    # nu t (T - t) / T with T = 1, at every column
    for nu, n_steps in ((1.0, 16), (0.7, 33), (2.3, 7)):
        for k in range(n_steps + 1):
            t = k / n_steps
            assert abs(bridge_column_variance(nu, n_steps, k) - nu * t * (1.0 - t)) <= 1e-15


def test_bridge_ends_pinned_exactly():
    for nu, n_steps in ((1.0, 16), (0.7, 33), (2.3, 1)):
        assert bridge_column_variance(nu, n_steps, 0) == 0.0
        assert bridge_column_variance(nu, n_steps, n_steps) == 0.0


def test_bridge_moments_within_three_se():
    # the test-side sampler's columns against the law
    n = 100_000
    ensemble = _bridge_ensemble_oracle(1.0, [0.0], [0.0], 1.0, 16, n, seed=42, stream=3)
    for k in (4, 8, 12):
        var = bridge_column_variance(1.0, 16, k)
        sample = ensemble[:, k, 0]
        assert abs(np.mean(sample)) <= 3.0 * math.sqrt(var / n)
        assert abs(np.var(sample) - var) <= 3.0 * var * math.sqrt(2.0 / (n - 1))


def _trapezoid_walk_taus(lam0, increments):
    """Oracle: explicit lapse walks lambda(0) + cumsum(increments) on unit time, tau by the trapezoid rule."""
    lam = np.concatenate([lam0[:, None], lam0[:, None] + np.cumsum(increments, axis=1)], axis=1)
    return np.trapezoid(lam, dx=1.0 / increments.shape[1], axis=1)


def _walk_oracle_draws(nu, window, n_paths, seed, stream):
    """The uniform prior and the N(0, nu dt) increments of LAPSE_STEPS-step walks."""
    n_steps = wiener.LAPSE_STEPS
    rng = rng_stream(seed, stream)
    lam0 = rng.uniform(-window, window, size=n_paths) if window > 0 else np.zeros(n_paths)
    return lam0, rng.standard_normal((n_paths, n_steps)) * math.sqrt(nu / n_steps)


def _one_shot_lapse_oracle(nu, window, n_paths, seed, stream):
    """Oracle: one generator draws every path's uniform, then every path's normal."""
    rng = rng_stream(seed, stream)
    tau = rng.uniform(-window, window, size=n_paths) if window > 0 else np.zeros(n_paths)
    if nu > 0:
        tau += rng.standard_normal(n_paths) * math.sqrt(wiener.lapse_walk_variance(nu))
    return tau


def _lapse_taus(nu, window, n_paths, seed, stream=0):
    return np.concatenate(list(sample_lapse_proper_times(nu, window, n_paths, seed, stream)))


@pytest.mark.parametrize("nu, window", [(1.0, 2000.0), (0.5, 0.0), (0.0, 5.0)])
@pytest.mark.parametrize(
    "n_paths", [100, wiener.PATH_CHUNK, wiener.PATH_CHUNK + 1, 100_000, 100_001, 100_003, 2**21]
)
def test_lapse_chunks_equal_one_shot_draws(n_paths, nu, window):
    # the normals' generator skips exactly the uniforms' words, at every residue of n_paths mod 4
    chunks = list(sample_lapse_proper_times(nu, window, n_paths, seed=7, stream=4))
    assert [chunk.size for chunk in chunks[:-1]] == [wiener.PATH_CHUNK] * (len(chunks) - 1)
    assert np.array_equal(np.concatenate(chunks), _one_shot_lapse_oracle(nu, window, n_paths, seed=7, stream=4))


def test_lapse_tau_distribution_moments():
    n = 200_000
    taus = _lapse_taus(1.0, 2.0, n, seed=11)
    walk_var = np.var(_lapse_taus(1.0, 0.0, n, seed=12))
    exact_walk_var = wiener.lapse_walk_variance(1.0)
    # var = window^2/3 from the uniform prior plus the integrated-walk term
    expected = 4.0 / 3.0 + exact_walk_var
    assert abs(np.mean(taus)) <= 3.0 * math.sqrt(expected / n)
    assert np.var(taus) == pytest.approx(expected, rel=0.02)
    assert walk_var == pytest.approx(exact_walk_var, rel=0.02)


@pytest.mark.parametrize("nu, window", [(1.0, 2000.0), (0.3, 0.0), (0.0, 5.0)])
def test_lapse_weighted_sum_matches_trapezoid_oracle(nu, window):
    n_steps = wiener.LAPSE_STEPS
    dt = 1.0 / n_steps
    # the weight of each unit increment in tau, read off the walk oracle: dt (N - i + 1/2)
    coeffs = _trapezoid_walk_taus(np.zeros(n_steps), np.eye(n_steps))
    assert np.allclose(coeffs, dt * (n_steps - np.arange(n_steps) - 0.5), rtol=1e-14, atol=0.0)
    walk_var = nu * dt * np.sum(coeffs**2)  # each increment has variance nu dt
    assert wiener.lapse_walk_variance(nu) == pytest.approx(walk_var, rel=1e-14, abs=0.0)

    n_paths = 100_000
    taus = _lapse_taus(nu, window, n_paths, seed=21, stream=4)
    if nu == 0:
        # no walk term: tau is the prior draw of the same stream, bit for bit
        lam0, increments = _walk_oracle_draws(nu, window, n_paths, seed=21, stream=4)
        assert np.array_equal(taus, lam0)
        oracle = _trapezoid_walk_taus(lam0, increments)
        assert np.max(np.abs(taus - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    else:
        # the same law: two-sample KS test against explicit walks drawn from another stream
        oracle = _trapezoid_walk_taus(*_walk_oracle_draws(nu, window, n_paths, seed=21, stream=5))
        assert ks_2samp(taus, oracle).pvalue > 1e-3


@pytest.fixture(scope="module")
def propagator_setup():
    return make_space(1, 16), 1.0


def _references(constraint, epsilon, a_bra, a_ket):
    """Weights conj(bra) * ket, spectral value and sin-kernel quadrature, as the wiener experiment builds them."""
    weights = np.conj(coherent_vector(constraint.space, a_bra)) * coherent_vector(constraint.space, a_ket)
    spectral = complex(np.sum(weights * build_projector(constraint, epsilon)))
    eigs = constraint.eigs
    quadrature = complex(np.sum(weights * sin_kernel_weights(eigs, epsilon, default_lam_max(epsilon, eigs))))
    return weights, spectral, quadrature


def _lapse_average(constraint, weights, seed, nu=1.0, window=2000.0, n_paths=100_000):
    return lapse_averages(constraint, weights, [(0, nu, window)], n_paths, seed)[0]


def test_lambda_propagator_selected_level(propagator_setup):
    space, alpha = propagator_setup
    constraint = number_constraint(space, 1.0)
    weights, spectral, quadrature = _references(constraint, 0.45, alpha, alpha)
    _, mc, se = _lapse_average(constraint, weights, seed=101)
    assert spectral == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert abs(quadrature - spectral) < 1e-4
    assert abs(mc - spectral) <= 3.0 * se


def test_lambda_propagator_null_window(propagator_setup):
    space, alpha = propagator_setup
    constraint = number_constraint(space, 0.5)
    weights, spectral, quadrature = _references(constraint, 0.1, alpha, alpha)
    _, mc, se = _lapse_average(constraint, weights, seed=103)
    assert spectral == 0.0
    assert abs(quadrature) < 1e-4
    assert abs(mc) <= 3.0 * se


def test_lambda_propagator_degenerate_tau_is_plain_overlap(propagator_setup):
    space, alpha = propagator_setup
    constraint = number_constraint(space, 1.0)
    weights, _, _ = _references(constraint, 0.45, alpha, alpha)
    _, mc, se = _lapse_average(constraint, weights, seed=104, nu=0.0, window=0.0)
    assert mc == pytest.approx(1.0, abs=1e-7)  # <a|a> = 1 up to truncation
    assert se < 1e-12
    # every value equal: the one-pass variance can round below 0, and the SE still reads ~0
    rng = np.random.default_rng(2)
    for _ in range(20):
        weights = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        finite_window, mc, se = _lapse_average(constraint, weights, seed=104, nu=0.0, window=0.0, n_paths=1000)
        assert abs(mc - finite_window) <= 1e-14 and se < 1e-12


def test_lambda_propagator_window_and_nu_stability(propagator_setup):
    space, alpha = propagator_setup
    constraint = number_constraint(space, 1.0)
    weights, spectral, _ = _references(constraint, 0.45, alpha, alpha)
    for kwargs in ({"window": 4000.0}, {"nu": 0.5}, {"nu": 2.0}):
        _, mc, se = _lapse_average(constraint, weights, seed=105, **kwargs)
        assert abs(mc - spectral) <= 3.0 * se


def test_lambda_propagator_distinct_labels(propagator_setup):
    space, _ = propagator_setup
    a1, a2 = 1.1, 0.7 + 0.6j
    constraint = number_constraint(space, 2.0)
    weights, spectral, quadrature = _references(constraint, 0.3, a1, a2)
    _, mc, se = _lapse_average(constraint, weights, seed=106)
    assert abs(quadrature - spectral) < 1e-4
    assert abs(mc - spectral) <= 3.0 * se
    expected = (
        math.exp(-0.5 * (abs(a1) ** 2 + abs(a2) ** 2)) * (np.conj(a1) * a2) ** 2 / 2.0
    )
    assert spectral == pytest.approx(expected, rel=1e-12)


def test_finite_window_matches_characteristic_function_quadrature(propagator_setup):
    space, _ = propagator_setup
    constraint = number_constraint(space, 2.0)
    a1, a2 = 1.1, 0.7 + 0.6j
    nu, window = 0.8, 0.7
    weights, spectral, _ = _references(constraint, 0.3, [a1], [a2])
    finite_window, _, _ = _lapse_average(constraint, weights, seed=20260810, nu=nu, window=window, n_paths=100)
    s = math.sqrt(wiener.lapse_walk_variance(nu))
    # oracle: E[exp(-i tau x)] with tau = Uniform(-window, window) + N(0, s^2), by direct quadrature
    expected = 0.0
    for w, x in zip(weights, constraint.eigs):
        uniform = quad(lambda lam: np.exp(-1j * lam * x) / (2.0 * window), -window, window, complex_func=True)[0]
        gauss = quad(
            lambda g: np.exp(-0.5 * g * g - 1j * s * g * x) / math.sqrt(2.0 * math.pi),
            -12.0,
            12.0,
            limit=200,
            complex_func=True,
        )[0]
        expected += w * uniform * gauss
    assert abs(finite_window - expected) <= 1e-10
    # the Dirichlet bound: the sinc cuts every x != 0 term to at most |w_x| / (window |x|)
    off = constraint.eigs != 0
    assert abs(finite_window - spectral) <= np.sum(np.abs(weights[off] / constraint.eigs[off])) / window


def test_rng_stream_is_counter_based_and_stable():
    a = rng_stream(123, 0).standard_normal(4)
    b = rng_stream(123, 0).standard_normal(4)
    c = rng_stream(123, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("target", [0.0, 1.0, 3.0, 12.0, 0.3])
def test_lapse_average_matches_direct_sum(target):
    # one mode: basis state n is level n, so the weights are the per-level coefficients; targets 0 and 12
    # are the bottom and the top level, and 0.3 is no level
    constraint = number_constraint(make_space(1, 12), target)
    rng = np.random.default_rng(91)
    weights = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    # more than one chunk of paths, so the chunk boundary and a partial chunk are covered
    n, nu, window = 2 * wiener.PATH_CHUNK + 777, 1.0, 2000.0
    _, mc, se = lapse_averages(constraint, weights, [(4, nu, window)], n, 17)[0]
    # oracle: the direct sum, one complex exponential per draw and level, and numpy's two-pass variance
    vals = np.exp(-1j * np.outer(_one_shot_lapse_oracle(nu, window, n, 17, 4), constraint.eigs)) @ weights
    assert abs(mc - np.mean(vals)) <= 1e-10 * np.sum(np.abs(weights))
    assert se == pytest.approx(math.sqrt((np.var(vals.real) + np.var(vals.imag)) / n), rel=1e-9)

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import ks_2samp

from csquant import _kernels, wiener
from csquant.coherent import coherent_vector
from csquant.fock import make_space
from csquant.projector import double_constraint, single_constraint
from csquant.wiener import (
    heat_kernel,
    lambda_average_propagator,
    rng_stream,
    sample_bridge_column,
    sample_lapse_proper_times,
    semigroup_residual,
)
from reference import kernel_normalization_residual, kernel_variance


def test_heat_kernel_params_validation():
    for variance in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="variance"):
            heat_kernel(variance, [0.0], [1.0])
    for nu, t in ((-1.0, 0.7), (0.0, 0.7), (1.0, 0.0)):  # the variance nu (t2 - t1) must be positive
        with pytest.raises(ValueError):
            semigroup_residual(nu, 0.0, t, 1.0, [0.1], [0.4])


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
    with pytest.raises(ValueError):
        heat_kernel(variance, [0.0, 0.0], [[1.0, 2.0, 3.0]])


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


def _bridge_paths(nu, x_start, x_end, t_total, n_steps, n_paths, seed, stream=0):
    """Every column of sample_bridge_column, stacked to (n_paths, n_steps+1, d)."""
    return np.stack(
        [
            sample_bridge_column(nu, x_start, x_end, t_total, n_steps, k, n_paths, seed, stream)
            for k in range(n_steps + 1)
        ],
        axis=1,
    )


@pytest.mark.parametrize("n_paths", [_kernels.PATH_CHUNK + 3, 1000])
@pytest.mark.parametrize("x_start, x_end", [([0.3], [-0.7]), ([0.3, -0.2], [-0.7, 1.1])])
def test_bridge_column_equals_ensemble_oracle(n_paths, x_start, x_end):
    args = (0.8, x_start, x_end, 1.3, 16)
    paths = _bridge_paths(*args, n_paths, seed=8, stream=3)
    # the chunked draws and the column recursion reproduce the one-block ensemble bit for bit
    assert np.array_equal(paths, _bridge_ensemble_oracle(*args, n_paths, seed=8, stream=3))


def test_bridge_column_validation():
    for column in (-1, 17):
        with pytest.raises(ValueError):
            sample_bridge_column(1.0, [0.0], [0.0], 1.0, 16, column, 10, seed=1)
    with pytest.raises(ValueError):
        sample_bridge_column(-1.0, [0.0], [0.0], 1.0, 16, 8, 10, seed=1)
    with pytest.raises(ValueError):
        sample_bridge_column(1.0, [0.0], [0.0], 1.0, 0, 0, 10, seed=1)
    # one step: no inner column, and no draws
    assert np.array_equal(sample_bridge_column(1.0, [0.3], [0.5], 1.0, 1, 1, 3, seed=1), np.full((3, 1), 0.5))


def test_bridge_deterministic_limit():
    path = _bridge_paths(1e-8, [0.0, 1.0], [2.0, -1.0], 1.0, 32, 1, seed=5)[0]
    interp = np.linspace([0.0, 1.0], [2.0, -1.0], 33)
    assert np.max(np.abs(path - interp)) < 1e-3
    assert np.array_equal(path[[0, -1]], interp[[0, -1]])


def test_bridge_ends_pinned_exactly():
    assert np.all(sample_bridge_column(1.0, [0.3], [-0.7], 1.0, 16, 0, 100, seed=6) == 0.3)
    assert np.all(sample_bridge_column(1.0, [0.3], [-0.7], 1.0, 16, 16, 100, seed=6) == -0.7)


def test_bridge_moments_within_three_se():
    n = 100_000
    times = np.linspace(0.0, 1.0, 17)
    for k in (4, 8, 12):
        t = times[k]
        expected_var = t * (1.0 - t)
        sample = sample_bridge_column(1.0, [0.0], [0.0], 1.0, 16, k, n, seed=42, stream=3)[:, 0]
        se_mean = math.sqrt(expected_var / n)
        assert abs(np.mean(sample)) <= 3.0 * se_mean
        se_var = expected_var * math.sqrt(2.0 / (n - 1))
        assert abs(np.var(sample) - expected_var) <= 3.0 * se_var


def test_bridge_seed_reproducibility():
    a = _bridge_paths(1.0, [0.0], [0.0], 1.0, 8, 50, seed=77, stream=2)
    b = _bridge_paths(1.0, [0.0], [0.0], 1.0, 8, 50, seed=77, stream=2)
    c = _bridge_paths(1.0, [0.0], [0.0], 1.0, 8, 50, seed=77, stream=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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


def test_lapse_tau_distribution_moments():
    n = 200_000
    taus = sample_lapse_proper_times(1.0, 2.0, n, seed=11)
    walk_var = np.var(sample_lapse_proper_times(1.0, 0.0, n, seed=12))
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
    taus = sample_lapse_proper_times(nu, window, n_paths, seed=21, stream=4)
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


def test_lambda_propagator_selected_level(propagator_setup):
    space, alpha = propagator_setup
    est = lambda_average_propagator(single_constraint(space, 1.0), 0.45, alpha, alpha, seed=101)
    assert est.spectral == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert est.quadrature_error < 1e-4
    assert est.mc_error <= 3.0 * est.mc_se


def test_lambda_propagator_null_window(propagator_setup):
    space, alpha = propagator_setup
    est = lambda_average_propagator(single_constraint(space, 0.5), 0.1, alpha, alpha, seed=103)
    assert est.spectral == 0.0
    assert abs(est.quadrature) < 1e-4
    assert abs(est.mc_value) <= 3.0 * est.mc_se


def test_lambda_propagator_degenerate_tau_is_plain_overlap(propagator_setup):
    space, alpha = propagator_setup
    est = lambda_average_propagator(single_constraint(space, 1.0), 0.45, alpha, alpha, nu=0.0, window=0.0, seed=104)
    assert est.mc_value == pytest.approx(1.0, abs=1e-7)  # <a|a> = 1 up to truncation
    assert est.mc_se < 1e-12


def test_lambda_propagator_window_and_nu_stability(propagator_setup):
    space, alpha = propagator_setup
    constraint = single_constraint(space, 1.0)
    for kwargs in ({"window": 4000.0}, {"nu": 0.5}, {"nu": 2.0}):
        est = lambda_average_propagator(constraint, 0.45, alpha, alpha, seed=105, **kwargs)
        assert est.mc_error <= 3.0 * est.mc_se


def test_lambda_propagator_distinct_labels(propagator_setup):
    space, _ = propagator_setup
    a1, a2 = 1.1, 0.7 + 0.6j
    est = lambda_average_propagator(single_constraint(space, 2.0), 0.3, a1, a2, seed=106)
    assert est.quadrature_error < 1e-4
    assert est.mc_error <= 3.0 * est.mc_se
    expected = (
        math.exp(-0.5 * (abs(a1) ** 2 + abs(a2) ** 2)) * (np.conj(a1) * a2) ** 2 / 2.0
    )
    assert est.spectral == pytest.approx(expected, rel=1e-12)


def test_finite_window_matches_characteristic_function_quadrature(propagator_setup):
    space, _ = propagator_setup
    constraint = single_constraint(space, 2.0)
    a1, a2 = 1.1, 0.7 + 0.6j
    nu, window = 0.8, 0.7
    est = lambda_average_propagator(constraint, 0.3, a1, a2, n_paths=100, nu=nu, window=window)
    weights = np.conj(coherent_vector(space, [a1])) * coherent_vector(space, [a2])
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
    assert abs(est.finite_window - expected) <= 1e-10
    assert abs(est.finite_window - est.spectral) <= est.window_bias_bound


def test_rng_stream_is_counter_based_and_stable():
    a = rng_stream(123, 0).standard_normal(4)
    b = rng_stream(123, 0).standard_normal(4)
    c = rng_stream(123, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("modes, nmax", [(1, 12), (2, 10)])
@pytest.mark.parametrize("target", [0.0, 1.0, 3.0, 0.3])
def test_phase_samples_matches_direct_sum(modes, nmax, target):
    space = make_space(modes, nmax)
    constraint = single_constraint(space, target) if modes == 1 else double_constraint(space, target)
    rng = np.random.default_rng(91)
    weights = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    # more than one chunk of paths, so the chunk boundary and a partial chunk are covered
    taus = np.concatenate([[0.0, -4000.0, 4000.0], rng.uniform(-4000.0, 4000.0, _kernels.PATH_CHUNK)])
    levels = np.rint(constraint.eigs + target).astype(np.int64)
    got = _kernels.phase_samples(taus, levels, target, weights)
    # oracle: the direct sum, one complex exponential per sample and basis state
    expected = np.exp(-1j * np.outer(taus, constraint.eigs)) @ weights
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.sum(np.abs(weights))

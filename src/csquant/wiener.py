"""Discrete-time Wiener-measure machinery.

Flat-metric heat kernel (a function of the variance nu (t2 - t1)) and its
semigroup rule, exact Brownian-bridge sampling of one time column of
pinned phase-space paths, the exact law of an unpinned lapse walk's proper
time, and estimators of the projected propagator:

* the sin-kernel measure integrated over the accumulated proper time,
  in closed form (projector.sin_kernel_weights over default_lam_max),
* Monte Carlo over tau = int lambda dt of lapse walks lambda(t) of
  LAPSE_STEPS steps on t in [0, 1]: a uniform prior on [-window, window]
  plus Brownian increments of diffusion nu.  The trapezoid tau is linear
  in those draws, so it is the prior draw plus one Gaussian of variance
  lapse_walk_variance(nu) and the walks are never built.  Averaging
  exp(-i tau x) converges to the finite-window mean
  sum_n w_n sinc(window x_n) exp(-s^2 x_n^2 / 2), itself in closed form;
  the sinc suppresses every x != 0 by ~ 1/(window x), so for integer
  targets both approach the spectral projection.  Every constraint
  eigenvalue is an integer level minus the target, so the phase average
  is a polynomial in exp(-i tau) with one coefficient per level
  (_kernels.phase_samples), not one exponential per basis state.

lambda_average_propagator takes the constraint and the half-width epsilon
of its spectral window, returns the estimates beside the spectral
reference and enforces nothing; its callers score them (quadrature within
1e-4, Monte Carlo within three standard errors).  The bridge and the phase
average run over chunks of paths, so n_paths costs O(n_paths) for the
lapse times, the phase values and the bridge column, plus one chunk.

The heat kernel takes whole batches of points, so the Simpson check of
its semigroup rule is one array evaluation over a tensor-product grid.

Randomness is counter-based (Philox keyed by seed and stream id), so
parallel streams and reruns are reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import _kernels, projector
from .coherent import coherent_vector


LAPSE_STEPS = 32  # lapse-walk steps of lambda_average_propagator, over unit time


def rng_stream(seed: int, stream: int = 0) -> Generator:
    """Counter-based generator; (seed, stream) is the whole key."""
    return Generator(Philox(key=[seed, stream]))


def heat_kernel(variance: float, x1, x2):
    """Spreading Gaussian density (2 pi v)^(-d/2) exp(-|x2-x1|^2 / 2 v), v = nu (t2 - t1) > 0.

    x1 and x2 are points of shape (..., d) whose leading axes broadcast
    against each other; a scalar is a point with d = 1.  One pair of points
    gives a float, a batch gives an array over the broadcast leading axes.
    """
    if not variance > 0:
        raise ValueError("variance must be > 0")
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
    if x1.shape[-1] != x2.shape[-1]:
        raise ValueError("endpoint dimensions differ")
    d = x1.shape[-1]
    norm = (2.0 * math.pi * variance) ** (-d / 2.0)
    vals = norm * np.exp(-np.sum((x2 - x1) ** 2, axis=-1) / (2.0 * variance))
    return float(vals) if vals.ndim == 0 else vals


def _simpson_grid(center: float, half_width: float, n: int):
    if n % 2 == 0:
        n += 1
    x = np.linspace(center - half_width, center + half_width, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (x[1] - x[0]) / 3.0
    return x, w


def _simpson_product_grid(centers, half_width: float, n: int):
    """Tensor-product Simpson rule in d = 1 or 2: points (n, ..., n, d), weights (n, ..., n)."""
    if len(centers) not in (1, 2):
        raise ValueError("product quadrature supports d = 1 or 2")
    grids = [_simpson_grid(c, half_width, n) for c in centers]
    points = np.stack(np.meshgrid(*(x for x, _ in grids), indexing="ij"), axis=-1)
    weights = functools.reduce(np.multiply.outer, (w for _, w in grids))
    return points, weights


def semigroup_residual(nu: float, t1: float, t2: float, t3: float, x1, x3, n_nodes: int = 257) -> float:
    """|int rho(t3,t2) rho(t2,t1) dx2 - rho(t3,t1)| at one endpoint pair."""
    if not t1 < t2 < t3:
        raise ValueError("need t1 < t2 < t3")
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x3 = np.atleast_1d(np.asarray(x3, dtype=np.float64))
    direct = heat_kernel(nu * (t3 - t1), x1, x3)
    spread = 8.0 * math.sqrt(nu * (t3 - t1)) + float(np.max(np.abs(x3 - x1)))
    points, weights = _simpson_product_grid(0.5 * (x1 + x3), spread, n_nodes)
    integrand = heat_kernel(nu * (t2 - t1), x1, points) * heat_kernel(nu * (t3 - t2), points, x3)
    return abs(float(np.sum(weights * integrand)) - direct)


def sample_bridge_column(
    nu: float, x_start, x_end, t_total: float, n_steps: int, column: int, n_paths: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Time column `column` of a Brownian-bridge ensemble, shape (n_paths, d).

    Sequential conditional Gaussians: at step k the remaining gap to the
    pinned end is closed in expectation and the conditional variance is
    nu dt (N-k)/(N-k+1), so with nu -> 0 the paths collapse onto the
    linear interpolant; the marginal at time t has variance nu t (T-t)/T.
    Each path draws its N - 1 normals in path order from one stream, and
    only the current column of PATH_CHUNK paths is kept, so the column
    does not depend on the chunk size and the ends are the pins exactly.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if not 0 <= column <= n_steps:
        raise ValueError("column must lie in [0, n_steps]")
    x_start = np.atleast_1d(np.asarray(x_start, dtype=np.float64))
    x_end = np.atleast_1d(np.asarray(x_end, dtype=np.float64))
    out = np.empty((n_paths, x_start.size))
    out[:] = x_start if column < n_steps else x_end
    if column == n_steps:
        return out
    rng = rng_stream(seed, stream)
    dt = t_total / n_steps
    for lo in range(0, n_paths, _kernels.PATH_CHUNK):
        x = out[lo : lo + _kernels.PATH_CHUNK]
        normals = rng.standard_normal((len(x), n_steps - 1, x_start.size))
        for k in range(1, column + 1):
            remaining = n_steps - k + 1
            x += (x_end - x) / remaining
            x += np.sqrt(nu * dt * (remaining - 1) / remaining) * normals[:, k - 1, :]
    return out


def lapse_walk_variance(nu: float) -> float:
    """Variance of the Brownian part of a lapse walk's trapezoid proper time.

    With N = LAPSE_STEPS steps of dt = 1/N, increment i (1-based) enters
    tau with weight dt (N - i + 1/2), so the variance is
    nu dt^3 sum_i (N - i + 1/2)^2 = nu (1/3 - 1/(12 N^2)).
    """
    return nu * (1.0 / 3.0 - 1.0 / (12.0 * LAPSE_STEPS**2))


def sample_lapse_proper_times(
    nu: float,
    window: float,
    n_paths: int,
    seed: int,
    stream: int = 0,
) -> np.ndarray:
    """tau = int lambda dt of unpinned lapse walks, drawn from its exact law.

    lambda(0) ~ Uniform(-window, window), LAPSE_STEPS increments
    N(0, nu dt) on unit time, both ends free, tau accumulated by the
    trapezoid rule.  That tau is lambda(0) plus an independent
    N(0, lapse_walk_variance(nu)), so each path costs one uniform and one
    normal.  window = 0 and nu = 0 gives the degenerate tau = 0.
    """
    rng = rng_stream(seed, stream)
    tau = rng.uniform(-window, window, size=n_paths) if window > 0 else np.zeros(n_paths)
    if nu > 0:
        tau += math.sqrt(lapse_walk_variance(nu)) * rng.standard_normal(n_paths)
    return tau


@dataclass(frozen=True)
class PropagatorEstimates:
    spectral: complex
    quadrature: complex
    finite_window: complex
    window_bias_bound: float
    mc_value: complex
    mc_se: float

    @property
    def quadrature_error(self) -> float:
        return abs(self.quadrature - self.spectral)

    @property
    def mc_error(self) -> float:
        return abs(self.mc_value - self.spectral)


def lambda_average_propagator(
    constraint: projector.ConstraintOp,
    epsilon: float,
    alphas_bra,
    alphas_ket,
    n_paths: int = 100_000,
    nu: float = 1.0,
    window: float = 2000.0,
    seed: int = 20260810,
    stream: int = 0,
) -> PropagatorEstimates:
    """Average of <bra| exp(-i tau Phi) |ket> over the proper-time measure.

    bra and ket are the coherent states of the per-mode labels alphas_bra
    and alphas_ket on the constraint's space; Phi is the constraint, and
    the spectral reference projects with window half-width epsilon.
    Returns the spectral reference, the sin-kernel quadrature (range
    default_lam_max), the Monte Carlo estimate and its finite-window mean;
    callers score the errors.  For an integer target window_bias_bound,
    sum_{x != 0} |w_x| / (window |x|), bounds |finite_window - spectral|.
    """
    eigs = constraint.eigensystem()
    target = constraint.target
    weights = np.conj(coherent_vector(constraint.space, alphas_bra)) * coherent_vector(constraint.space, alphas_ket)

    spectral = complex(np.sum(weights * projector.build_projector(constraint, epsilon)))

    lam_max = projector.default_lam_max(epsilon, eigs)
    quadrature = complex(np.sum(weights * projector.sin_kernel_weights(eigs, epsilon, lam_max)))

    gauss = np.exp(-0.5 * lapse_walk_variance(nu) * eigs**2)
    finite_window = complex(np.sum(weights * np.sinc(window * eigs / math.pi) * gauss))
    off = eigs != 0
    dirichlet = float(np.sum(np.abs(weights[off] / eigs[off])))
    window_bias_bound = dirichlet / window if window > 0 else math.inf

    taus = sample_lapse_proper_times(nu, window, n_paths, seed, stream)
    vals = _kernels.phase_samples(taus, np.rint(eigs + target).astype(np.int64), target, weights)
    mc_value = complex(np.mean(vals))
    se = math.sqrt((np.var(vals.real) + np.var(vals.imag)) / n_paths)
    return PropagatorEstimates(
        spectral=spectral,
        quadrature=quadrature,
        finite_window=finite_window,
        window_bias_bound=window_bias_bound,
        mc_value=mc_value,
        mc_se=se,
    )

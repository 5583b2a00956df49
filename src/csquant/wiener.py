"""Discrete-time Wiener-measure machinery.

Flat-metric heat kernel (a function of the variance nu (t2 - t1)) and its
semigroup rule, the exact variance of one time column of a pinned
Brownian bridge (bridge_column_variance), the exact law of an unpinned
lapse walk's proper time, and the lapse average of the propagator over
each of a list of lapse laws (lapse_averages):

* Monte Carlo over tau = int lambda dt of lapse walks lambda(t) of
  LAPSE_STEPS steps on t in [0, 1]: a uniform prior on [-window, window]
  plus Brownian increments of diffusion nu.  The trapezoid tau is linear
  in those draws, so it is the prior draw plus one Gaussian of variance
  lapse_walk_variance(nu) and the walks are never built.  Averaging
  exp(-i tau x) converges to the finite-window mean
  sum_n w_n sinc(window x_n) exp(-s^2 x_n^2 / 2), itself in closed form;
  the sinc suppresses every x != 0 by ~ 1/(window x), so for integer
  targets both approach the spectral projection.  On one mode basis
  state n is level n, with eigenvalue n - target, so the phase average
  is a polynomial in exp(-i tau) whose coefficients are the weights, not
  one exponential per basis state.

lapse_averages takes a one-mode constraint and the weights conj(bra) * ket
per basis state, so only the lapse laws and their random streams enter it;
the references that do not depend on the law (the spectral projection, the
sin-kernel quadrature, the Dirichlet bound) are the caller's, built once
for all the laws it scores.  It enforces nothing.  Each law is one
streaming pass: each chunk of PATH_CHUNK lapse times is drawn,
phase-averaged and added into two running sums, so memory is one chunk
per thread whatever n_paths is.

The heat kernel takes whole batches of points, so the Simpson check of
its semigroup rule is one array evaluation over a tensor-product grid.

Randomness is counter-based (Philox keyed by seed and stream id), so
reruns are reproducible bit for bit.  The CLI's wiener run uses streams
4-7 for its four lapse laws, two of them on a second thread; each law
owns its stream and its buffers and every reduction runs in a fixed
order, so its estimate does not depend on the thread that runs it.
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np
from numpy.random import Generator, Philox

from . import projector


LAPSE_STEPS = 32  # lapse-walk steps of lapse_averages, over unit time
PATH_CHUNK = 16384  # paths per chunk of each lapse law's one pass


def rng_stream(seed: int, stream: int = 0) -> Generator:
    """Counter-based generator; (seed, stream) is the whole key."""
    return Generator(Philox(key=[seed, stream]))


def heat_kernel(variance: float, x1, x2):
    """Spreading Gaussian density (2 pi v)^(-d/2) exp(-|x2-x1|^2 / 2 v), v = nu (t2 - t1).

    x1 and x2 are points of shape (..., d) whose leading axes broadcast
    against each other; a scalar is a point with d = 1.  One pair of points
    gives a float, a batch gives an array over the broadcast leading axes.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x2 = np.atleast_1d(np.asarray(x2, dtype=np.float64))
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
    grids = [_simpson_grid(c, half_width, n) for c in centers]
    points = np.stack(np.meshgrid(*(x for x, _ in grids), indexing="ij"), axis=-1)
    weights = functools.reduce(np.multiply.outer, (w for _, w in grids))
    return points, weights


def semigroup_residual(nu: float, t1: float, t2: float, t3: float, x1, x3, n_nodes: int = 257) -> float:
    """|int rho(t3,t2) rho(t2,t1) dx2 - rho(t3,t1)| at one endpoint pair."""
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x3 = np.atleast_1d(np.asarray(x3, dtype=np.float64))
    direct = heat_kernel(nu * (t3 - t1), x1, x3)
    spread = 8.0 * math.sqrt(nu * (t3 - t1)) + float(np.max(np.abs(x3 - x1)))
    points, weights = _simpson_product_grid(0.5 * (x1 + x3), spread, n_nodes)
    integrand = heat_kernel(nu * (t2 - t1), x1, points) * heat_kernel(nu * (t3 - t2), points, x3)
    return abs(float(np.sum(weights * integrand)) - direct)


def bridge_column_variance(nu: float, n_steps: int, column: int) -> float:
    """Variance of time column `column` of an n_steps-step Brownian bridge on unit time.

    The bridge is the sequential conditional-Gaussian recursion: at step k,
    with r = n_steps - k + 1 steps left, the gap to the pinned end shrinks
    by 1/r and a normal of variance nu dt (r - 1)/r is added, dt = 1/n_steps.
    The recursion is linear in its Gaussian draws, so the column's law is
    exact: the pins fix its mean, and its variance propagates as
    var (1 - 1/r)^2 + nu dt (r - 1)/r, which is nu t (1 - t) at t = column dt.
    """
    dt = 1.0 / n_steps
    var = 0.0
    for k in range(1, column + 1):
        remaining = n_steps - k + 1
        var = var * (1.0 - 1.0 / remaining) ** 2 + nu * dt * (remaining - 1) / remaining
    return var


def lapse_walk_variance(nu: float) -> float:
    """Variance of the Brownian part of a lapse walk's trapezoid proper time.

    With N = LAPSE_STEPS steps of dt = 1/N, increment i (1-based) enters
    tau with weight dt (N - i + 1/2), so the variance is
    nu dt^3 sum_i (N - i + 1/2)^2 = nu (1/3 - 1/(12 N^2)).
    """
    return nu * (1.0 / 3.0 - 1.0 / (12.0 * LAPSE_STEPS**2))


def sample_lapse_proper_times(nu: float, window: float, n_paths: int, seed: int, stream: int = 0):
    """tau = int lambda dt of unpinned lapse walks, drawn from its exact law, PATH_CHUNK paths at a time.

    lambda(0) ~ Uniform(-window, window), LAPSE_STEPS increments
    N(0, nu dt) on unit time, both ends free, tau accumulated by the
    trapezoid rule.  That tau is lambda(0) plus an independent
    N(0, lapse_walk_variance(nu)), so each path costs one uniform and one
    normal.  window = 0 and nu = 0 gives the degenerate tau = 0.

    The draws equal, bit for bit, one (seed, stream) generator's n_paths
    uniforms and then n_paths normals: the normals' generator skips the
    uniforms' words, four per Philox counter step.  The generators are
    keyed here and the returned iterator draws each chunk as it is asked
    for, calling no public function of this module.
    """
    uniforms = rng_stream(seed, stream)
    normals = rng_stream(seed, stream)
    if window > 0:
        normals.bit_generator.advance(n_paths // 4)
        normals.bit_generator.random_raw(n_paths % 4)
    return _lapse_chunks(uniforms, normals, nu, window, math.sqrt(lapse_walk_variance(nu)), n_paths)


def _lapse_chunks(uniforms, normals, nu: float, window: float, scale: float, n_paths: int):
    for lo in range(0, n_paths, PATH_CHUNK):
        size = min(PATH_CHUNK, n_paths - lo)
        tau = uniforms.uniform(-window, window, size=size) if window > 0 else np.zeros(size)
        if nu > 0:
            tau += normals.standard_normal(size) * scale
        yield tau


def _chunk_sums(tau, weights, target: float, finite_window: complex) -> tuple[complex, float]:
    """Sums of v and |v|^2 over one chunk of lapse times, v = sum_n weights[n] exp(-i tau (n - target)) - finite_window.

    The sum is exp(i tau target) times a polynomial in z = exp(-i tau)
    whose coefficient of z^n is weights[n], evaluated by Horner's rule.
    The chunk's buffers die on return, so they never overlap the next
    chunk's draws.
    """
    z = np.exp(-1j * tau)
    vals = np.full(tau.size, weights[-1], dtype=np.complex128)
    for c in weights[-2::-1]:
        vals *= z
        vals += c
    # for an integer target the phase exp(i tau target) is conj(z)**target: one exponential per path
    phase = np.conj(z) ** int(target) if float(target).is_integer() else np.exp(1j * target * tau)
    vals = phase * vals - finite_window
    return complex(np.sum(vals)), float(np.sum(vals.real**2 + vals.imag**2))


def _law_estimate(
    chunks, finite_window: complex, weights, target: float, n_paths: int
) -> tuple[complex, complex, float]:
    """(finite_window, Monte Carlo estimate, its standard error) from one law's chunks of lapse times.

    The pass keeps running sums of v and |v|^2, v the phase value less the
    finite-window mean: centred there, the one-pass variance does not
    cancel when the values barely spread.
    """
    total, total_sq = 0j, 0.0
    for tau in chunks:
        chunk, chunk_sq = _chunk_sums(tau, weights, target, finite_window)
        total += chunk
        total_sq += chunk_sq
    mean = total / n_paths
    # equal values (the degenerate law) can round the difference below 0
    mc_se = math.sqrt(max(total_sq / n_paths - abs(mean) ** 2, 0.0) / n_paths)
    return finite_window, finite_window + mean, mc_se


def lapse_averages(
    constraint: projector.ConstraintOp, weights, laws, n_paths: int, seed: int
) -> list[tuple[complex, complex, float]]:
    """sum_n weights[n] E[exp(-i tau x_n)] over each lapse law (stream, nu, window), x_n the constraint's eigenvalues.

    With weights conj(bra) * ket this is <bra| E[exp(-i tau Phi)] |ket>
    for tau from sample_lapse_proper_times(nu, window, n_paths, seed,
    stream).  The constraint must be one-mode, so weights[n] sits on level
    n: the sum is exp(i tau target) times a polynomial in z = exp(-i tau)
    whose coefficient of z^n is weights[n] (see _chunk_sums).  Returns,
    per law, its closed-form finite-window mean, the Monte Carlo estimate
    over n_paths draws of (seed, stream) and that estimate's standard
    error; callers score them.

    The laws run on two threads: one plain thread passes over laws 1, 3, ...
    while the calling thread passes over laws 0, 2, ..., and numpy releases
    the GIL in every draw and array operation of a pass.  The worker's
    exception is re-raised here after the join.  Every public function
    (the finite-window means' variance, the samplers' keys) is called here,
    on the calling thread, before the worker starts; the worker runs only
    this module's private pass, so a tracer that patches the public
    functions with one span stack (perfbench/tracer.py) sees one thread.
    """
    eigs = constraint.eigs
    passes = []
    for stream, nu, window in laws:
        gauss = np.exp(-0.5 * lapse_walk_variance(nu) * eigs**2)
        finite_window = complex(np.sum(weights * np.sinc(window * eigs / math.pi) * gauss))
        passes.append((sample_lapse_proper_times(nu, window, n_paths, seed, stream), finite_window))
    est = [None] * len(passes)
    failed = []

    def run(indices):
        for i in indices:
            est[i] = _law_estimate(*passes[i], weights, constraint.target, n_paths)

    def worker():
        try:
            run(range(1, len(passes), 2))
        except BaseException as exc:  # re-raised on the calling thread after the join
            failed.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        run(range(0, len(passes), 2))
    finally:
        thread.join()
    if failed:
        raise failed[0]
    return est

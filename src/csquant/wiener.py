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
  targets both approach the spectral projection.  Every eigenvalue x is
  an integer, so with tau = k h + r, h = 2 pi / 4096, the phase is
  exp(-i x k h) exp(-i x r), which depends on k only through k mod 4096,
  times a short Taylor series in r.  So the averages need, per bin
  k mod 4096, only the sums of r^j over the paths in that bin: one
  reduction of tau and a few bincounts per path, whatever the number of
  levels, and no complex value per path.  The mean and E|v|^2 are then
  sums over bins of those moments times per-bin coefficients, one
  length-4096 FFT of the level weights per Taylor order.

lapse_averages takes the integer eigenvalues and the weights
conj(bra) * ket per basis state, so only the lapse laws and their random
streams enter it; the references that do not depend on the law (the
spectral projection, the sin-kernel quadrature, the Dirichlet bound) are
the caller's, built once for all the laws it scores.  It scores nothing.
It builds the per-bin coefficient table once per call, before any law
runs.  Each law is one streaming pass: each chunk of PATH_CHUNK lapse
times is drawn and binned into the law's moments, so memory is one chunk
and one (J + 1, 4096) moment array per thread whatever n_paths is.

The heat kernel takes whole batches of points.  It and the Simpson rule
of its semigroup check factor over the axes, so the check's integral is
a product of one 1-d sum per axis.

Randomness is counter-based (Philox keyed by seed and stream id), so
reruns are reproducible bit for bit.  The CLI's wiener run uses streams
4-7 for its four lapse laws, two of them on a second thread; each law
owns its stream and its buffers and every reduction runs in a fixed
order, so its estimate does not depend on the thread that runs it.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from numpy.random import Generator, Philox


LAPSE_STEPS = 32  # lapse-walk steps of lapse_averages, over unit time
PATH_CHUNK = 16384  # paths per chunk of each lapse law's one pass

# tau = k h + r with h = 2 pi / _PHASE_STEPS = _PHASE_H_HI + _PHASE_H_LO (_bin_moments).  _PHASE_H_HI has
# 26 significant bits, so k * _PHASE_H_HI is exact for |k| < 2^27, |tau| < 2^27 h ~ 2.06e5;
# _PHASE_H_LO also carries 2 pi - math.tau = 2.4492935982947064e-16.
_PHASE_STEPS = 4096
_PHASE_H_HI = round(math.tau * 2**23) / 2**35
_PHASE_H_LO = (math.tau - _PHASE_STEPS * _PHASE_H_HI + 2.4492935982947064e-16) / _PHASE_STEPS


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


def semigroup_residual(nu: float, t1: float, t2: float, t3: float, x1, x3, n_nodes: int = 257) -> float:
    """|int rho(t3,t2) rho(t2,t1) dx2 - rho(t3,t1)| at one endpoint pair.

    The integral is a tensor-product Simpson rule, taken as the product of
    one sum of 1-d kernels per axis; the direct term is the d-dimensional kernel.
    """
    x1 = np.atleast_1d(np.asarray(x1, dtype=np.float64))
    x3 = np.atleast_1d(np.asarray(x3, dtype=np.float64))
    direct = heat_kernel(nu * (t3 - t1), x1, x3)
    spread = 8.0 * math.sqrt(nu * (t3 - t1)) + float(np.max(np.abs(x3 - x1)))
    integral = 1.0
    for start, end in zip(x1, x3):
        points, weights = _simpson_grid(0.5 * (start + end), spread, n_nodes)
        points = points[:, None]
        integrand = heat_kernel(nu * (t2 - t1), [start], points) * heat_kernel(nu * (t3 - t2), points, [end])
        integral *= float(np.sum(weights * integrand))
    return abs(integral - direct)


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


def _taylor_order(max_abs_eig: float) -> int:
    """Smallest J with u^(J+1) / (J+1)! <= 1e-17, u = max_abs_eig h / 2: where exp(-i x r)'s series stops.

    |r| <= h / 2, so |x r| <= u for every eigenvalue x, and the terms past
    r^J add at most ~ u^(J+1) / (J+1)! per unit weight.  J = 6 for
    max |x| = 12 (u = 9.2e-3, first term left out 1.1e-18) up to 16, and 7 at 17.
    """
    u = max_abs_eig * math.pi / _PHASE_STEPS
    order, term = 0, u
    while term > 1e-17:
        order += 1
        term *= u / (order + 1)
    return order


def _bin_moments(tau, moments) -> None:
    """Adds sum r^j over the chunk's lapse times in bin k into moments[j, k], for tau = k h + r.

    k = rint(tau / h) and the Cody-Waite remainder r = (tau - k h_hi) - k h_lo,
    |r| <= h / 2 = 7.7e-4, exact to ~1 ulp of tau for |tau| < 2.06e5.  The
    bin is k mod 4096: 4096 h is 2 pi, and every eigenvalue x is an integer,
    so exp(-i x k h) depends on k only through it.  This is the only
    per-path work; nothing in it is complex or depends on the levels.
    """
    k = np.rint(tau * (_PHASE_STEPS / math.tau))
    r = tau - k * _PHASE_H_HI
    r -= k * _PHASE_H_LO
    bins = k.astype(np.intp)
    bins &= _PHASE_STEPS - 1
    moments[0] += np.bincount(bins, minlength=_PHASE_STEPS)
    power = r.copy()
    for row in moments[1:]:
        row += np.bincount(bins, weights=power, minlength=_PHASE_STEPS)
        power *= r


def _bin_coefficients(eigs, weights, order: int):
    """G[j, k] = sum_n w_n (-i x_n)^j / j! exp(-2 pi i x_n k / 4096) over the basis states n, read-only.

    So sum_n w_n exp(-i tau x_n) = sum_j G[j, k] r^j for tau = k h + r, up
    to the remainder _taylor_order bounds.  Row j is the length-4096 DFT of
    the factors w_n (-i x_n)^j / j! placed at column x_n mod 4096: exact for
    every integer x, as exp(-2 pi i 4096 k / 4096) = 1.  States that share
    an eigenvalue add up in their column.
    """
    j = np.arange(order + 1)[:, None]
    factors = weights * (-1j * eigs) ** j / [[math.factorial(n)] for n in range(order + 1)]
    placed = np.zeros((order + 1, _PHASE_STEPS), dtype=np.complex128)
    np.add.at(placed, (slice(None), eigs.astype(np.intp) & (_PHASE_STEPS - 1)), factors)
    coeffs = np.fft.fft(placed)
    coeffs.flags.writeable = False
    return coeffs


def _law_estimate(chunks, coeffs, finite_window: complex, n_paths: int):
    """(finite_window, Monte Carlo estimate, its standard error) from one law's chunks of lapse times.

    With v = sum_j G[j, k] r^j (_bin_coefficients less finite_window in
    G[0]) and S[j, k] the bins' moments of r (_bin_moments),
    sum v = sum_{j, k} G[j, k] S[j, k] and
    sum |v|^2 = sum_k sum_{a + b <= J} Re(G[a, k] conj(G[b, k])) S[a + b, k];
    the terms with a + b > J are below the remainder.  v is centred at the
    finite-window mean, so the one-pass variance does not cancel when the
    values barely spread.
    """
    order = coeffs.shape[0] - 1
    moments = np.zeros((order + 1, _PHASE_STEPS))
    for tau in chunks:
        _bin_moments(tau, moments)
    coeffs = coeffs.copy()
    coeffs[0] -= finite_window
    total, total_sq = 0j, 0.0
    for m in range(order + 1):
        total += complex(np.sum(coeffs[m] * moments[m]))
        cross = sum(coeffs[a].real * coeffs[m - a].real + coeffs[a].imag * coeffs[m - a].imag for a in range(m + 1))
        total_sq += float(np.sum(cross * moments[m]))
    mean = total / n_paths
    # equal values (the degenerate law) can round the difference below 0
    mc_se = math.sqrt(max(total_sq / n_paths - abs(mean) ** 2, 0.0) / n_paths)
    return finite_window, finite_window + mean, mc_se


def lapse_averages(eigs, weights, laws, n_paths: int, seed: int) -> list[tuple[complex, complex, float]]:
    """sum_n weights[n] E[exp(-i tau eigs[n])] over each lapse law (stream, nu, window).

    With eigs a constraint's eigenvalues and weights conj(bra) * ket this
    is <bra| E[exp(-i tau Phi)] |ket> for tau from
    sample_lapse_proper_times(nu, window, n_paths, seed, stream).  Every
    eigenvalue must be an integer (ValueError otherwise): the phase
    exp(-i tau x) is then a phase of tau's bin times a short series
    in its remainder, whose per-bin coefficients (_bin_coefficients) are
    built once here for all the laws.  Returns, per law, its closed-form
    finite-window mean, the Monte Carlo estimate over n_paths draws of
    (seed, stream) and that estimate's standard error; callers score them.

    The laws run on two threads: one plain thread passes over laws 1, 3, ...
    while the calling thread passes over laws 0, 2, ..., and numpy releases
    the GIL in every draw and array operation of a pass.  The worker's
    exception is re-raised here after the join.  Every public function
    (the finite-window means' variance, the samplers' keys) is called here,
    on the calling thread, before the worker starts; the worker runs only
    this module's private pass, so a tracer that patches the public
    functions with one span stack (perfbench/tracer.py) sees one thread.
    """
    if not np.array_equal(eigs, np.rint(eigs)):
        raise ValueError("lapse_averages needs integer constraint eigenvalues")
    coeffs = _bin_coefficients(eigs, weights, _taylor_order(float(np.max(np.abs(eigs)))))
    passes = []
    for stream, nu, window in laws:
        gauss = np.exp(-0.5 * lapse_walk_variance(nu) * eigs**2)
        finite_window = complex(np.sum(weights * np.sinc(window * eigs / math.pi) * gauss))
        passes.append((sample_lapse_proper_times(nu, window, n_paths, seed, stream), coeffs, finite_window))
    est = [None] * len(passes)
    failed = []

    def run(indices):
        for i in indices:
            est[i] = _law_estimate(*passes[i], n_paths)

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

"""Hot numeric kernels, in numpy.

numpy is the only backend.  Each kernel is vectorized over its batch axis
(coherent labels, bridge paths, lapse samples), and the Monte-Carlo phase
average sums its weights per integer level first, so its cost grows with
the number of levels rather than with the dimension of the space.

Reductions run in a fixed order: the CLI promises byte-identical reruns.
"""

import numpy as np


def backend_name() -> str:
    """Kernel backend; numpy is the only one."""
    return "numpy"


def coherent_amp_matrix(alphas, nmax):
    """Row k holds the number-basis amplitudes of the coherent state alphas[k].

    amp[k, n] = exp(-|a|^2/2) a^n / sqrt(n!), built by the stable recurrence
    amp[:, n] = amp[:, n-1] * a / sqrt(n).
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    out = np.empty((alphas.size, nmax + 1), dtype=np.complex128)
    out[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(1, nmax + 1):
        out[:, n] = out[:, n - 1] * alphas / np.sqrt(n)
    return out


def bridge_fill(start, end, normals, nu, dt):
    """Brownian-bridge paths from pre-drawn standard normals.

    normals: (paths, nsteps-1, d); start and end broadcast against
    (paths, d), so one (d,) pin serves every path.  Returns
    (paths, nsteps+1, d).  Sequential conditional Gaussians: at step k the
    remaining gap to the pinned endpoint is closed in expectation and the
    conditional variance is nu*dt*(N-k)/(N-k+1).
    """
    n_paths, n_inner, d = normals.shape
    n_steps = n_inner + 1
    out = np.empty((n_paths, n_steps + 1, d))
    out[:, 0, :] = start
    out[:, n_steps, :] = end
    for k in range(1, n_steps):
        remaining = n_steps - k + 1
        mean = out[:, k - 1, :] + (end - out[:, k - 1, :]) / remaining
        std = np.sqrt(nu * dt * (remaining - 1) / remaining)
        out[:, k, :] = mean + std * normals[:, k - 1, :]
    return out


def phase_samples(taus, levels, target, weights):
    """vals[i] = sum_n weights[n] * exp(-1j * taus[i] * (levels[n] - target)).

    levels are non-negative integers, so the sum is exp(i tau target) times
    a polynomial in z = exp(-i tau) whose coefficient of z^k is the total
    weight on level k.  Horner's rule evaluates it in O(paths x levels)
    time and O(paths) memory.
    """
    taus = np.asarray(taus, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.complex128)
    coeffs = np.bincount(levels, weights.real) + 1j * np.bincount(levels, weights.imag)
    z = np.exp(-1j * taus)
    vals = np.full(taus.size, coeffs[-1])
    for c in coeffs[-2::-1]:
        vals *= z
        vals += c
    return vals * np.exp(1j * target * taus)

"""Hot numeric kernels, numba-jitted with a pure-numpy fallback.

Backend selection: set CSQUANT_BACKEND=numpy to force the fallback path,
CSQUANT_BACKEND=numba to require the jitted path (ImportError if numba is
missing).  Default is numba when importable, numpy otherwise.  Both paths
are kept importable side by side so tests and benchmarks/ can compare them.

Reductions are sequential on purpose: the CLI promises byte-identical
reruns, so no prange / nondeterministic accumulation order here.
"""

import os

import numpy as np

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    numba = None
    HAS_NUMBA = False


def _resolve_backend() -> str:
    choice = os.environ.get("CSQUANT_BACKEND", "").strip().lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAS_NUMBA:
            raise ImportError("CSQUANT_BACKEND=numba but numba is not importable")
        return "numba"
    return "numba" if HAS_NUMBA else "numpy"


BACKEND = _resolve_backend()


def backend_name() -> str:
    """Active kernel backend, 'numba' or 'numpy'."""
    return BACKEND


# ---------------------------------------------------------------------------
# pure-numpy implementations


def coherent_amp_matrix_np(alphas, nmax):
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


def bridge_fill_np(start, end, normals, nu, dt):
    """Brownian-bridge paths from pre-drawn standard normals.

    start, end: (paths, d); normals: (paths, nsteps-1, d).  Returns
    (paths, nsteps+1, d).  Sequential conditional Gaussians: at step k the
    remaining gap to the pinned endpoint is closed in expectation and the
    conditional variance is nu*dt*(N-k)/(N-k+1).
    """
    n_paths, d = start.shape
    n_steps = normals.shape[1] + 1
    out = np.empty((n_paths, n_steps + 1, d))
    out[:, 0, :] = start
    out[:, n_steps, :] = end
    for k in range(1, n_steps):
        remaining = n_steps - k + 1
        mean = out[:, k - 1, :] + (end - out[:, k - 1, :]) / remaining
        std = np.sqrt(nu * dt * (remaining - 1) / remaining)
        out[:, k, :] = mean + std * normals[:, k - 1, :]
    return out


def phase_samples_np(taus, eigs, weights):
    """vals[i] = sum_n weights[n] * exp(-1j * taus[i] * eigs[n]), chunked."""
    taus = np.asarray(taus, dtype=np.float64)
    vals = np.empty(taus.size, dtype=np.complex128)
    chunk = max(1, 8_000_000 // max(1, eigs.size))
    for lo in range(0, taus.size, chunk):
        hi = min(lo + chunk, taus.size)
        vals[lo:hi] = np.exp(-1j * np.outer(taus[lo:hi], eigs)) @ weights
    return vals


# ---------------------------------------------------------------------------
# numba twins

if HAS_NUMBA:

    @numba.njit(cache=True)
    def coherent_amp_matrix_nb(alphas, nmax):
        out = np.empty((alphas.size, nmax + 1), dtype=np.complex128)
        for k in range(alphas.size):
            a = alphas[k]
            out[k, 0] = np.exp(-0.5 * (a.real * a.real + a.imag * a.imag))
            for n in range(1, nmax + 1):
                out[k, n] = out[k, n - 1] * a / np.sqrt(n)
        return out

    @numba.njit(cache=True)
    def bridge_fill_nb(start, end, normals, nu, dt):
        n_paths, d = start.shape
        n_steps = normals.shape[1] + 1
        out = np.empty((n_paths, n_steps + 1, d))
        for p in range(n_paths):
            for c in range(d):
                out[p, 0, c] = start[p, c]
                out[p, n_steps, c] = end[p, c]
            for k in range(1, n_steps):
                remaining = n_steps - k + 1
                std = np.sqrt(nu * dt * (remaining - 1) / remaining)
                for c in range(d):
                    mean = out[p, k - 1, c] + (end[p, c] - out[p, k - 1, c]) / remaining
                    out[p, k, c] = mean + std * normals[p, k - 1, c]
        return out

    @numba.njit(cache=True)
    def phase_samples_nb(taus, eigs, weights):
        vals = np.empty(taus.size, dtype=np.complex128)
        for i in range(taus.size):
            acc = 0.0 + 0.0j
            for n in range(eigs.size):
                acc += weights[n] * np.exp(-1j * taus[i] * eigs[n])
            vals[i] = acc
        return vals


if BACKEND == "numba":
    coherent_amp_matrix = coherent_amp_matrix_nb
    bridge_fill = bridge_fill_nb
    phase_samples = phase_samples_nb
else:
    coherent_amp_matrix = coherent_amp_matrix_np
    bridge_fill = bridge_fill_np
    phase_samples = phase_samples_np

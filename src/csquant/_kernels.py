"""Hot numeric kernels, in numpy.

numpy is the only backend.  Each kernel is vectorized over its batch axis
(coherent labels, lapse samples); the Monte-Carlo phase average takes one
coefficient per integer level, so it costs O(paths x levels).

Reductions run in a fixed order: the CLI promises byte-identical reruns.
"""

import numpy as np

PATH_CHUNK = 16384  # paths per chunk of the phase average


def backend_name() -> str:
    """Kernel backend; numpy is the only one."""
    return "numpy"


def coherent_amp_matrix(alphas, nmax):
    """Row k holds the number-basis amplitudes of the coherent state alphas[k].

    amp[k, n] = exp(-|a|^2/2) a^n / sqrt(n!), built by the stable recurrence
    amp[:, n] = amp[:, n-1] * a / sqrt(n).  Real labels (radii) give float64
    rows, complex labels complex128 rows.
    """
    alphas = np.asarray(alphas)
    alphas = alphas.astype(np.complex128 if np.iscomplexobj(alphas) else np.float64)
    out = np.empty((alphas.size, nmax + 1), dtype=alphas.dtype)
    out[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    for n in range(1, nmax + 1):
        out[:, n] = out[:, n - 1] * alphas / np.sqrt(n)
    return out


def phase_samples(taus, coeffs, target):
    """vals[i] = sum_k coeffs[k] * exp(-1j * taus[i] * (k - target)), one coefficient per level k.

    The sum is exp(i tau target) times a polynomial in z = exp(-i tau)
    whose coefficient of z^k is coeffs[k].  Horner's rule evaluates it in
    O(paths x levels) time, PATH_CHUNK paths at a time.  For an integer
    target the target phase is conj(z)**target, so each path costs one
    exponential.
    """
    taus = np.asarray(taus, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    vals = np.empty(taus.size, dtype=np.complex128)
    for lo in range(0, taus.size, PATH_CHUNK):
        tau = taus[lo : lo + PATH_CHUNK]
        z = np.exp(-1j * tau)
        out = vals[lo : lo + PATH_CHUNK]
        out[:] = coeffs[-1]
        for c in coeffs[-2::-1]:
            out *= z
            out += c
        phase = np.conj(z) ** int(target) if float(target).is_integer() else np.exp(1j * target * tau)
        # phase * vals in this operand order: numpy's SIMD complex product is not bitwise
        # commutative, and the recorded check values follow this order
        np.multiply(phase, out, out=out)
    return vals

"""Hot numeric kernels, in numpy.

numpy is the only backend.  coherent_amp_matrix is vectorized over its
batch of coherent labels.

Reductions run in a fixed order: the CLI promises byte-identical reruns.
"""

import numpy as np


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


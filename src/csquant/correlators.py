"""Physical-state wavefunctions, correlation functions, classical limits.

The projected coherent state of either model keeps a single
total-occupation sector m, so its wavefunction on the full phase space has
a closed form:

    single:  <a''| P |a'>  = exp(-(|a''|^2+|a'|^2)/2) (a' conj(a''))^m / m!
    double:  <a'',b''| P |a',b'> = exp(-sum |.|^2 / 2)
             (conj(a'') a' + conj(b'') b')^m / m!

Correlation ratios <op P> / <P> against these states are computed two ways:
the normative route is matrix elements in the truncated space, taken as
O(dim) band actions of the ladder operators (fock.lower) and a diagonal H;
the closed-form brackets below come from the Bargmann derivative rule
<a| A |psi> = d/d(conj a) of the analytic part and are the test oracles.
At the peak manifold (|a''| = |a'|, phases aligned, energies matching the
constraint) the ratios reduce to the classical trajectory evaluated at an
energy including the zero-point shift, so the absolute deviation decays
like 1/sqrt(m).  Along an evaluation ray s * u (|u| = 1) the magnitude is
exp(-s^2/2) s^m times a constant, so its peak sits at s^2 = m in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import fock, projector
from .fock import make_space
from .coherent import coherent_vector

RATIO_FLOOR = 1e-300
LIMIT_OFFSETS = (0.0, 0.45, 0.9)  # common phase offsets of the classical-limit evaluation points

_SINGLE_OPS = ("H", "Q", "P")
_DOUBLE_OPS = ("H", "Q1", "P1", "Q2", "P2")


def _log_power_over_factorial(z: complex, m: int) -> complex:
    """z^m / m! via exp(m log z - lgamma(m+1)); exact branch for integer m."""
    if z == 0:
        return 0.0 if m > 0 else 1.0
    return np.exp(m * np.log(np.complex128(z)) - special.gammaln(m + 1))


def phys_wavefunction(model: str, labels_ket, labels_eval, mprime: int) -> complex:
    """Closed-form overlap of the evaluation point with the projected ket."""
    if mprime < 0:
        raise ValueError("mprime must be >= 0")
    if model == "single":
        a_ket = complex(labels_ket)
        a_eval = complex(labels_eval)
        gauss = math.exp(-0.5 * (abs(a_eval) ** 2 + abs(a_ket) ** 2))
        return complex(gauss * _log_power_over_factorial(a_ket * np.conj(a_eval), mprime))
    if model == "double":
        a_ket, b_ket = (complex(z) for z in labels_ket)
        a_eval, b_eval = (complex(z) for z in labels_eval)
        gauss = math.exp(
            -0.5 * (abs(a_eval) ** 2 + abs(b_eval) ** 2 + abs(a_ket) ** 2 + abs(b_ket) ** 2)
        )
        core = np.conj(a_eval) * a_ket + np.conj(b_eval) * b_ket
        return complex(gauss * _log_power_over_factorial(core, mprime))
    raise ValueError(f"unknown model {model!r}")


def peak_scaled_magnitude(model: str, labels_ket, labels_eval, mprime: int) -> float:
    """sqrt(2 pi m) |wavefunction|, the normalization that is ~1 at the peak."""
    return math.sqrt(2.0 * math.pi * mprime) * abs(
        phys_wavefunction(model, labels_ket, labels_eval, mprime)
    )


def oracle_ratio(model: str, operator: str, labels_ket, labels_eval, mprime: int,
                 omega: float = 1.0, hbar: float = 1.0) -> complex:
    """Closed-form correlation bracket (value / overlap) from the ladder algebra."""
    m = mprime
    if model == "single":
        ae = np.conj(complex(labels_eval))
        if operator == "H":
            return hbar * omega * (m + 0.5)
        if operator == "Q":
            return math.sqrt(hbar / (2.0 * omega)) * (m / ae + ae)
        if operator == "P":
            return 1j * math.sqrt(hbar * omega / 2.0) * (ae - m / ae)
        raise ValueError(f"single-model operator must be one of {_SINGLE_OPS}")
    if model == "double":
        a_ket, b_ket = (complex(z) for z in labels_ket)
        ae, be = (np.conj(complex(z)) for z in labels_eval)
        denom = ae * a_ket + be * b_ket
        if operator == "H":
            return hbar * omega * (m + 1.0)
        if operator == "Q1":
            return math.sqrt(hbar / (2.0 * omega)) * (m * a_ket / denom + ae)
        if operator == "P1":
            return 1j * math.sqrt(hbar * omega / 2.0) * (ae - m * a_ket / denom)
        if operator == "Q2":
            return math.sqrt(hbar / (2.0 * omega)) * (m * b_ket / denom + be)
        if operator == "P2":
            return 1j * math.sqrt(hbar * omega / 2.0) * (be - m * b_ket / denom)
        raise ValueError(f"double-model operator must be one of {_DOUBLE_OPS}")
    raise ValueError(f"unknown model {model!r}")


def _matrix_element(space, operator: str, bra: np.ndarray, ket: np.ndarray, omega: float, hbar: float) -> complex:
    """<bra| operator |ket> for H (summed over modes) or a per-mode Q/P, in O(dim).

    Q and P combine <bra| a |ket> and <bra| a^dagger |ket> = <a bra| ket>;
    H is diagonal in the occupation basis.
    """
    if operator == "H":
        energies = sum(hbar * omega * (space.mode_occupations(k) + 0.5) for k in range(space.modes))
        return complex(np.vdot(bra, energies * ket))
    mode = int(operator[1:] or 1) - 1  # "Q" is the single model's mode 0, "Q2" is mode 1
    lowered = np.vdot(bra, fock.lower(space, mode, ket))
    raised = np.vdot(fock.lower(space, mode, bra), ket)
    if operator[0] == "Q":
        return complex(math.sqrt(hbar / (2.0 * omega)) * (lowered + raised))
    return complex(1j * math.sqrt(hbar * omega / 2.0) * (raised - lowered))


@dataclass(frozen=True)
class CorrelationReport:
    value: complex | None
    overlap: complex
    ratio_to_overlap: complex | None
    oracle: complex | None
    undefined: bool


def correlation(
    model: str,
    operator: str,
    labels_ket,
    labels_eval,
    mprime: int,
    nmax: int,
    omega: float = 1.0,
    hbar: float = 1.0,
    epsilon: float = 0.1,
) -> CorrelationReport:
    """Correlation of `operator` between a projected ket and an evaluation state.

    Matrix elements in the truncated space are the normative values; the
    report also carries the closed-form bracket for comparison.
    """
    if model == "single":
        space = make_space(1, nmax)
        v_ket = coherent_vector(space, complex(labels_ket))
        v_eval = coherent_vector(space, complex(labels_eval))
        ops = _SINGLE_OPS
        constraint = projector.single_constraint(space, float(mprime))
    elif model == "double":
        space = make_space(2, nmax)
        v_ket = coherent_vector(space, [complex(z) for z in labels_ket])
        v_eval = coherent_vector(space, [complex(z) for z in labels_eval])
        ops = _DOUBLE_OPS
        constraint = projector.double_constraint(space, float(mprime))
    else:
        raise ValueError(f"unknown model {model!r}")
    if operator not in ops:
        raise ValueError(f"operator {operator!r} not available for the {model} model")

    spec = projector.ProjectorSpec(constraint=constraint, epsilon=epsilon)
    projected = projector.build_projector(spec) * v_ket.amps
    overlap = complex(np.vdot(v_eval.amps, projected))
    undefined = abs(overlap) < RATIO_FLOOR
    if undefined:
        value = None
        ratio = None
        oracle = None
    else:
        value = _matrix_element(space, operator, v_eval.amps, projected, omega, hbar)
        ratio = value / overlap
        oracle = oracle_ratio(model, operator, labels_ket, labels_eval, mprime, omega, hbar)

    return CorrelationReport(
        value=value,
        overlap=overlap,
        ratio_to_overlap=ratio,
        oracle=oracle,
        undefined=undefined,
    )


@dataclass(frozen=True)
class ClassicalLimitRow:
    m: int
    dev_abs: float
    dev_rel: float
    h_ratio_error: float


def classical_limit_check(
    model: str,
    m_values=(4, 16, 64),
    omega: float = 1.0,
    hbar: float = 1.0,
) -> list:
    """Deviation of correlation ratios from the classical trajectory per m.

    Evaluation points run along the peak manifold (equal radii, a common
    phase offset from LIMIT_OFFSETS, energies matching the constraint).
    For the single model the ratios are matrix elements from band actions
    (O(dim) per m); the double model uses the closed-form brackets, which the tests pin against
    matrix elements at small m.  dev_abs is max over offsets and over the
    Q/P pair of |ratio - classical|; dev_rel divides by the classical
    amplitude.
    """
    rows = []
    for m in m_values:
        devs = []
        amp_scale = None
        if model == "single":
            nmax = int(m + 12 * math.sqrt(m) + 20)
            space = make_space(1, nmax)
            constraint = projector.single_constraint(space, float(m))
            weights = projector.build_projector(projector.ProjectorSpec(constraint=constraint))
            a_ket = math.sqrt(m)
            projected = weights * coherent_vector(space, a_ket).amps
            energy = hbar * omega * (m + 0.5)
            amp = math.sqrt(2.0 * energy) / omega
            amp_scale = amp
            h_err = 0.0
            for off in LIMIT_OFFSETS:
                v_eval = coherent_vector(space, a_ket * np.exp(1j * off))
                overlap = np.vdot(v_eval.amps, projected)
                ratio_q, ratio_p, ratio_h = (
                    _matrix_element(space, op, v_eval.amps, projected, omega, hbar) / overlap
                    for op in ("Q", "P", "H")
                )
                devs.append(abs(ratio_q - amp * math.cos(off)))
                devs.append(abs(ratio_p - amp * omega * math.sin(off)))
                h_err = max(h_err, abs(ratio_h - energy))
        elif model == "double":
            r = math.sqrt(m / 2.0)
            ket = (r, r)
            mode_energy = hbar * omega * (r**2 + 0.5)
            amp = math.sqrt(2.0 * mode_energy) / omega
            amp_scale = amp
            h_err = abs(
                oracle_ratio("double", "H", ket, ket, m, omega, hbar) - hbar * omega * (m + 1.0)
            )
            for off in LIMIT_OFFSETS:
                ev = (r * np.exp(1j * off), r * np.exp(1j * off))
                ratio_q = oracle_ratio("double", "Q1", ket, ev, m, omega, hbar)
                ratio_p = oracle_ratio("double", "P1", ket, ev, m, omega, hbar)
                devs.append(abs(ratio_q - amp * math.cos(off)))
                devs.append(abs(ratio_p - amp * omega * math.sin(off)))
        else:
            raise ValueError(f"unknown model {model!r}")
        rows.append(
            ClassicalLimitRow(
                m=m,
                dev_abs=max(devs),
                dev_rel=max(devs) / amp_scale,
                h_ratio_error=float(h_err),
            )
        )
    return rows


def deviation_scaling_exponent(rows) -> float:
    """Least-squares slope of log(dev_abs) against log(m)."""
    logm = np.log([row.m for row in rows])
    logd = np.log([row.dev_abs for row in rows])
    return float(np.polyfit(logm, logd, 1)[0])


@dataclass(frozen=True)
class OneFormReport:
    shift: float
    closed: bool
    pdq: float


def gauge_phase_one_form_check(path_pq, f_samples) -> OneFormReport:
    """Line integral of the phase one-form shift df along a discrete path.

    The discrete integral telescopes to f(end) - f(start): zero around a
    closed path for single-valued f, while a winding phase accumulated
    along the path (e.g. f = m*theta around a circle) leaves 2 pi m.  The
    trapezoid integral of p dq is returned alongside.
    """
    path = np.asarray(path_pq, dtype=np.float64)
    f = np.asarray(f_samples, dtype=np.float64)
    if path.ndim != 2 or path.shape[1] != 2:
        raise ValueError("path must be an (N+1) x 2 array of (p, q) points")
    if f.shape != (path.shape[0],):
        raise ValueError("need one f sample per path point")
    shift = float(np.sum(np.diff(f)))
    closed = bool(np.max(np.abs(path[-1] - path[0])) < 1e-12)
    p_mid = 0.5 * (path[1:, 0] + path[:-1, 0])
    pdq = float(np.sum(p_mid * np.diff(path[:, 1])))
    return OneFormReport(shift=shift, closed=closed, pdq=pdq)


def correlation_width(e1: float, e2: float) -> float:
    """Full width at half max of |overlap| in the relative-angle direction.

    The double-model correlation magnitude on the peak manifold is
    ((e1^2 + e2^2 + 2 e1 e2 cos t) / (e1+e2)^2)^m with m = e1 + e2; the
    width shrinks like sqrt(E_total / (E1 E2)) as both energies grow.
    """
    if e1 <= 0 or e2 <= 0:
        raise ValueError("energies must be > 0")
    m = e1 + e2
    target = 2.0 ** (-1.0 / m)
    cos_half = (target * (e1 + e2) ** 2 - e1**2 - e2**2) / (2.0 * e1 * e2)
    if cos_half < -1.0:
        return 2.0 * math.pi  # half max never reached within one turn
    return 2.0 * math.acos(min(1.0, cos_half))

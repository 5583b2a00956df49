"""Correlation ratios against projected coherent states, and their classical limit.

An oscillator model is its mode count: one coherent-state label per mode,
one mode for the single model and two for the double, and each function
reads the count from the labels (or the `modes`) it is given.  The
projected coherent state keeps a single total-occupation sector m.
Correlation ratios <e| op P |ket> / <e| P |ket> are computed in units
hbar = omega = 1.  The normative route is projected_ratios: matrix
elements in the truncated space, taken as O(dim) band actions of the
ladder operators (fock.lower) and a diagonal H, against one projected ket
per call for a whole table of evaluation points and operators.  The
closed-form brackets (oracle_ratio) come from the Bargmann derivative rule
<a| A |psi> = d/d(conj a) of the analytic part of the projected
wavefunction, prop z^m / m! with z = sum_j conj(e_j) ket_j over the
modes.  They score the matrix elements in `correlations`, and the
two-mode classical limit uses them directly.  At the peak manifold (equal
radii, phases aligned, energies matching the constraint) the ratios
reduce to the classical trajectory evaluated at an energy including the
zero-point shift, so the absolute deviation decays like 1/sqrt(m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, projector
from .fock import make_space
from .coherent import coherent_vector

RATIO_FLOOR = 1e-300
LIMIT_OFFSETS = (0.0, 0.45, 0.9)  # common phase offsets of the classical-limit evaluation points


def oracle_ratio(operator: str, labels_ket, labels_eval, mprime: int) -> complex:
    """Closed-form correlation bracket (value / overlap) from the ladder algebra, for k labels.

    With z = sum_j conj(e_j) ket_j the projected wavefunction is
    prop z^m / m!, so a_j contributes m ket_j / z and a_j^dagger conj(e_j);
    H is m + k/2.  "Q" and "P" mean mode 1, as in _matrix_element.
    """
    kets = [complex(z) for z in np.atleast_1d(labels_ket)]
    if operator == "H":
        return mprime + 0.5 * len(kets)
    conj_evals = [np.conj(complex(z)) for z in np.atleast_1d(labels_eval)]
    mode = int(operator[1:] or 1) - 1
    lowered = mprime * kets[mode] / sum(e * k for e, k in zip(conj_evals, kets))
    if operator[0] == "Q":
        return math.sqrt(0.5) * (lowered + conj_evals[mode])
    return 1j * math.sqrt(0.5) * (conj_evals[mode] - lowered)


def _matrix_element(space, operator: str, bra: np.ndarray, ket: np.ndarray) -> complex:
    """<bra| operator |ket> for H (summed over modes) or a per-mode Q/P, in O(dim).

    Q and P combine <bra| a |ket> and <bra| a^dagger |ket> = <a bra| ket>;
    H is diagonal in the occupation basis.
    """
    if operator == "H":
        energies = sum(space.mode_occupations(k) + 0.5 for k in range(space.modes))
        return complex(np.vdot(bra, energies * ket))
    mode = int(operator[1:] or 1) - 1  # "Q" and "Q1" are mode 0, "Q2" is mode 1
    lowered = np.vdot(bra, fock.lower(space, mode, ket))
    raised = np.vdot(fock.lower(space, mode, bra), ket)
    if operator[0] == "Q":
        return complex(math.sqrt(0.5) * (lowered + raised))
    return complex(1j * math.sqrt(0.5) * (raised - lowered))


def projected_ratios(ket, evals, mprime: int, nmax: int, ops) -> np.ndarray:
    """Correlation ratios <e| op P |ket> / <e| P |ket> in the truncated space of one mode per label of ket.

    The space, the projector weights and the projected ket are built once;
    entry [i, k] is the band-action matrix element of ops[k] at evals[i]
    divided by that point's overlap.  An overlap below RATIO_FLOOR leaves
    the ratio undefined and raises ValueError.
    """
    space = make_space(np.size(ket), nmax)
    weights = projector.build_projector(projector.number_constraint(space, float(mprime)))
    projected = weights * coherent_vector(space, ket)
    ratios = np.empty((len(evals), len(ops)), dtype=np.complex128)
    for i, label in enumerate(evals):
        bra = coherent_vector(space, label)
        overlap = complex(np.vdot(bra, projected))
        if abs(overlap) < RATIO_FLOOR:
            raise ValueError(f"overlap {abs(overlap):.3e} below {RATIO_FLOOR:g}: the ratio is undefined")
        ratios[i] = [_matrix_element(space, op, bra, projected) / overlap for op in ops]
    return ratios


@dataclass(frozen=True)
class ClassicalLimitRow:
    m: int
    dev_abs: float
    dev_rel: float
    h_ratio_error: float


def classical_limit_check(modes: int, m_values) -> list:
    """Deviation of correlation ratios from the classical trajectory per m.

    Evaluation points run along the peak manifold: every label of radius
    r = sqrt(m / modes), the ket's real and the evaluation points' with a
    common phase offset from LIMIT_OFFSETS, so the energy E = m + modes/2
    matches the constraint and mode 1 moves on the classical orbit of
    amplitude sqrt(2E / modes).  On one mode the ratios are matrix elements
    from band actions (projected_ratios, O(dim) per m); on two they are the
    closed-form brackets, which the tests pin against matrix elements at
    small m.  dev_abs is max over offsets and over the Q/P pair of
    |ratio - classical|; dev_rel divides by the classical amplitude.
    h_ratio_error is the largest |H ratio - E| / E: relative, because from
    E >= 2^19 one ulp of E alone exceeds 1e-10.
    """
    ops = ("Q", "P", "H")
    rows = []
    for m in m_values:
        r = math.sqrt(m / modes)
        energy = m + 0.5 * modes
        amp = math.sqrt(2.0 * energy / modes)
        ket = (r,) * modes
        evals = [(r * np.exp(1j * off),) * modes for off in LIMIT_OFFSETS]
        if modes == 1:
            ratios = projected_ratios(ket, evals, m, int(m + 12 * math.sqrt(m) + 20), ops)
        else:
            ratios = np.array([[oracle_ratio(op, ket, ev, m) for op in ops] for ev in evals])
        devs = []
        for off, (ratio_q, ratio_p, _) in zip(LIMIT_OFFSETS, ratios):
            devs.append(abs(ratio_q - amp * math.cos(off)))
            devs.append(abs(ratio_p - amp * math.sin(off)))
        rows.append(
            ClassicalLimitRow(
                m=m,
                dev_abs=max(devs),
                dev_rel=max(devs) / amp,
                h_ratio_error=float(np.max(np.abs(ratios[:, 2] - energy)) / energy),
            )
        )
    return rows


def deviation_scaling_exponent(rows) -> float:
    """Least-squares slope of log(dev_abs) against log(m)."""
    logm = np.log([row.m for row in rows])
    logd = np.log([row.dev_abs for row in rows])
    return float(np.polyfit(logm, logd, 1)[0])

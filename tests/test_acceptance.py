"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see them
all even on success).
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from csquant import cli, classical, correlators, spin, wiener
from csquant.coherent import coherent_vector, resolution_of_unity_check
from csquant.fock import make_space
from csquant.projector import build_projector, number_constraint, sin_kernel_weights
from reference import (
    commutator,
    ho_hamiltonian,
    overlap_alpha,
    projected_propagator,
    projector_identities,
    schwinger_operators,
)


def _report(name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok


def test_criterion_1_projection_exactness():
    start = time.perf_counter()
    space = make_space(1, 40)
    alpha = 1.1 * cmath.exp(0.6j)
    vec = coherent_vector(space, alpha)
    worst = 0.0
    for m in (0, 1, 2, 3):
        projected = build_projector(number_constraint(space, float(m)), epsilon=0.1) * vec
        expected = np.zeros(space.dim, dtype=complex)
        expected[m] = (
            math.exp(-0.5 * abs(alpha) ** 2) * alpha**m / math.sqrt(math.factorial(m))
        )
        worst = max(worst, float(np.max(np.abs(projected - expected))))
    null_ok = True
    for target in (0.3, 0.5, 1.5):
        projected = build_projector(number_constraint(space, target), epsilon=0.1) * vec
        null_ok &= not np.any(projected)  # the weights are exactly 0 or 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: projection exactness (residual <= 1e-12, nulls, < 1 s)",
        worst <= 1e-12 and null_ok and elapsed < 1.0,
    )


def test_criterion_2_projector_identities():
    worst = 0.0
    s1 = make_space(1, 14)
    h1 = ho_hamiltonian(s1, 0)
    s2 = make_space(2, 10)
    h2 = ho_hamiltonian(s2, 0) + ho_hamiltonian(s2, 1)
    for target in range(0, 11):
        rep1 = projector_identities(number_constraint(s1, float(target)), h1)
        rep2 = projector_identities(number_constraint(s2, float(target)), h2)
        worst = max(worst, *rep1.values(), *rep2.values())
    _report(
        "criterion 2: projector identities <= 1e-10 (both models, targets <= 10)",
        worst <= 1e-10,
    )


def test_criterion_3_overlap_kernel():
    space = make_space(1, 40)
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(20):
        a1 = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a2 = rng.uniform(0, 2) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        inner = np.vdot(coherent_vector(space, a1), coherent_vector(space, a2))
        worst = max(worst, abs(overlap_alpha(a1, a2) - inner))
    report = resolution_of_unity_check(space, 8.0)
    block = report.matrix[:21, :21]
    resid = float(np.max(np.abs(block - np.eye(21))))
    _report(
        "criterion 3: overlap kernel <= 1e-10 and closure residual <= 1e-6",
        worst <= 1e-10 and resid <= 1e-6,
    )


def test_criterion_4_su2_equivalence():
    space = make_space(2, 20)
    rng = np.random.default_rng(4)
    worst_good = 0.0
    worst_bad = math.inf
    for _ in range(10):
        mprime = int(rng.integers(1, 9))
        constraint = number_constraint(space, float(mprime))
        weights = build_projector(constraint, epsilon=0.1)
        a1, b1, a2, b2 = (
            rng.uniform(0.4, 1.3) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(4)
        )
        val = projected_propagator(constraint, [a1, b1], [a2, b2])
        n1 = np.linalg.norm(weights * coherent_vector(space, [a1, b1]))
        n2 = np.linalg.norm(weights * coherent_vector(space, [a2, b2]))
        normalized = val / (n1 * n2)
        g1 = (b1 / abs(b1)) ** mprime
        g2 = (b2 / abs(b2)) ** mprime
        gaugefree = normalized * g1 * np.conj(g2)
        xi1, xi2 = a1 / b1, a2 / b2
        good = spin.su2_overlap(mprime, xi1, xi2)  # j = m'/2
        bad = spin.su2_overlap(4 * mprime, xi1, xi2)  # j = 2m'
        worst_good = max(worst_good, abs(gaugefree - good))
        worst_bad = min(worst_bad, abs(gaugefree - bad))
    # the wrong mapping must flunk the 1e-10 comparison on every pair
    _report(
        "criterion 4: j = m'/2 matches to 1e-10 and j = 2m' fails",
        worst_good <= 1e-10 and worst_bad > 1e-8,
    )


def test_criterion_5_spin_algebra():
    space = make_space(2, 8)
    s1, s2, s3, s0 = schwinger_operators(space)
    keep = np.nonzero(space.total_occupations() <= space.nmax)[0]

    def block(mat):
        return mat[np.ix_(keep, keep)]

    resid = 0.0
    for a, b, c in ((s1, s2, s3), (s2, s3, s1), (s3, s1, s2)):
        resid = max(resid, float(np.max(np.abs(block(commutator(a, b) - 1j * c)))))
    casimir = s1 @ s1 + s2 @ s2 + s3 @ s3 - (s0 @ s0 + s0)
    resid = max(resid, float(np.max(np.abs(block(casimir)))))
    closure = max(
        spin.su2_resolution_check(twoj) for twoj in (1, 2, 5, 8, 11, 16, 20)
    )
    _report(
        "criterion 5: spin algebra <= 1e-10 and SU(2) closure <= 1e-8 (j <= 10)",
        resid <= 1e-10 and closure <= 1e-8,
    )


def test_criterion_6_geometry():
    quant = classical.area_quantization(1)
    s_squared = quant.s_squared
    r1 = 0.5 * math.sqrt(s_squared)
    curv_err = abs(classical.scalar_curvature_fd(s_squared, r1) - 2.0 / s_squared)
    pull_err = 0.0
    for frac in np.linspace(0.05, 0.9, 10):
        r = frac * math.sqrt(s_squared)
        g_rr, g_thth = classical.reduced_metric_eval(s_squared, r)
        g_num = classical.embedding_pullback_metric(s_squared, r, 0.4)
        pull_err = max(pull_err, abs(g_num[0, 0] - g_rr), abs(g_num[1, 1] - g_thth))
    area_err = abs(quant.symplectic_area - math.pi * s_squared)
    energies_ok = all(
        classical.area_quantization(n).energy == pytest.approx(float(n), abs=1e-12)
        for n in (1, 2, 3)
    )
    _report(
        "criterion 6: curvature 1e-4, pullback 1e-8, area 1e-4, E = hbar w n",
        curv_err <= 1e-4 and pull_err <= 1e-8 and area_err <= 1e-4 and energies_ok,
    )


def test_criterion_7_classical_limits():
    ok = True
    for modes in (1, 2):
        rows = correlators.classical_limit_check(modes, (4, 16, 64))
        devs = [r.dev_abs for r in rows]
        ok &= devs[0] > devs[1] > devs[2]
        exponent = correlators.deviation_scaling_exponent(rows)
        ok &= -0.7 <= exponent <= -0.3
    h_ratio = correlators.sector_ratios(2.0, [2.0 * cmath.exp(0.5j)], 4)[0, 0]
    ok &= abs(h_ratio - 4.5) <= 1e-12
    _report(
        "criterion 7: classical-limit deviations monotone, ~1/sqrt(m), H ratio exact",
        ok,
    )


def test_criterion_8_wiener_machinery():
    start = time.perf_counter()
    semi = wiener.semigroup_residual(0.7, 0.0, 0.4, 1.0, [0.1, -0.2], [0.5, 0.3])
    # the bridge column's exact variance is nu t (T - t) / T: 0.25 at the midpoint of unit time
    var_ok = abs(wiener.bridge_column_variance(1.0, 16, 8) - 0.25) <= 1e-12
    n = 100_000

    space = make_space(1, 16)
    constraint = number_constraint(space, 1.0)
    state = coherent_vector(space, 1.0)
    weights = np.conj(state) * state
    spectral = np.sum(weights * build_projector(constraint, 0.45))
    eigs = constraint.eigs
    quadrature = np.sum(weights * sin_kernel_weights(eigs, 0.45))
    mc_ok = True
    # (seed, nu, window): the reference law, its window doubled, and nu halved and doubled
    for seed, nu, window in ((101, 1.0, 2000.0), (102, 1.0, 4000.0), (103, 0.5, 2000.0), (104, 2.0, 2000.0)):
        _, mc, se = wiener.lapse_averages(eigs, weights, [(0, nu, window)], n, seed)[0]
        mc_ok &= abs(mc - spectral) <= 3.0 * se
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8: semigroup 1e-8, bridge variance 1e-12, estimators agree, stable, < 60 s",
        semi <= 1e-8
        and var_ok
        and abs(quadrature - spectral) <= 1e-4
        and mc_ok
        and elapsed < 60.0,
    )


def test_criterion_9_gauge_phase_one_form():
    # the discrete line integral of df around the circle telescopes to f(end) - f(start)
    theta = np.linspace(0.0, 2.0 * math.pi, 301)
    smooth = np.sum(np.diff(np.cos(2.0 * theta)))
    winding = np.sum(np.diff(2.0 * theta))
    _report(
        "criterion 9: closed-path df = 0 +/- 1e-8, winding f = m theta gives 2 pi m",
        abs(smooth) <= 1e-8 and abs(winding - 4.0 * math.pi) <= 1e-8,
    )


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "wiener", "n_paths": 4000, "seed": 31}))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append((out / "wiener.json").read_bytes())
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"experiment": "classical-limit"}))
    sweeps = []
    for sub in ("c", "d"):
        out = tmp_path / sub
        assert cli.main(["run", "--config", str(cfg2), "--out", str(out)]) == 0
        sweeps.append((out / "classical-limit_deviation.csv").read_bytes())
    _report(
        "criterion 10: CLI reruns reproduce outputs byte for byte",
        outs[0] == outs[1] and sweeps[0] == sweeps[1],
    )

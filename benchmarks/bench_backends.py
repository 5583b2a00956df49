"""Benchmark the numba kernels against the pure-numpy fallbacks.

Usage: python benchmarks/bench_backends.py [--repeat N]

Times the three hot kernels on representative workloads (coherent-amplitude
batches, Brownian-bridge filling, Monte-Carlo phase averaging) and prints
one row per kernel and backend.  The first numba call includes JIT
compilation; it is timed separately as "warmup".
"""

import argparse
import math
import time

import numpy as np

from csquant import _kernels


def _timeit(fn, args, repeat):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def build_workloads(rng):
    alphas = np.ascontiguousarray(
        rng.uniform(0, 8, 200_000) * np.exp(1j * rng.uniform(0, 2 * math.pi, 200_000))
    )
    start = np.zeros((100_000, 2))
    end = np.ones((100_000, 2))
    normals = np.ascontiguousarray(rng.standard_normal((100_000, 31, 2)))
    taus = np.ascontiguousarray(rng.uniform(-2000, 2000, 100_000))
    eigs = np.ascontiguousarray(np.arange(41.0) - 3.0)
    phase_w = np.ascontiguousarray(
        rng.standard_normal(41) + 1j * rng.standard_normal(41)
    )
    return {
        "coherent_amp_matrix": ((alphas, 40), "200k labels, nmax=40"),
        "bridge_fill": ((start, end, normals, 1.0, 1.0 / 32.0), "100k bridges, 32 steps"),
        "phase_samples": ((taus, eigs, phase_w), "100k taus x 41 levels"),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    workloads = build_workloads(rng)

    print(f"numba available: {_kernels.HAS_NUMBA}")
    print(f"{'kernel':24s} {'workload':28s} {'numpy':>10s} {'numba':>10s} {'speedup':>8s}")
    for name, (wl_args, desc) in workloads.items():
        np_fn = getattr(_kernels, f"{name}_np")
        t_np = _timeit(np_fn, wl_args, args.repeat)
        if _kernels.HAS_NUMBA:
            nb_fn = getattr(_kernels, f"{name}_nb")
            nb_fn(*wl_args)  # warmup / compile
            t_nb = _timeit(nb_fn, wl_args, args.repeat)
            ratio = f"{t_np / t_nb:7.2f}x"
            nb_col = f"{t_nb * 1e3:8.1f}ms"
        else:
            ratio, nb_col = "    n/a", "       n/a"
        print(f"{name:24s} {desc:28s} {t_np * 1e3:8.1f}ms {nb_col} {ratio}")


if __name__ == "__main__":
    main()

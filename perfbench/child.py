"""One workload run in a fresh process.

    python3 perfbench/child.py SPEC.json

SPEC names the configs to run (in order), the seed, the output directory and
whether to trace.  The process imports `csquant.cli` first thing and stamps
the monotonic clock, so the parent can compute set-up time from its own
stamp taken just before it started this process.  Then it calls
`csquant.cli.main(["run", ...])` once per config and writes a JSON report
to the path SPEC gives.  With `"setup_only": true` it stops after the import.
"""

import json
import os
import resource
import sys
import time
import warnings

import csquant.cli as cli  # set-up time is this import

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

TAIL_WARNING = "coherent-state tail"


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy

    from csquant import _kernels

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": _kernels.backend_name(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "csquant_file": cli.__file__,
    }


def run_configs(spec: dict) -> list:
    results = []
    for config_path in spec["configs"]:
        argv = ["run", "--config", config_path, "--out", spec["out"], "--seed", str(spec["seed"])]
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
            error = None
        except Exception as exc:  # a crash is a failed experiment run, not a crashed benchmark
            code, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        results.append({"config": config_path, "exit": code, "error": error, "t0": t0, "t1": t1})
    return results


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    report = {"ready": READY, "env": environment()}
    if not spec.get("setup_only"):
        if not spec["trace"]:
            results = run_configs(spec)
        else:
            sys.dont_write_bytecode = True  # leave no cache files in the benchmark's directory
            from tracer import Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # count every truncation warning, not one per call site
                results = run_configs(spec)
            report["layers"] = tracer.summary()
            report["counters"] = dict(tracer.counters)
            report["counters"]["coherent.tail_warnings"] = sum(
                str(w.message).startswith(TAIL_WARNING) for w in caught
            )
            tracer.write(os.path.join(spec["out"], "spans.csv"))
        report["experiments"] = results
        report["wall_s"] = results[-1]["t1"] - results[0]["t0"]
    report["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""perfbench's workloads as Tier-1 runs: the benchmark fails a run that exits non-zero or lacks an expected row."""

import importlib.util
import json
import pathlib

import pytest

from csquant import cli


def _load_perfbench():
    # perfbench/run.py has no import-time side effects: it only defines its workloads and its runner
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BENCH = _load_perfbench()


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(cfg, id=f"{workload}-{index}-{cfg['experiment']}")
        for workload, configs in _BENCH.WORKLOADS.items()
        for index, cfg in enumerate(configs)
    ],
)
def test_benchmark_config_passes_with_its_expected_rows(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out), "--seed", str(_BENCH.DEFAULT_SEED)]) == 0
    table = json.loads((out / f"{cfg['experiment']}.json").read_text())
    # "include", not "equal": a new row is not a benchmark failure
    assert {row["name"] for row in table["checks"]} >= _BENCH.EXPECTED_CHECKS[cfg["experiment"]]

import json

import pytest

from csquant import cli


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_list_registry_contents(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "8 experiments" in out
    assert "spin-overlap" in out
    for name in cli.EXPERIMENTS:
        assert name in out


def test_registry_stable_order_and_count():
    names = list(cli.EXPERIMENTS)
    assert len(names) == 8
    assert names == list(cli.EXPERIMENTS)  # insertion order is the contract


def test_run_geometry_pass_and_outputs(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "geometry", "n": 1})
    out = tmp_path / "results"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    table = json.loads((out / "geometry.json").read_text())
    assert all(row["passed"] for row in table["checks"])
    assert table["provenance"]["seed"] == cli.DEFAULT_SEED
    assert table["provenance"]["version"]


def test_run_classical_limit_writes_csv(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "m_values": [4, 16]})
    out = tmp_path / "res"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "classical-limit_deviation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "m,dev_abs,dev_rel"
    assert len(lines) == 3


def test_unknown_experiment_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"experiment": "nope"})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "geometry" in err  # the registry is listed for the caller


def test_validation_failure_exit_3_names_field_no_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"experiment": "geometry", "n": 0})
    out = tmp_path / "never"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "'n'" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_exit_3(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", path.as_posix()]) == 3


def test_seed_override_recorded(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "project-single"})
    out = tmp_path / "r"
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    table = json.loads((out / "project-single.json").read_text())
    assert table["provenance"]["seed"] == 7


def test_rerun_byte_identical(tmp_path):
    cfg = _write_config(
        tmp_path, {"experiment": "wiener", "n_paths": 4000, "seed": 99}
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", cfg, "--out", str(out1)])
    cli.main(["run", "--config", cfg, "--out", str(out2)])
    assert (out1 / "wiener.json").read_bytes() == (out2 / "wiener.json").read_bytes()


def test_largest_rise_catches_non_monotone_sequence():
    # the dev_abs sequence at m = 4, 64, 16: a drop, then a rise of 0.044
    assert cli._largest_rise([0.172, 0.044, 0.088]) == pytest.approx(0.044)
    assert cli._largest_rise([0.172, 0.088, 0.044]) == 0.0
    assert cli._largest_rise([0.1]) == 0.0


def test_classical_limit_sorts_m_values(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "m_values": [4, 64, 16]})
    out = tmp_path / "res"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "classical-limit_deviation.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["4", "16", "64"]


@pytest.mark.parametrize("m_values", [[4], [4, 4], []])
def test_classical_limit_needs_two_distinct_m(tmp_path, capsys, m_values):
    cfg = _write_config(tmp_path, {"experiment": "classical-limit", "m_values": m_values})
    out = tmp_path / "never"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
    assert "'m_values'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload, field",
    [
        ('{"experiment": "project-single", "epsilon": NaN}', "epsilon"),
        ('{"experiment": "project-single", "alpha_re": Infinity}', "alpha_re"),
        ('{"experiment": "project-single", "epsilon": true}', "epsilon"),
        ('{"experiment": "geometry", "n": true}', "n"),
        ('{"experiment": "geometry", "n": 1.7}', "n"),
        ('{"experiment": "geometry", "n": "1"}', "n"),
        ('{"experiment": "project-single", "epsilon": 1' + "0" * 400 + "}", "epsilon"),
        ('{"experiment": "classical-limit", "m_values": [true, 4]}', "m_values"),
    ],
    ids=["nan", "infinity", "bool-for-float", "bool-for-int", "fractional-int", "string", "overflow", "bool-in-list"],
)
def test_bad_numbers_exit_3_naming_field(tmp_path, capsys, payload, field):
    path = tmp_path / "cfg.json"
    path.write_text(payload)
    out = tmp_path / "never"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 3
    assert f"'{field}'" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_accepted_for_int_field(tmp_path):
    cfg = _write_config(tmp_path, {"experiment": "geometry", "n": 2.0})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0

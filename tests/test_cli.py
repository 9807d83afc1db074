"""Config ingestion, result emission, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acmag
from acmag.cli import (ConfigError, emit_results, main, resolve_config, run)
from acmag.dynamics import FieldParams
from acmag.qfim import qfim_closed_form


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = resolve_config("qfim-scan", {}, seed=None)
        assert cfg["field"]["b"] == 1.0
        assert cfg["scan"]["points"] == 200

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config("qfim-scan", {"field": {"bb": 2.0}}, None)
        with pytest.raises(ConfigError):
            resolve_config("qfim-scan", {"extra": 1}, None)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="omega_mhz"):
            resolve_config("bounds", {}, None)

    def test_seed_override(self):
        cfg = resolve_config("qfim-scan", {"seed": 3}, seed=99)
        assert cfg["seed"] == 99

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            resolve_config("mystery", {}, None)


class TestEmitResults:
    def test_round_trip(self, tmp_path):
        header = ["a", "b"]
        rows = [[1, 0.1], [2, np.pi], [3, 1e-17]]
        csv_path, json_path = emit_results(header, rows, {"x": 1.0},
                                           tmp_path, "study")
        got_header, got_rows = _read_csv(csv_path)
        assert got_header == header
        for row, got in zip(rows, got_rows):
            assert int(got[0]) == row[0]
            assert float(got[1]) == row[1]  # 17 significant digits round-trip
        assert json.loads(json_path.read_text()) == {"x": 1.0}

    def test_empty_table_is_header_only(self, tmp_path):
        csv_path, _ = emit_results(["x", "y"], [], {}, tmp_path, "empty")
        assert csv_path.read_text() == "x,y\n"

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results(["x"], [[1, 2]], {}, tmp_path, "bad")
        with pytest.raises(ValueError):
            emit_results(["x"], np.zeros((2, 2)), {}, tmp_path, "bad")
        with pytest.raises(ValueError):
            emit_results(["x"], np.zeros(2), {}, tmp_path, "bad")

    def test_float_table_writes_the_bytes_of_row_lists(self, tmp_path):
        table = np.array([[0.0, 0.1, -2.5e-300], [1.0, np.pi, 1e17],
                          [2.0, -0.0, 123456789.0]])
        a, _ = emit_results(["i", "x", "y"], table, {}, tmp_path / "a", "t")
        rows = [[int(r[0]), r[1], r[2]] for r in table.tolist()]
        b, _ = emit_results(["i", "x", "y"], rows, {}, tmp_path / "b", "t")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("table,summary,match", [
        (np.array([[1.0, 2.0], [3.0, np.inf]]), {}, "column 'y' at row 1"),
        ([[1, 2.0], [3, float("nan")]], {}, "column 'y' at row 1"),
        (np.ones((2, 2)), {"s": float("nan")}, "summary"),
    ])
    def test_non_finite_output_writes_nothing(self, tmp_path, table, summary,
                                              match):
        out = tmp_path / "out"
        with pytest.raises(FloatingPointError, match=match):
            emit_results(["x", "y"], table, summary, out, "t")
        assert not out.exists()


class TestCommands:
    def test_qfim_scan_values_match_closed_form(self, tmp_path):
        cfg = _write(tmp_path, "c.json",
                     {"scan": {"omega_t_min": 10.0, "omega_t_max": 100.0,
                               "points": 5, "t": 2.0}})
        csv_path, json_path = run("qfim-scan", cfg, None, tmp_path)
        header, rows = _read_csv(csv_path)
        assert header == ["omega_t", "f_bb", "f_bw", "f_ww", "det"]
        for row in rows:
            x = float(row[0])
            f = qfim_closed_form(FieldParams.matched(1.0, x / 2.0), 2.0)
            assert float(row[1]) == pytest.approx(f.f_bb, rel=1e-12)
            assert float(row[4]) == pytest.approx(f.det(), rel=1e-9)

    def test_qfim_scan_summary_shows_diagonal_limit(self, tmp_path):
        cfg = _write(tmp_path, "c.json",
                     {"scan": {"omega_t_min": 10.0, "omega_t_max": 1e4,
                               "points": 30}})
        _, json_path = run("qfim-scan", cfg, None, tmp_path)
        summary = json.loads(json_path.read_text())
        assert summary["f_bb_over_limit"] == pytest.approx(1.0, abs=1e-3)
        assert summary["f_ww_over_limit"] == pytest.approx(1.0, abs=1e-3)
        assert summary["offdiag_ratio"] < 1e-3

    def test_summary_echoes_config_and_seed(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"seed": 5})
        _, json_path = run("qfim-scan", cfg, None, tmp_path)
        summary = json.loads(json_path.read_text())
        assert summary["seed"] == 5
        assert summary["command"] == "qfim-scan"
        assert summary["config"]["scan"]["points"] == 200
        assert "version" in summary

    def test_nv_scaling_summary_exponents(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {})
        _, json_path = run("nv-scaling", cfg, None, tmp_path)
        summary = json.loads(json_path.read_text())
        assert summary["exponent_b"] == pytest.approx(-1.0, abs=0.05)
        assert summary["exponent_w"] == pytest.approx(-2.0, abs=0.05)

    def test_probe_search_never_beats_bell(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"search": {"samples": 50}})
        _, json_path = run("probe-search", cfg, 11, tmp_path)
        summary = json.loads(json_path.read_text())
        assert summary["max_excess"] <= 1e-9

    def test_adaptive_reduces_error(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {})
        _, json_path = run("adaptive", cfg, 1, tmp_path)
        summary = json.loads(json_path.read_text())
        assert (abs(summary["final_omega_err"])
                < abs(summary["initial_omega_err"]))


class TestDeterminism:
    def test_identical_seed_gives_identical_bytes(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"sweep": {"points": 7}})
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        csv_a, _ = run("nv-sweep", cfg, 123, out_a)
        csv_b, _ = run("nv-sweep", cfg, 123, out_b)
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_different_seed_changes_noisy_output(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"sweep": {"points": 7}})
        csv_a, _ = run("nv-sweep", cfg, 123, tmp_path / "a")
        csv_b, _ = run("nv-sweep", cfg, 124, tmp_path / "b")
        assert csv_a.read_bytes() != csv_b.read_bytes()


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c.json", {"scan": {"points": 5}})
        code = main(["qfim-scan", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "qfim-scan.csv").exists()

    def test_config_error_is_2_and_writes_nothing(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {})
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_malformed_json_is_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["qfim-scan", "--config", str(bad)]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert main(["qfim-scan", "--config", str(tmp_path / "nope.json")]) == 2

    def test_numerical_failure_is_3(self, tmp_path):
        # adaptive starting far outside the window diverges immediately
        cfg = _write(tmp_path, "c.json",
                     {"adaptive": {"b0": 9.0, "window_b": 0.1}})
        out = tmp_path / "out"
        code = main(["adaptive", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        assert not (out / "adaptive.csv").exists()

    @pytest.mark.parametrize("payload", [
        {"protocol": {"tau": "0.017"}},
        {"protocol": {"n_reps": 0}},
        {"readout": {"n_avg": 0}},
        {"sweep": {"points": 2}},
        {"protocol": {"tau": -1}},
        {"nv": {"b_z0": 1100.0}},
    ], ids=["tau-string", "n-reps-zero", "n-avg-zero", "two-points",
            "negative-tau", "negative-control-frequency"])
    def test_malformed_nv_sweep_config_is_2(self, tmp_path, capsys, payload):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main(["nv-sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_mistyped_leaves_rejected(self):
        with pytest.raises(ConfigError, match="wrong type"):
            resolve_config("nv-sweep", {"sweep": {"noise": 1}}, None)
        with pytest.raises(ConfigError, match="wrong type"):
            resolve_config("nv-sweep", {"protocol": {"b_c": True}}, None)
        with pytest.raises(ConfigError, match="wrong type"):
            resolve_config("bounds", {"field": {"omega_mhz": "1"}}, None)
        # a float holds every integer only up to 2**53
        with pytest.raises(ConfigError, match="wrong type"):
            resolve_config("qfim-scan", {"scan": {"omega_t_max": 10**29}},
                           None)
        assert resolve_config("qfim-scan", {"scan": {"omega_t_max": 2**53}},
                              None)["scan"]["omega_t_max"] == 2**53
        # optional numbers take null or a number; the unused NV constants
        # stay accepted
        cfg = resolve_config("nv-sweep", {"readout": {"sigma": 1e-3},
                                          "nv": {"q_mhz": -5.0,
                                                 "gamma_n_mhz_per_g": 0.0}},
                             None)
        assert cfg["readout"]["sigma"] == 1e-3
        assert resolve_config("nv-sweep", {"readout": {"sigma": None}},
                              None)["readout"]["sigma"] is None

    @pytest.mark.parametrize("command,payload", [
        ("nv-sweep", {"seed": -1}),
        ("nv-sweep", {"protocol": {"steps_per_block": 0}}),
        ("nv-scaling", {"scaling": {"n_min": 0}}),
        ("adaptive", {"adaptive": {"shots": 0}}),
        ("qfim-scan", {"scan": {"t": 0.0}}),
        ("nv-scaling", {"scaling": {"n_min": 3, "n_max": 4}}),
        ("nv-scaling", {"scaling": {"points": 2}}),
        ("probe-search", {"search": {"samples": 0}}),
        ("adaptive", {"adaptive": {"rounds": -1}}),
        ("nv-scaling", {"scaling": {"halfwidth_b": 0.0}}),
        ("nv-scaling", {"scaling": {"halfwidth_w_mhz": -0.1}}),
        ("adaptive", {"adaptive": {"jac_halfwidth_b": 0.0}}),
        ("adaptive", {"adaptive": {"jac_halfwidth_w_mhz": 0.0}}),
        ("nv-sweep", {"sweep": {"halfwidth_b": 0.0}}),
        ("nv-sweep", {"sweep": {"halfwidth_w_mhz": -1.0}}),
    ])
    def test_out_of_range_values_are_config_errors(self, command, payload):
        with pytest.raises(ConfigError, match="must be"):
            resolve_config(command, payload, None)

    @pytest.mark.parametrize("command,payload,message", [
        ("qfim-scan", {"scan": {"omega_t_max": 1e308}},
         "non-finite value nan in column 'f_ww' at row 50"),
        ("probe-search", {"field": {"b": 1e200}},
         "non-finite value nan in column 'det' at row 0"),
        ("nv-sweep", {"readout": {"sigma": 1e308}},
         "non-finite noisy signal at omega = 11758.868138680453 "
         "(readout.sigma = 1e+308)"),
    ])
    def test_non_finite_output_is_3(self, tmp_path, capsys, command, payload,
                                    message):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"numerical error in {command}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,payload", [
        ("qfim-scan", {"field": {"b": 1e200}}),
        ("convergence", {"field": {"gamma": 1e200}}),
        ("bounds", {"field": {"omega_mhz": 1.0}, "scan": {"t_values": [1e300]}}),
        ("probe-search", {"search": {"t": 1e200}}),
        ("bounds", {"field": {"omega_mhz": 1e-300}}),
    ])
    def test_overflowing_config_is_2(self, tmp_path, capsys, command, payload):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config values overflow in {command}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["nv-sweep", "nv-scaling", "adaptive"])
    def test_non_positive_control_frequency_names_the_field(self, tmp_path,
                                                            capsys, command):
        cfg = _write(tmp_path, "c.json", {"nv": {"b_z0": 1100.0}})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "nv.b_z0 = 1100.0" in err and "-208.92 MHz" in err
        assert not out.exists()

    def test_underflowing_rabi_frequency_runs(self, tmp_path):
        # the pulse step's squared coefficients underflow to 0, or overflow
        # to inf
        for rabi_mhz in (1e-300, 1e300):
            cfg = _write(tmp_path, "c.json", {"protocol": {"pulse": {
                "kind": "finite", "rabi_mhz": rabi_mhz}}})
            out = tmp_path / f"out{rabi_mhz}"
            assert main(["nv-sweep", "--config", str(cfg), "--out",
                         str(out)]) == 0
            _, rows = _read_csv(out / "nv-sweep.csv")
            assert np.all(np.isfinite([[float(x) for x in r[1:]]
                                       for r in rows]))

    def test_module_entry_point_keeps_the_exit_code(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"protocol": {"n_reps": "8"}})
        src = str(Path(acmag.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "acmag", "nv-sweep", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("config error:")
        assert "Traceback" not in done.stderr

    def test_negative_seed_override_is_config_error(self):
        with pytest.raises(ConfigError, match="seed"):
            resolve_config("nv-sweep", {}, -5)

"""Config ingestion, result emission, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acmag
from acmag import cli
from acmag.cli import (_CONTROL_MHZ, DEFAULTS, ConfigError, emit_results,
                       main, resolve_config, run)
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
        # adaptive's noise comes from its shots, its control from the
        # estimates
        for payload in ({"readout": {"sigma": 1e-3}},
                        {"protocol": {"b_c": 5.65}}):
            with pytest.raises(ConfigError, match="unknown config key"):
                resolve_config("adaptive", payload, None)

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
        columns = {"a": [1, 2, 3], "b": [0.1, np.pi, 1e-17]}
        csv_path, json_path = emit_results(columns, {"x": 1.0}, tmp_path,
                                           "study")
        got_header, got_rows = _read_csv(csv_path)
        assert got_header == ["a", "b"]
        for a, b, got in zip(columns["a"], columns["b"], got_rows):
            assert int(got[0]) == a
            assert float(got[1]) == b  # 17 significant digits round-trip
        assert json.loads(json_path.read_text()) == {"x": 1.0}

    def test_empty_table_is_header_only(self, tmp_path):
        csv_path, _ = emit_results({"x": [], "y": []}, {}, tmp_path, "empty")
        assert csv_path.read_text() == "x,y\n"

    def test_ragged_row_rejected(self, tmp_path):
        out = tmp_path / "bad"
        for columns in ({"x": [1.0], "y": [1.0, 2.0]},
                        {"x": np.zeros((2, 2))},
                        {"x": np.zeros(2), "y": np.float64(1.0)},
                        {}):
            with pytest.raises(ValueError):
                emit_results(columns, {}, out, "bad")
        assert not out.exists()

    def test_column_of_neither_numbers_nor_text_rejected(self, tmp_path):
        out = tmp_path / "bad"
        for column in (np.array([1.0 + 2.0j]), np.array([None]),
                       np.array([b"B"])):
            with pytest.raises(TypeError, match="numbers or text"):
                emit_results({"x": column}, {}, out, "bad")
        assert not out.exists()

    def test_unserializable_summary_value_rejected(self, tmp_path):
        # numpy scalars and arrays serialize as lists and numbers; anything
        # else is refused before a file is written
        out = tmp_path / "bad"
        _, json_path = emit_results({"x": [1.0]}, {"n": np.int64(3),
                                                   "v": np.ones(2)},
                                    out, "ok")
        assert json.loads(json_path.read_text()) == {"n": 3, "v": [1.0, 1.0]}
        with pytest.raises(TypeError, match="cannot serialize <class 'set'>"):
            emit_results({"x": [1.0]}, {"s": {1, 2}}, out, "bad")
        assert not (out / "bad.csv").exists()

    def test_exact_bytes_of_mixed_columns(self, tmp_path):
        # one .17g format serves every number: ints up to 2**53 print as
        # their digits, and -0.0 and subnormals keep their sign and value
        columns = {"axis": np.array(["B", "omega", "B", "omega"]),
                   "n": np.array([0, 7, 2**53 - 1, 2**53]),
                   "x": np.array([-0.0, 1e17, -2.5e-300, 5e-324]),
                   "y": [0.1, np.pi, 123456789.0, -1.5]}
        csv_path, _ = emit_results(columns, {}, tmp_path, "t")
        assert csv_path.read_bytes() == (
            b"axis,n,x,y\n"
            b"B,0,-0,0.10000000000000001\n"
            b"omega,7,1e+17,3.1415926535897931\n"
            b"B,9007199254740991,-2.5e-300,123456789\n"
            b"omega,9007199254740992,4.9406564584124654e-324,-1.5\n")

    # the per-row str.format the per-row %-format replaced, kept as the
    # oracle of its bytes
    @staticmethod
    def _row_format(columns):
        cols = [np.asarray(c) for c in columns.values()]
        fmt = ",".join("{}" if c.dtype.kind == "U" else "{:.17g}"
                       for c in cols).format
        lines = [",".join(columns), *map(fmt, *(c.tolist() for c in cols))]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("columns", [
        {"axis": np.array(["B", "omega", "%", "100%s %d"]),
         "n": np.array([-2**63, 2**53 + 1, 2**62 + 3, 2**63 - 1]),
         "x": np.array([-0.0, 5e-324, 1.7e308, -1.7e308]),
         "y": [0.1, -np.pi, 1.0, 2.0**-1074 * 3]},
        {"label": np.array(["%%"]), "v": [np.nextafter(0.0, 1.0)]},
        {"n": np.arange(3), "flag": np.array([True, False, True])},
        {"axis": np.array([], dtype=str), "x": np.array([])},
    ], ids=["edges", "one-row", "int-bool", "zero-rows"])
    def test_bytes_equal_the_row_format(self, tmp_path, columns):
        csv_path, _ = emit_results(columns, {}, tmp_path, "t")
        assert csv_path.read_bytes() == self._row_format(columns)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(rows=st.lists(st.tuples(
        st.text(alphabet=st.characters(blacklist_characters=",\n\r",
                                       blacklist_categories=("Cs",)),
                min_size=1),
        st.integers(-2**63, 2**63 - 1),
        st.floats(allow_nan=False, allow_infinity=False)), max_size=20))
    def test_bytes_equal_the_row_format_on_any_table(self, rows):
        columns = {"s": np.array([r[0] for r in rows], dtype=str),
                   "i": np.array([r[1] for r in rows], dtype=np.int64),
                   "f": np.array([r[2] for r in rows], dtype=float)}
        with tempfile.TemporaryDirectory() as tmp:
            csv_path, _ = emit_results(columns, {}, tmp, "t")
            assert csv_path.read_bytes() == self._row_format(columns)

    @pytest.mark.parametrize("table,summary,match", [
        ({"x": [1.0, 3.0], "y": [2.0, np.inf]}, {}, "column 'y' at row 1"),
        ({"x": [1, 3], "y": [2.0, float("nan")]}, {}, "column 'y' at row 1"),
        ({"x": np.ones(2), "y": np.ones(2)}, {"s": float("nan")}, "summary"),
    ])
    def test_non_finite_output_writes_nothing(self, tmp_path, table, summary,
                                              match):
        out = tmp_path / "out"
        with pytest.raises(FloatingPointError, match=match):
            emit_results(table, summary, out, "t")
        assert not out.exists()

    def test_first_non_finite_cell_in_row_major_order(self, tmp_path):
        # row 1 holds a bad cell in the last column, row 2 one in the first
        columns = {"axis": ["B", "B", "omega"], "x": [1.0, 2.0, -np.inf],
                   "y": [1.0, 2.0, 3.0], "z": [0.0, np.nan, np.nan]}
        out = tmp_path / "out"
        with pytest.raises(FloatingPointError,
                           match="^non-finite value nan in column 'z' at "
                                 "row 1$"):
            emit_results(columns, {}, out, "t")
        assert not out.exists()


def _tie_distance(x):
    """|frac(y) - 1/2| of each cell, as the writer computes it."""
    return abs(cli._scaled(np.abs(x))[2] - 0.5)


class TestPercentGFormatter:
    """The vectorized writer against Python's '%.17g', cell by cell."""

    @staticmethod
    def _assert_exact(tmp_path, values):
        values = np.asarray(values, dtype=float)
        csv_path, _ = emit_results({"x": values}, {}, tmp_path, "t")
        want = "".join("%.17g\n" % v for v in values.tolist())
        assert csv_path.read_bytes() == b"x\n" + want.encode()

    @staticmethod
    def _neighbours_of_powers_of_ten():
        # the doubles nearest 10^n and the 4 on either side of each
        x = np.array([float(f"1e{n}") for n in range(-323, 309)])
        near = [x]
        up = down = x
        for _ in range(4):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
            near += [up, down]
        near = np.concatenate(near)
        return np.concatenate([near, -near])

    def test_four_ulps_about_every_power_of_ten(self, tmp_path):
        self._assert_exact(tmp_path, self._neighbours_of_powers_of_ten())

    def test_random_bit_patterns(self, tmp_path):
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2**64, 120_000, dtype=np.uint64)
        # subnormals: every exponent bit clear, either sign
        bits[:20_000] &= np.uint64(2**63 + 2**52 - 1)
        x = bits.view(np.float64)
        x = np.concatenate([x[np.isfinite(x)], [0.0, -0.0, 5e-324, -5e-324,
                                                 1.7976931348623157e308]])
        assert x.size >= 100_000
        self._assert_exact(tmp_path, x)

    def test_cells_either_side_of_the_rounding_window(self, tmp_path):
        # decades where y's unit in the last place sets the grid of
        # fractions, so both sides of the window are reached
        rng = np.random.default_rng(7)
        x = rng.uniform(1.0, 10.0, 400_000) * 10.0 ** rng.integers(
            -300, 300, 400_000)
        gap = _tie_distance(x) - cli._WINDOW
        inside = x[gap <= 0][np.argsort(gap[gap <= 0])[-50:]]
        outside = x[gap > 0][np.argsort(gap[gap > 0])[:50]]
        assert inside.size == outside.size == 50
        assert cli._WINDOW - _tie_distance(inside).min() < 0.01
        assert _tie_distance(outside).max() - cli._WINDOW < 0.01
        # exact ties at the 17th digit: 10^15 + 1/4 and + 3/4 are doubles
        ties = np.array([1e15 + 0.25, 1e15 + 0.75, -(1e15 + 0.25)])
        assert np.all(_tie_distance(ties) == 0.0)
        cells = np.concatenate([inside, outside, ties])
        self._assert_exact(tmp_path, cells)
        sep = np.full(cells.size, cli._SEP + 1)
        python_cells = cli._format_block(cells, sep)[1]
        np.testing.assert_array_equal(python_cells,
                                      np.r_[0:50, 100:103])

    def test_python_formats_every_cell_when_the_window_is_one(
            self, tmp_path, monkeypatch):
        # the path of a platform whose long double is a plain double
        x = np.concatenate([self._neighbours_of_powers_of_ten()[::7],
                            np.random.default_rng(3).normal(size=2000)])
        columns = {"axis": np.array(["B", "omega"] * (x.size // 2)),
                   "x": x, "n": np.arange(x.size)}
        before = emit_results(columns, {}, tmp_path, "t")[0].read_bytes()
        monkeypatch.setattr(cli, "_WINDOW", 1.0)
        after = emit_results(columns, {}, tmp_path, "t")[0].read_bytes()
        sep = np.full(x.size, cli._SEP)
        assert cli._format_block(x, sep)[1].size == x.size
        assert after == before
        self._assert_exact(tmp_path, x)

    def test_scale_table_is_correctly_rounded(self):
        # the premise of the window: each 10^k is the nearest long double
        if cli._WINDOW >= 0.5:
            pytest.skip("long double is a plain double here; Python formats "
                        "every cell")
        for d, scale in zip(cli._D.tolist(), cli._SCALE):
            exact = Fraction(10) ** (16 - d)
            neighbours = (np.nextafter(scale, np.longdouble(np.inf)),
                          np.nextafter(scale, np.longdouble(0)))
            error = abs(Fraction(*scale.as_integer_ratio()) - exact)
            assert all(error < abs(Fraction(*v.as_integer_ratio()) - exact)
                       for v in neighbours), d


# SHA-256 of each command's CSV at its default config (bounds with
# field.omega_mhz = 1.0), pinned on x86-64 with numpy 2.4: the writer must
# keep every byte
GOLDEN_CSV_SHA256 = {
    "qfim-scan":
        "6ba360d358042af759278869bbc21c4a6859f0b6409204e216ff823fc4bd7bf4",
    "convergence":
        "bef3598e6956e956203449e1e1f6844330c5e79db5ae57674885d8aa4afff96a",
    "bounds":
        "a69fc7f61dd4d4613fc0be43e227c28ed222fa39ca544fae2c4913f5ded97d6b",
    "probe-search":
        "035181304f01f558960d7b9431a6d5d306f281084af56bac52d22c55083d5dd2",
    "nv-sweep":
        "39428260e96e14aa33e274191c71df850db8c0c6b7d70d3864cec8f38f9c55a3",
    "nv-scaling":
        "b5cb6aa35ce3d2d93e83954894fe7ae254223d530806c82d810a06ad0ba40e83",
    "adaptive":
        "1ce721882038f625e6b6436331e322a47ecca799e164af81cc54c8b717f5ec07",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CSV_SHA256))
def test_default_config_csv_bytes_are_pinned(tmp_path, command):
    config = {"field": {"omega_mhz": 1.0}} if command == "bounds" else {}
    csv_path, _ = run(command, _write(tmp_path, "c.json", config), None,
                      tmp_path)
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[command]


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

    @pytest.mark.parametrize("command,text,message", [
        ("qfim-scan", b"\xff\xfe\x00{", "cannot read config file: "),
        ("qfim-scan", b"[" * 100_000 + b"]" * 100_000,
         "config is not valid JSON: "),
        ("qfim-scan", b'{"field": 1.0}', "expected a mapping at field.\n"),
        ("bounds", b'{"field": {"omega_mhz": 1.0}, "scan": {"t_values": []}}',
         "scan.t_values must be a non-empty list of positive times\n"),
    ], ids=["not-utf-8", "nested-too-deep", "section-not-a-mapping",
            "no-t-values"])
    def test_rejected_config_is_2_and_named(self, tmp_path, capsys, command,
                                            text, message):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

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
        {"readout": {"signals_used": "four"}},
    ], ids=["tau-string", "n-reps-zero", "n-avg-zero", "two-points",
            "negative-tau", "negative-control-frequency", "signals-four"])
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
        ("nv-sweep", {"nv": {"gamma_e_mhz_per_g": 0.0}}),
        ("nv-scaling", {"nv": {"gamma_e_mhz_per_g": -1.0}}),
        ("adaptive", {"nv": {"gamma_e_mhz_per_g": 0.0}}),
        ("nv-sweep", {"protocol": {"b_c": 0.0}}),
        ("nv-scaling", {"protocol": {"b_c": -1.0}}),
        ("adaptive", {"adaptive": {"window_b": 0.0}}),
        ("adaptive", {"adaptive": {"window_w_mhz": -0.5}}),
        ("adaptive", {"truth": {"b": 0.0}}),
        ("adaptive", {"truth": {"b": -1}}),
        ("adaptive", {"truth": {"b": -1e300}}),
    ])
    def test_out_of_range_values_are_config_errors(self, command, payload):
        with pytest.raises(ConfigError, match="must be"):
            resolve_config(command, payload, None)

    # qfim-scan: only the last row, where 2 omega*T overflows, is NaN
    @pytest.mark.parametrize("command,payload,message", [
        ("qfim-scan", {"scan": {"omega_t_max": 1e308}},
         "non-finite value nan in column 'f_bb' at row 199"),
        ("probe-search", {"field": {"b": 1e200}},
         "non-finite value nan in column 'det' at row 0"),
        ("nv-sweep", {"readout": {"sigma": 1e308}},
         "non-finite noisy signal at omega = 11758.868138680453 "
         "(readout.sigma = 1e+308)"),
        # the sequence's phases overflow, so its Bell populations are NaN:
        # named by tau before the noise, the fit or the Jacobian can fail
        ("nv-sweep", {"protocol": {"tau": 1e308}},
         "non-finite Bell populations in the B sweep at N = 8, B = 5.625 "
         "(protocol.tau = 1e+308)"),
        ("nv-sweep", {"protocol": {"tau": 1e308}, "sweep": {"noise": False}},
         "non-finite Bell populations in the B sweep at N = 8, B = 5.625 "
         "(protocol.tau = 1e+308)"),
        ("nv-scaling", {"protocol": {"tau": 1e308}},
         "non-finite Bell populations in the B sweep at N = 1, B = 5.45 "
         "(protocol.tau = 1e+308)"),
        ("adaptive", {"protocol": {"tau": 1e308}},
         "non-finite Bell populations in the B sweep at N = 8, "
         "B = 5.6000000000000005 (protocol.tau = 1e+308)"),
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

    # one int leaf per command; bounds has none but the seed, which is a u64
    @pytest.mark.parametrize("command,payload", [
        ("qfim-scan", {"scan": {"points": 2**53 + 1}}),
        ("convergence", {"scan": {"points": 2**53 + 1}}),
        ("probe-search", {"search": {"samples": 2**53 + 1}}),
        ("nv-sweep", {"readout": {"n_avg": 2**53 + 1}}),
        ("nv-scaling", {"scaling": {"n_max": 2**53 + 1}}),
        ("adaptive", {"protocol": {"n_reps": 2**53 + 1}}),
    ])
    def test_int_beyond_2_53_is_2_and_named(self, tmp_path, capsys, command,
                                            payload):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        (section, leaf), = payload.items()
        (key, _), = leaf.items()
        assert capsys.readouterr().err == (
            f"config error: config key '{section}.{key}' has the wrong type: "
            f"{2**53 + 1}\n")
        assert not out.exists()

    def test_int_leaves_accept_2_53(self):
        # resolved only: no study runs with such counts
        for command, section, key in [("qfim-scan", "scan", "points"),
                                      ("probe-search", "search", "samples"),
                                      ("adaptive", "adaptive", "rounds")]:
            cfg = resolve_config(command, {section: {key: 2**53}}, None)
            assert cfg[section][key] == 2**53
        assert resolve_config("nv-sweep", {"seed": 2**64 - 1},
                              None)["seed"] == 2**64 - 1

    @pytest.mark.parametrize("gamma", [1e-100, 1e-200])
    def test_underflowing_probe_search_is_2_and_named(self, tmp_path, capsys,
                                                      gamma):
        cfg = _write(tmp_path, "c.json", {"field": {"gamma": gamma}})
        out = tmp_path / "out"
        assert main(["probe-search", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config values underflow in probe-search: the "
            "Bell-probe QFIM determinant is 0.0 at field.gamma = "
            f"{gamma}, field.b = 1.0, search.t = 1.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,field,message", [
        ("qfim-scan", {"gamma": 1e-200}, "the Bell-probe QFIM determinant is "
         "0.0 in row 0 (omega_t = 10.0) at field.gamma = 1e-200, field.b = "
         "1.0, scan.t = 1.0"),
        ("qfim-scan", {"gamma": 1e-100}, "the Bell-probe QFIM determinant is "
         "0.0 in row 0 (omega_t = 10.0) at field.gamma = 1e-100, field.b = "
         "1.0, scan.t = 1.0"),
        ("convergence", {"gamma": 1e-200}, "the long-time QFIM entries fall "
         "to 0.0 at field.gamma = 1e-200, field.b = 1.0"),
        # gamma^2 is a normal float, but its deviations would not be
        ("convergence", {"gamma": 1e-150}, "the long-time QFIM entries fall "
         "to 2.5e-301 at field.gamma = 1e-150, field.b = 1.0"),
        ("bounds", {"gamma": 1e-200, "omega_mhz": 1.0}, "the long-time QFIM "
         "entries fall to 0.0 at field.gamma = 1e-200, field.b = 1.0, "
         "shortest scan.t_values = 1.0"),
    ], ids=["qfim-scan-1e-200", "qfim-scan-1e-100", "convergence-1e-200",
            "convergence-1e-150", "bounds-1e-200"])
    def test_underflowing_gamma_is_2_and_named(self, tmp_path, capsys,
                                               command, field, message):
        cfg = _write(tmp_path, "c.json", {"field": field})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config values underflow in {command}: "
            f"{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,field", [
        ("qfim-scan", {"b": 0.0}),
        ("convergence", {"b": 0.0}),
        ("bounds", {"b": 0.0, "omega_mhz": 1.0}),
        ("probe-search", {"b": 0.0}),
    ])
    def test_zero_field_amplitude_is_2_and_named(self, tmp_path, capsys,
                                                 command, field):
        cfg = _write(tmp_path, "c.json", {"field": field})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: field.b must be positive, got 0.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("t_values", [[1.0, 1e300], [1e300, 1.0]])
    def test_overflowing_t_value_is_2_and_named(self, tmp_path, capsys,
                                                t_values):
        cfg = _write(tmp_path, "c.json", {"field": {"omega_mhz": 1.0},
                                          "scan": {"t_values": t_values}})
        out = tmp_path / "out"
        assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: config values overflow in bounds: strategy "
            "comparison is not finite at T = 1e+300\n")
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

    # nv names the first sweep that reaches B < 0 or omega <= 0, with its N;
    # the CLI gives its end in config units and the keys that set it
    @pytest.mark.parametrize("command,payload,message", [
        ("nv-sweep", {"protocol": {"b_c": 0.01}},
         "the B sweep at N = 8 reaches -0.015 G < 0; it is protocol.b_c +- "
         "sweep.halfwidth_b (null: 0.2 / protocol.n_reps)"),
        ("nv-sweep", {"sweep": {"halfwidth_w_mhz": 5000.0}},
         "the omega sweep at N = 8 reaches -3128.52 MHz <= 0; it is "
         + _CONTROL_MHZ + " +- sweep.halfwidth_w_mhz (null: 1 / (pi * "
         "protocol.n_reps**2))"),
        ("nv-scaling", {"protocol": {"b_c": 0.1}},
         "the B sweep at N = 1 reaches -0.1 G < 0; it is protocol.b_c +- "
         "scaling.halfwidth_b / N"),
        ("nv-scaling", {"scaling": {"n_min": 2, "halfwidth_w_mhz": 8000.0}},
         "the omega sweep at N = 2 reaches -128.52 MHz <= 0; it is "
         + _CONTROL_MHZ + " +- scaling.halfwidth_w_mhz / N**2"),
        ("adaptive", {"adaptive": {"b0": 0.01}, "truth": {"b": 0.02}},
         "the B sweep at N = 8 reaches -0.04 G < 0; it is adaptive.b0 +- "
         "adaptive.jac_halfwidth_b"),
        # round 0's sweeps are checked before the estimate's window
        ("adaptive", {"adaptive": {"b0": -1}},
         "the B sweep at N = 8 reaches -1.05 G < 0; it is adaptive.b0 +- "
         "adaptive.jac_halfwidth_b"),
        ("adaptive", {"adaptive": {"b0": 0.02}},
         "the B sweep at N = 8 reaches -0.03 G < 0; it is adaptive.b0 +- "
         "adaptive.jac_halfwidth_b"),
        ("adaptive", {"adaptive": {"omega0_offset_mhz": -1e5}},
         "the omega sweep at N = 8 reaches -98128.6 MHz <= 0; it is "
         + _CONTROL_MHZ + " + adaptive.omega0_offset_mhz +- "
         "adaptive.jac_halfwidth_w_mhz"),
    ], ids=["nv-sweep-b", "nv-sweep-omega", "nv-scaling-b",
            "nv-scaling-omega", "adaptive-b", "adaptive-b0-negative",
            "adaptive-b0-small", "adaptive-omega0"])
    def test_sweep_below_zero_is_2_and_named(self, tmp_path, capsys, command,
                                             payload, message):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    # a half-width that rounds away at its centre, named with its N and
    # its centre in config units: a half-width too small for the default
    # centre (nv-scaling's first is its omega sweep at N = 3), or a centre
    # so large that a half-width which would move the default centre
    # rounds away there (nv-scaling's B sweeps about 1e15 G lose their
    # width from N = 4, where 0.2 / 4 G is below half an ulp)
    @pytest.mark.parametrize("command,payload,message", [
        ("nv-sweep", {"sweep": {"halfwidth_b": 1e-300}},
         "the B sweep at N = 8 has zero width about 5.65 G; it is "
         "protocol.b_c +- sweep.halfwidth_b (null: 0.2 / protocol.n_reps)"),
        ("nv-scaling", {"scaling": {"halfwidth_w_mhz": 1e-12}},
         "the omega sweep at N = 3 has zero width about 1871.48 MHz; it is "
         + _CONTROL_MHZ + " +- scaling.halfwidth_w_mhz / N**2"),
        ("adaptive", {"adaptive": {"jac_halfwidth_w_mhz": 1e-300}},
         "the omega sweep at N = 8 has zero width about 1871.48 MHz; it is "
         + _CONTROL_MHZ + " + adaptive.omega0_offset_mhz +- "
         "adaptive.jac_halfwidth_w_mhz"),
        ("nv-sweep", {"nv": {"d_mhz": 1e300}},
         "the omega sweep at N = 8 has zero width about 1e+300 MHz; it is "
         + _CONTROL_MHZ + " +- sweep.halfwidth_w_mhz (null: 1 / (pi * "
         "protocol.n_reps**2))"),
        ("nv-scaling", {"protocol": {"b_c": 1e15}},
         "the B sweep at N = 4 has zero width about 1e+15 G; it is "
         "protocol.b_c +- scaling.halfwidth_b / N"),
        ("adaptive", {"nv": {"d_mhz": 1e300}},
         "the omega sweep at N = 8 has zero width about 1e+300 MHz; it is "
         + _CONTROL_MHZ + " + adaptive.omega0_offset_mhz +- "
         "adaptive.jac_halfwidth_w_mhz"),
        # round 0's sweeps are checked before the estimate's window
        ("adaptive", {"adaptive": {"b0": 1e300}},
         "the B sweep at N = 8 has zero width about 1e+300 G; it is "
         "adaptive.b0 +- adaptive.jac_halfwidth_b"),
        ("adaptive", {"adaptive": {"omega0_offset_mhz": 1e300}},
         "the omega sweep at N = 8 has zero width about 1e+300 MHz; it is "
         + _CONTROL_MHZ + " + adaptive.omega0_offset_mhz +- "
         "adaptive.jac_halfwidth_w_mhz"),
    ], ids=["nv-sweep", "nv-scaling", "adaptive", "nv-sweep-centre",
            "nv-scaling-centre", "adaptive-centre", "adaptive-b0",
            "adaptive-omega0"])
    def test_zero_width_sweep_is_2_and_named(self, tmp_path, capsys, command,
                                             payload, message):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_singular_scaling_jacobian_is_3_and_names_n(self, tmp_path,
                                                        capsys):
        # at B = 1e-9 G the signals barely see omega, from the first N on
        cfg = _write(tmp_path, "c.json", {
            "protocol": {"b_c": 1e-9},
            "scaling": {"halfwidth_b": 1e-10, "n_min": 3, "n_max": 5}})
        out = tmp_path / "out"
        assert main(["nv-scaling", "--config", str(cfg), "--out",
                     str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical error in nv-scaling: signal Jacobian at N = 3 is "
            "singular (condition number ")
        assert not out.exists()

    def test_adaptive_estimate_below_zero_is_3_and_names_the_round(
            self, tmp_path, capsys):
        # round 0's sweeps around b0 = 0.1 pass; the estimate then lands
        # near the true 0.02, whose sweeps of +- 0.05 G reach B < 0
        cfg = _write(tmp_path, "c.json", {"truth": {"b": 0.02},
                                          "adaptive": {"b0": 0.1}})
        out = tmp_path / "out"
        assert main(["adaptive", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error in adaptive: the Jacobian "
                              "sweeps of round 1 reach (B, omega) = [-0.0")
        assert not out.exists()

    def test_convergence_below_float_precision_is_2_and_named(self, tmp_path,
                                                              capsys):
        cfg = _write(tmp_path, "c.json", {"scan": {"omega_t_max": 1e17}})
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(cfg), "--out",
                     str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: convergence: the df_bb curve falls to 0.0 over the "
            "envelope bin at omega_t = 1.15478e+16, below float precision; "
            "scan.omega_t_max = 1e+17 must be lower\n")
        assert not out.exists()
        cfg = _write(tmp_path, "c.json", {"scan": {"omega_t_max": 1e16}})
        assert main(["convergence", "--config", str(cfg), "--out",
                     str(out)]) == 0

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_unusable_out_is_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / "sub" if under else blocker
        cfg = _write(tmp_path, "c.json", {"scan": {"points": 5}})
        assert main(["qfim-scan", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: cannot write output: ")
        assert blocker.read_text() == "keep"

    def test_unwritable_summary_leaves_no_csv(self, tmp_path, capsys):
        # the CSV is written first; the summary path is a directory
        out = tmp_path / "out"
        (out / "qfim-scan.summary.json").mkdir(parents=True)
        cfg = _write(tmp_path, "c.json", {"scan": {"points": 5}})
        assert main(["qfim-scan", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: cannot write output: ")
        assert sorted(p.name for p in out.iterdir()) == [
            "qfim-scan.summary.json"]

    def test_adaptive_without_rounds_sweeps_nothing(self, tmp_path):
        cfg = _write(tmp_path, "c.json", {"adaptive": {"b0": 0.01,
                                                       "rounds": 0},
                                          "truth": {"b": 0.02}})
        assert main(["adaptive", "--config", str(cfg), "--out",
                     str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["nv-sweep", "nv-scaling", "adaptive"])
    def test_overflowing_control_frequency_is_2_and_named(self, tmp_path,
                                                          capsys, command):
        cfg = _write(tmp_path, "c.json", {"nv": {"b_z0": -1e308}})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: nv.b_z0 = -1e+308 puts the control frequency "
            f"{_CONTROL_MHZ} at inf MHz; it must be positive and finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["nv-sweep", "nv-scaling"])
    def test_readout_sigma_whose_square_overflows_is_2_and_named(
            self, tmp_path, capsys, command):
        cfg = _write(tmp_path, "c.json", {"readout": {"sigma": 1e200}})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config values overflow in {command}: "
            "readout.sigma = 1e+200 squared overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["nv-sweep", "nv-scaling"])
    @pytest.mark.parametrize("sigma,square", [(1e-300, "0.0"),
                                              (1e-150, "1e-300")])
    def test_underflowing_readout_sigma_is_2_and_named(self, tmp_path, capsys,
                                                       command, sigma, square):
        cfg = _write(tmp_path, "c.json", {"readout": {"sigma": sigma}})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: readout.sigma = {sigma!r} is too small: its "
            f"square {square} underflows\n")
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


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _leaf_config(command, path, value):
    """A config of ``command`` with the leaf at ``path`` set to ``value``,
    and the omega_mhz that bounds requires."""
    config = {"field": {"omega_mhz": 1591.5}} if command == "bounds" else {}
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return config


# every DEFAULTS leaf of every command with each value; an int leaf takes
# only small ints, as a count like scan.points = 10**12 would ask numpy
# for terabytes
_ODD_VALUES = ["nan", "NaN", "inf", True, False, [], [1e300], None]
_MUTATIONS = [
    (command, path, value)
    for command, tree in DEFAULTS.items() for path, default in _leaves(tree)
    for value in ([0, -1, 1, 2] if type(default) is int
                  else [0, 0.0, -1, 1e-300, -1e-300, 1e300, -1e300])
    + _ODD_VALUES]


class TestExitCodeContract:
    # one DEFAULTS leaf set to an extreme or mistyped value: the CLI exits
    # 0, 2 or 3, never with a traceback, and writes nothing unless it
    # succeeds
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mutation=st.sampled_from(_MUTATIONS))
    def test_single_leaf_mutation_keeps_the_contract(self, mutation):
        command, path, value = mutation
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.json"
            cfg.write_text(json.dumps(_leaf_config(command, path, value)))
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                code = main([command, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3)
            assert "Traceback" not in err.getvalue()
            if code:
                assert err.getvalue().startswith(
                    "config error:" if code == 2 else
                    f"numerical error in {command}:")
                assert not out.exists()

    # a MHz leaf that is finite but whose value in rad/us is not: named by
    # its key, before a package error names a field or a study fails
    @pytest.mark.parametrize("command,path", [
        (command, path) for command, tree in DEFAULTS.items()
        for path, _ in _leaves(tree)
        if path[-1].endswith(("_mhz", "_mhz_per_g"))])
    def test_mhz_leaf_that_overflows_is_2_and_named(self, tmp_path, capsys,
                                                    command, path):
        cfg = _write(tmp_path, "c.json", _leaf_config(command, path, 1e308))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {'.'.join(path)} = 1e+308 overflows a float in "
            "rad/us\n")
        assert not out.exists()

    # linspace overflows on half-widths above about 9e307, so these sweeps
    # hold NaN; they are named as not finite, never as reaching nan
    @pytest.mark.parametrize("command,payload,message", [
        ("nv-sweep", {"sweep": {"halfwidth_b": 1e308}},
         "the B sweep at N = 8 is not finite; it is protocol.b_c +- "
         "sweep.halfwidth_b (null: 0.2 / protocol.n_reps)"),
        ("nv-sweep", {"sweep": {"halfwidth_w_mhz": 2e307}},
         "the omega sweep at N = 8 is not finite; it is " + _CONTROL_MHZ
         + " +- sweep.halfwidth_w_mhz (null: 1 / (pi * protocol.n_reps**2))"),
        ("nv-scaling", {"scaling": {"halfwidth_w_mhz": 2e307}},
         "the omega sweep at N = 1 is not finite; it is " + _CONTROL_MHZ
         + " +- scaling.halfwidth_w_mhz / N**2"),
    ], ids=["nv-sweep-b", "nv-sweep-omega", "nv-scaling-omega"])
    def test_non_finite_sweep_is_2_and_named(self, tmp_path, capsys, command,
                                             payload, message):
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {message}\n" and "nan" not in err
        assert not out.exists()

    # a truth frequency at or below 0 is named by its key before round 0,
    # whatever the window: a window wide enough to reach it no longer lets
    # FieldParams' bare message through, nor does a narrow one turn it into
    # a divergence at round 0
    @pytest.mark.parametrize("offset,window,mhz", [
        (-1e5, 1e6, "-98128.5"), (-1e5, None, "-98128.5"),
        (-1e300, None, "-1e+300")], ids=["wide", "default", "extreme"])
    def test_truth_frequency_at_or_below_zero_is_2_and_named(
            self, tmp_path, capsys, offset, window, mhz):
        payload = {"truth": {"omega_offset_mhz": offset}}
        if window is not None:
            payload["adaptive"] = {"window_w_mhz": window}
        cfg = _write(tmp_path, "c.json", payload)
        out = tmp_path / "out"
        assert main(["adaptive", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: truth.omega_offset_mhz = {offset!r} puts the "
            f"truth frequency {_CONTROL_MHZ} + truth.omega_offset_mhz at "
            f"{mhz} MHz; it must be positive\n")
        assert not out.exists()

"""Reproducible study runner.

Usage: ``acmag <command> --config <path> [--seed <u64>] [--out <dir>]``

Each command reads a JSON config (unknown keys, mistyped values and
values no study can run with rejected; frequencies in MHz, fields in
Gauss, times in us), runs one study, and writes ``<command>.csv`` plus
``<command>.summary.json`` into the output directory. Identical config
and seed produce byte-identical CSV output.

Exit codes: 0 success, 2 config error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import strategy_comparison
from .dynamics import ConvergenceError, FieldParams, generator_closed_form
from .fitting import envelope_slope
from .nv import (AdaptiveDivergenceError, JacobianError, NvParams,
                 PiPulseModel, ReadoutModel, _sweep_pair, adaptive_loop,
                 control_frequency, operating_field, parameter_uncertainty,
                 scaling_study)
from .qfim import (SingularQfimError, bell_probe_determinant,
                   qfim_closed_form, qfim_determinant, relative_error_curves,
                   sample_probe_determinants)

TWO_PI = 2.0 * np.pi


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration entry."""


_REQUIRED = "__required__"

_NV_DEFAULTS = {
    "d_mhz": 2870.0,
    "q_mhz": -4.95,
    "a_mhz": -2.16,
    "gamma_e_mhz_per_g": 2.8,
    "gamma_n_mhz_per_g": -3.1e-4,
    "b_z0": 357.0,
}

_PULSE_DEFAULTS = {"kind": "ideal", "rabi_mhz": 20.0, "hyperfine_on": True}

_READOUT_DEFAULTS = {
    "sigma": None,
    "n_avg": 3_000_000,
    "contrast": 1.0,
    "baseline": 0.0,
    "signals_used": "two",
}

_PROTOCOL_DEFAULTS = {
    "b_c": 5.65,
    "phi": 0.0,
    "n_reps": 8,
    "tau": 0.017,
    "steps_per_block": 32,
    "pulse": _PULSE_DEFAULTS,
}

DEFAULTS: dict[str, dict] = {
    "qfim-scan": {
        "seed": 0,
        "field": {"b": 1.0, "gamma": 1.0},
        "scan": {"omega_t_min": 10.0, "omega_t_max": 1.0e4, "points": 200,
                 "t": 1.0},
    },
    "convergence": {
        "seed": 0,
        "field": {"b": 1.0, "gamma": 1.0},
        "scan": {"omega_t_min": 1.0e2, "omega_t_max": 1.0e5, "points": 2000},
    },
    "bounds": {
        "seed": 0,
        "field": {"b": 1.0, "gamma": 1.0, "omega_mhz": _REQUIRED},
        "scan": {"t_values": [1.0, 2.0, 5.0, 10.0]},
    },
    "probe-search": {
        "seed": 0,
        "field": {"b": 1.0, "gamma": 1.0},
        "search": {"samples": 1000, "t": 1.0},
    },
    "nv-sweep": {
        "seed": 0,
        "nv": _NV_DEFAULTS,
        "protocol": _PROTOCOL_DEFAULTS,
        "readout": _READOUT_DEFAULTS,
        "sweep": {"points": 11, "halfwidth_b": None, "halfwidth_w_mhz": None,
                  "noise": True},
    },
    "nv-scaling": {
        "seed": 0,
        "nv": _NV_DEFAULTS,
        "protocol": _PROTOCOL_DEFAULTS,
        "readout": _READOUT_DEFAULTS,
        "scaling": {"n_min": 1, "n_max": 8, "halfwidth_b": 0.2,
                    "halfwidth_w_mhz": 1.0 / np.pi, "points": 5},
    },
    "adaptive": {
        "seed": 0,
        "nv": _NV_DEFAULTS,
        "protocol": _PROTOCOL_DEFAULTS,
        "readout": _READOUT_DEFAULTS,
        "truth": {"b": 5.7, "omega_offset_mhz": 0.05},
        "adaptive": {"b0": 5.65, "omega0_offset_mhz": 0.0, "rounds": 5,
                     "shots": 100_000, "window_b": 0.5,
                     "window_w_mhz": 0.8, "jac_halfwidth_b": 0.05,
                     "jac_halfwidth_w_mhz": 0.08, "noiseless": False},
    },
}


# Smallest value a study can run with, and keys that must exceed 0.
_MINIMA = {"seed": 0, "protocol.n_reps": 1, "protocol.steps_per_block": 1,
           "readout.n_avg": 1, "sweep.points": 3, "scaling.n_min": 1,
           "adaptive.shots": 1}
_POSITIVE = ("protocol.tau", "scan.t")


def _is_number(value) -> bool:
    return type(value) is int or type(value) is float and math.isfinite(value)


def _check_leaf(default, value, path: str):
    """Reject a leaf that is mistyped or that no study can run with.

    Numbers are finite ints or floats, never strings or booleans; an int
    default takes an int, a None default also null, and a list default a
    list of numbers.
    """
    if isinstance(default, list):
        ok = isinstance(value, list) and all(map(_is_number, value))
    elif type(default) in (bool, int, str) and default != _REQUIRED:
        ok = type(value) is type(default)
    else:  # float, or an optional (None) or required number
        ok = _is_number(value) or (default is None and value is None)
    if not ok:
        raise ConfigError(f"config key {path!r} has the wrong type: {value!r}")
    if path in _MINIMA and value < _MINIMA[path]:
        raise ConfigError(f"{path} must be >= {_MINIMA[path]}, got {value}")
    if path in _POSITIVE and value <= 0:
        raise ConfigError(f"{path} must be positive, got {value}")


def _merge(defaults, user, path=""):
    if not isinstance(user, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}")
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict):
            out[key] = _merge(defaults[key], value, path + key + ".")
        else:
            _check_leaf(defaults[key], value, path + key)
            out[key] = value
    return out


def _check_required(cfg, path=""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            _check_required(value, path + key + ".")
        elif value == _REQUIRED:
            raise ConfigError(f"missing required config key {path + key!r}")


def resolve_config(command: str, user: dict, seed: int | None) -> dict:
    """Merge user config over command defaults; reject unknown/missing keys,
    mistyped values and values no study can run with."""
    if command not in DEFAULTS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = _merge(DEFAULTS[command], user)
    if seed is not None:
        cfg["seed"] = int(seed)
        _check_leaf(0, cfg["seed"], "seed")
    _check_required(cfg)
    return cfg


def _cfg_guard(factory, *args, **kwargs):
    """Turn validation failures of config-derived values into ConfigError."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _nv_from(cfg: dict) -> NvParams:
    c = cfg["nv"]
    return _cfg_guard(NvParams, D=TWO_PI * c["d_mhz"], Q=TWO_PI * c["q_mhz"],
                      A=TWO_PI * c["a_mhz"],
                      gamma_e=TWO_PI * c["gamma_e_mhz_per_g"],
                      gamma_n=TWO_PI * c["gamma_n_mhz_per_g"], B_z0=c["b_z0"])


def _pulse_from(cfg: dict) -> PiPulseModel:
    c = cfg["protocol"]["pulse"]
    return _cfg_guard(PiPulseModel, kind=c["kind"],
                      rabi_freq=TWO_PI * c["rabi_mhz"],
                      hyperfine_on=bool(c["hyperfine_on"]))


def _readout_from(cfg: dict) -> ReadoutModel:
    c = cfg["readout"]
    return _cfg_guard(ReadoutModel, sigma=c["sigma"], n_avg=int(c["n_avg"]),
                      contrast=c["contrast"], baseline=c["baseline"],
                      signals_used=c["signals_used"])


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def emit_results(header: list[str], rows: list[list], summary: dict,
                 out_dir: str | Path, name: str) -> tuple[Path, Path]:
    """Write a CSV table and a JSON summary with stable formatting.

    Floats are printed with 17 significant digits so numeric tables
    round-trip exactly; summary keys are sorted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    json_path = out / f"{name}.summary.json"
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError("table rows must match the header length")
        lines.append(",".join(_fmt(x) for x in row))
    csv_path.write_text("\n".join(lines) + "\n")
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2,
                                    default=_json_default) + "\n")
    return csv_path, json_path


def _json_default(x):
    if isinstance(x, (np.integer, np.floating, np.ndarray)):
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x)!r}")


def _base_summary(command: str, cfg: dict) -> dict:
    return {"command": command, "config": cfg, "seed": cfg["seed"],
            "version": __version__}


def _field_from(cfg: dict, omega: float) -> FieldParams:
    c = cfg["field"]
    return _cfg_guard(FieldParams.matched, B=c["b"], omega=omega,
                      gamma=c["gamma"])


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _log_grid(sc: dict, floor: float = 0.0) -> np.ndarray:
    lo, hi, n = sc["omega_t_min"], sc["omega_t_max"], int(sc["points"])
    if lo <= floor or hi <= lo or n < 2:
        raise ConfigError(
            f"scan requires omega_t_min > {floor}, omega_t_max > omega_t_min, "
            "points >= 2")
    return np.logspace(np.log10(lo), np.log10(hi), n)


def _run_qfim_scan(cfg: dict):
    sc = cfg["scan"]
    t = float(sc["t"])
    xs = _log_grid(sc)
    header = ["omega_t", "f_bb", "f_bw", "f_ww", "det"]
    rows = []
    for x in xs:
        p = _field_from(cfg, x / t)
        f = qfim_closed_form(p, t)
        rows.append([x, f.f_bb, f.f_bw, f.f_ww, qfim_determinant(p, t)])
    g, b = p.gamma, p.B  # the summary reads the last (largest omega*T) row
    summary = {
        "f_bb_over_limit": f.f_bb / (g**2 * t**2),
        "f_ww_over_limit": f.f_ww / (g**2 * b**2 * t**4 / 4),
        "offdiag_ratio": abs(f.f_bw) / np.sqrt(f.f_bb * f.f_ww),
    }
    return header, rows, summary


def _run_convergence(cfg: dict):
    xs = _log_grid(cfg["scan"], floor=2 * np.pi)
    p = _field_from(cfg, 1.0)
    curves = relative_error_curves(p, xs)
    keys = ["dh_b", "dh_omega", "df_bb", "df_ww", "df_bw"]
    header = ["omega_t"] + keys
    rows = [[curves["omega_t"][i]] + [curves[k][i] for k in keys]
            for i in range(xs.size)]
    summary = {}
    for k in keys:
        summary[f"slope_{k}"], summary[f"slope_{k}_stderr"] = envelope_slope(
            xs, curves[k])
    return header, rows, summary


def _run_bounds(cfg: dict):
    omega = TWO_PI * float(cfg["field"]["omega_mhz"])
    t_values = cfg["scan"]["t_values"]
    if not t_values or any(t <= 0 for t in t_values):
        raise ConfigError("scan.t_values must be a non-empty list of positive times")
    header = ["t", "omega_t", "f_b_max", "f_w_max", "ratio_b", "ratio_w",
              "seq_var_ratio_b", "seq_var_ratio_w", "sd_ratio_b", "sd_ratio_w"]
    rows = []
    for t in t_values:
        s = strategy_comparison(_field_from(cfg, omega), float(t))
        rows.append([t, s.regime_omega_t] + [getattr(s, k) for k in header[2:]])
    summary = {k: getattr(s, k) for k in header[4:] + ["regime_omega_t"]}
    return header, rows, summary


def _run_probe_search(cfg: dict):
    sc = cfg["search"]
    p = _field_from(cfg, 1.0)
    gen = generator_closed_form(p, float(sc["t"]), mode="asymptotic")
    dets = sample_probe_determinants(gen, int(sc["samples"]), cfg["seed"])
    bell = bell_probe_determinant(gen)
    header = ["index", "det"]
    rows = [[i, d] for i, d in enumerate(dets)]
    summary = {"bell_det": bell, "best_sampled_det": float(dets.max()),
               "max_excess": float(dets.max() - bell),
               "samples": int(sc["samples"])}
    return header, rows, summary


def _run_nv_sweep(cfg: dict):
    nv = _nv_from(cfg)
    pr = cfg["protocol"]
    sw = cfg["sweep"]
    pulse = _pulse_from(cfg)
    readout = _readout_from(cfg)
    p = operating_field(nv, pr["b_c"], pr["phi"])
    n = int(pr["n_reps"])
    hb = sw["halfwidth_b"] if sw["halfwidth_b"] is not None else 0.2 / n
    hw = (TWO_PI * sw["halfwidth_w_mhz"] if sw["halfwidth_w_mhz"] is not None
          else 2.0 / n**2)
    sweep_b, sweep_w = _sweep_pair(p, nv, n, pr["tau"], pulse, readout, hb,
                                   hw, sw["points"], cfg["seed"], sw["noise"],
                                   pr["steps_per_block"])
    k = readout.n_signals
    header = (["axis", "value"] + [f"signal_{i + 1}" for i in range(k)]
              + [f"p_{i + 1}" for i in range(4)])
    rows = []
    for res in (sweep_b, sweep_w):
        for i, v in enumerate(res.values):
            rows.append([res.axis, v] + list(res.signals[i]) + list(res.probs[i]))
    unc = parameter_uncertainty(sweep_b, sweep_w, readout)
    summary = {
        "slopes_b": sweep_b.slopes, "slopes_w": sweep_w.slopes,
        "slope_stderr_b": sweep_b.slope_stderr,
        "slope_stderr_w": sweep_w.slope_stderr,
        "delta_b": unc.delta_b, "delta_w": unc.delta_w,
        "delta_b_err": unc.delta_b_err, "delta_w_err": unc.delta_w_err,
        "omega_c_mhz": control_frequency(nv) / TWO_PI,
    }
    return header, rows, summary


def _run_nv_scaling(cfg: dict):
    nv = _nv_from(cfg)
    pr = cfg["protocol"]
    sc = cfg["scaling"]
    res = scaling_study(
        nv, _readout_from(cfg),
        n_values=tuple(range(int(sc["n_min"]), int(sc["n_max"]) + 1)),
        tau=pr["tau"], B_c=pr["b_c"], phi=pr["phi"], pulse=_pulse_from(cfg),
        halfwidth_b=sc["halfwidth_b"], halfwidth_w=TWO_PI * sc["halfwidth_w_mhz"],
        points=int(sc["points"]), seed=cfg["seed"],
        steps_per_block=int(pr["steps_per_block"]))
    header = ["n", "delta_b", "delta_b_err", "delta_w", "delta_w_err"]
    rows = [[int(res.n_values[i]), res.delta_b[i], res.delta_b_err[i],
             res.delta_w[i], res.delta_w_err[i]]
            for i in range(res.n_values.size)]
    summary = {"exponent_b": res.exponent_b,
               "exponent_b_stderr": res.exponent_b_stderr,
               "exponent_w": res.exponent_w,
               "exponent_w_stderr": res.exponent_w_stderr}
    return header, rows, summary


def _run_adaptive(cfg: dict):
    nv = _nv_from(cfg)
    pr = cfg["protocol"]
    ad = cfg["adaptive"]
    tr = cfg["truth"]
    w_c = control_frequency(nv)
    truth = (tr["b"], w_c + TWO_PI * tr["omega_offset_mhz"])
    start = (ad["b0"], w_c + TWO_PI * ad["omega0_offset_mhz"])
    traj = adaptive_loop(
        truth, start, int(ad["rounds"]), int(ad["shots"]), nv,
        n_reps=int(pr["n_reps"]), tau=pr["tau"], phi=pr["phi"],
        pulse=_pulse_from(cfg), seed=cfg["seed"],
        window=(ad["window_b"], TWO_PI * ad["window_w_mhz"]),
        jacobian_halfwidth=(ad["jac_halfwidth_b"],
                            TWO_PI * ad["jac_halfwidth_w_mhz"]),
        noiseless=bool(ad["noiseless"]),
        steps_per_block=int(pr["steps_per_block"]))
    header = ["round", "b_est", "omega_est", "b_err", "omega_err"]
    rows = [[r, traj[r, 0], traj[r, 1], traj[r, 0] - truth[0],
             traj[r, 1] - truth[1]] for r in range(traj.shape[0])]
    summary = {"final_b_err": float(traj[-1, 0] - truth[0]),
               "final_omega_err": float(traj[-1, 1] - truth[1]),
               "initial_b_err": float(traj[0, 0] - truth[0]),
               "initial_omega_err": float(traj[0, 1] - truth[1]),
               "rounds": int(ad["rounds"])}
    return header, rows, summary


_RUNNERS = {
    "qfim-scan": _run_qfim_scan,
    "convergence": _run_convergence,
    "bounds": _run_bounds,
    "probe-search": _run_probe_search,
    "nv-sweep": _run_nv_sweep,
    "nv-scaling": _run_nv_scaling,
    "adaptive": _run_adaptive,
}

_NUMERICAL_ERRORS = (SingularQfimError, JacobianError, ConvergenceError,
                     AdaptiveDivergenceError, np.linalg.LinAlgError,
                     FloatingPointError, ValueError)


def run(command: str, config_path: str | Path, seed: int | None = None,
        out_dir: str | Path = ".") -> tuple[Path, Path]:
    """Execute a study command; returns the written (csv, json) paths."""
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = resolve_config(command, user, seed)
    header, rows, summary = _RUNNERS[command](cfg)
    summary = {**_base_summary(command, cfg), **summary}
    return emit_results(header, rows, summary, out_dir, command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="acmag",
        description="AC-field joint estimation studies (CSV/JSON output)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        csv_path, json_path = run(args.command, args.config, args.seed,
                                  args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error in {args.command}: {exc}", file=sys.stderr)
        return 3
    print(csv_path)
    print(json_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

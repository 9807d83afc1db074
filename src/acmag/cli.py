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
from .fitting import loglog_slope, upper_envelope
from .nv import (TWO_PI, AdaptiveDivergenceError, JacobianError, NvParams,
                 PiPulseModel, ReadoutModel, SweepError, _pair_specs, _sweeps,
                 adaptive_loop, control_frequency, operating_field,
                 parameter_uncertainty, scaling_study)
from .qfim import (SingularQfimError, _closed_form, bell_probe_determinant,
                   relative_error_curves, sample_probe_determinants)


class ConfigError(ValueError):
    """Invalid, unknown, or missing configuration entry."""


_REQUIRED = "__required__"

# q_mhz and gamma_n_mhz_per_g are accepted and ignored: the four-level
# model has no nuclear quadrupole or nuclear Zeeman term.
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

# adaptive sets its control from each round's estimate, so it has no b_c
_PROTOCOL_DEFAULTS = {
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
        "protocol": {"b_c": 5.65, **_PROTOCOL_DEFAULTS},
        "readout": _READOUT_DEFAULTS,
        "sweep": {"points": 11, "halfwidth_b": None, "halfwidth_w_mhz": None,
                  "noise": True},
    },
    "nv-scaling": {
        "seed": 0,
        "nv": _NV_DEFAULTS,
        "protocol": {"b_c": 5.65, **_PROTOCOL_DEFAULTS},
        "readout": _READOUT_DEFAULTS,
        "scaling": {"n_min": 1, "n_max": 8, "halfwidth_b": 0.2,
                    "halfwidth_w_mhz": 1.0 / np.pi, "points": 5},
    },
    "adaptive": {
        "seed": 0,
        "nv": _NV_DEFAULTS,
        "protocol": _PROTOCOL_DEFAULTS,
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
           "scaling.points": 3, "search.samples": 1, "adaptive.rounds": 0,
           "adaptive.shots": 1}
_POSITIVE = ("field.b", "nv.gamma_e_mhz_per_g", "protocol.b_c", "protocol.tau",
             "truth.b", "scan.t", "sweep.halfwidth_b", "sweep.halfwidth_w_mhz",
             "scaling.halfwidth_b", "scaling.halfwidth_w_mhz",
             "adaptive.window_b", "adaptive.window_w_mhz",
             "adaptive.jac_halfwidth_b", "adaptive.jac_halfwidth_w_mhz")


def _is_number(value) -> bool:
    # beyond 2**53 a float no longer holds every integer
    return (type(value) is int and abs(value) <= 2**53
            or type(value) is float and math.isfinite(value))


def _check_leaf(default, value, path: str):
    """Reject a leaf that is mistyped or that no study can run with.

    Numbers are finite floats or ints of magnitude at most 2**53, never
    strings or booleans; an int default takes such an int (the seed any
    int, as a u64), a None default also null, and a list default a list of
    numbers.
    """
    if isinstance(default, list):
        ok = isinstance(value, list) and all(map(_is_number, value))
    elif type(default) in (bool, int, str) and default != _REQUIRED:
        ok = type(value) is type(default) and (
            type(value) is not int or path == "seed" or _is_number(value))
    else:  # float, or an optional (None) or required number
        ok = _is_number(value) or (default is None and value is None)
    if not ok:
        raise ConfigError(f"config key {path!r} has the wrong type: {value!r}")
    if path in _MINIMA and value < _MINIMA[path]:
        raise ConfigError(f"{path} must be >= {_MINIMA[path]}, got {value}")
    if path in _POSITIVE and value is not None and value <= 0:
        raise ConfigError(f"{path} must be positive, got {value}")
    if (path.endswith(("_mhz", "_mhz_per_g")) and value is not None
            and not math.isfinite(TWO_PI * value)):
        raise ConfigError(f"{path} = {value!r} overflows a float in rad/us")


def _merge(defaults, user, path=""):
    """User values over a copy of the defaults, in one walk that rejects
    unknown keys, mistyped leaves and missing required keys."""
    if not isinstance(user, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}")
    unknown = next((key for key in user if key not in defaults), None)
    if unknown is not None:
        raise ConfigError(f"unknown config key {path + unknown!r}")
    out = {}
    for key, default in defaults.items():
        if isinstance(default, dict):
            out[key] = _merge(default, user.get(key, {}), path + key + ".")
        elif key in user:
            _check_leaf(default, user[key], path + key)
            out[key] = user[key]
        elif default == _REQUIRED:
            raise ConfigError(f"missing required config key {path + key!r}")
        else:
            out[key] = copy.deepcopy(default)
    return out


def resolve_config(command: str, user: dict, seed: int | None) -> dict:
    """Merge user config over command defaults; reject unknown/missing keys,
    mistyped values and values no study can run with."""
    if command not in DEFAULTS:
        raise ConfigError(f"unknown command {command!r}")
    cfg = _merge(DEFAULTS[command], user)
    if seed is not None:
        cfg["seed"] = int(seed)
        _check_leaf(0, cfg["seed"], "seed")
    sc = cfg.get("scaling")
    if sc is not None and sc["n_max"] < sc["n_min"] + 2:
        raise ConfigError("scaling.n_max must be >= scaling.n_min + 2 for a "
                          f"slope fit, got {sc['n_min']}..{sc['n_max']}")
    return cfg


_CONTROL_MHZ = "nv.d_mhz - nv.gamma_e_mhz_per_g * nv.b_z0 - nv.a_mhz / 2"

# the keys that set the centre and the half-width of each NV command's
# sweeps on each axis; N is the sweep's repetition number
_SWEEP_KEYS = {
    ("nv-sweep", "B"): ("protocol.b_c",
                        "sweep.halfwidth_b (null: 0.2 / protocol.n_reps)"),
    ("nv-sweep", "omega"): (
        _CONTROL_MHZ,
        "sweep.halfwidth_w_mhz (null: 1 / (pi * protocol.n_reps**2))"),
    ("nv-scaling", "B"): ("protocol.b_c", "scaling.halfwidth_b / N"),
    ("nv-scaling", "omega"): (_CONTROL_MHZ, "scaling.halfwidth_w_mhz / N**2"),
    ("adaptive", "B"): ("adaptive.b0", "adaptive.jac_halfwidth_b"),
    ("adaptive", "omega"): (_CONTROL_MHZ + " + adaptive.omega0_offset_mhz",
                            "adaptive.jac_halfwidth_w_mhz"),
}


def _nv_from(cfg: dict) -> NvParams:
    c = cfg["nv"]
    nv = NvParams(D=TWO_PI * c["d_mhz"], A=TWO_PI * c["a_mhz"],
                  gamma_e=TWO_PI * c["gamma_e_mhz_per_g"], B_z0=c["b_z0"])
    if not 0 < control_frequency(nv) < np.inf:
        raise ConfigError(
            f"nv.b_z0 = {c['b_z0']} puts the control frequency {_CONTROL_MHZ}"
            f" at {control_frequency(nv) / TWO_PI:.6g} MHz; it must be "
            "positive and finite")
    return nv


def _pulse_from(cfg: dict) -> PiPulseModel:
    c = cfg["protocol"]["pulse"]
    return PiPulseModel(kind=c["kind"], rabi_freq=TWO_PI * c["rabi_mhz"],
                        hyperfine_on=bool(c["hyperfine_on"]))


def _readout_from(cfg: dict) -> ReadoutModel:
    c = cfg["readout"]
    return ReadoutModel(sigma=c["sigma"], n_avg=int(c["n_avg"]),
                        contrast=c["contrast"], baseline=c["baseline"],
                        signals_used=c["signals_used"])


# The CSV writer formats every number as '%.17g' would, a block of cells at
# a time. A finite nonzero |x| with decimal exponent d is scaled to
# y = |x| 10^(16 - d) in [1e16, 1e17) in long double; rounded to an integer,
# y holds the 17 significant digits. The scale factors are correctly rounded,
# so y is off by at most two roundings of eps/2 relative, under 1e17 * eps.
# Python formats a cell whose y lies within _WINDOW of a rounding tie, a zero
# and a text cell. Where long double is a plain double the window exceeds
# 0.5, and Python formats every cell.
_D = np.arange(-325, 310)  # d of finite nonzero doubles, one more each side
_WINDOW = 1.2e17 * float(np.finfo(np.longdouble).eps)
_QUAD = (np.arange(10_000, dtype=np.int16)[:, None]
         // np.array([1000, 100, 10, 1], np.int16) % 10
         + ord("0")).astype(np.uint8).view(np.uint32).ravel()  # "0000".."9999"
# 10^(16 - d) for each d in _D, parsed from "1e<16 - d>" by strtold, which
# rounds correctly; infinities (of a plain double) become its max
_SCALE = np.minimum(np.array([b"1e%d" % k for k in (16 - _D).tolist()])
                    .astype(np.longdouble), np.finfo(np.longdouble).max)

# A cell's 28 source bytes are 7 words, indices into _WORDS: bytes 0-3 are
# "-.0" and the lead digit (a lead of 10, from a y that rounds up to 1e17,
# reads as 1), 4-19 the other 16 digits, 20-23 the exponent's sign and
# digits "+hij", 24 "e" and 25 the separator. Each layout picks its output
# bytes from these.
_LEAD, _EXPO = 10_000, 10_011
_SEP = _EXPO + _D.size
_WORDS = np.concatenate([
    _QUAD, _QUAD[[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1]] - 0x303030 + 0x302E2D,
    (_QUAD[abs(_D)] - ord("0") + np.where(_D < 0, ord("-"), ord("+")))
    .astype(np.uint32),  # "+hij" or "-hij"
    np.frombuffer(b"e,\0\0e\n\0\0", np.uint32)])


def _layouts():
    """Source byte of each output byte, and the size with the separator, of
    each cell class (layout, p, sign): layouts 0-20 print in fixed notation
    with exponent layout - 4, 21 and 22 in scientific notation with 2 and 3
    exponent digits; p is the number of significant digits."""
    lay, p, neg = (a.reshape(-1, 1) for a in np.meshgrid(
        *map(np.int8, (range(23), range(1, 18), range(2))), indexing="ij"))
    x = np.where(lay < 21, lay - 4, 0)  # a mantissa prints as x = 0
    j = np.arange(25, dtype=np.int8) - neg  # output byte after the sign
    m = p + (p > 1)  # where a scientific "e" goes
    digits = np.where(j <= np.maximum(x, 0), 3 + j, 2 + j + np.minimum(x, 0))
    fixed = np.select([j == np.maximum(x + 1, 1), (x < 0) & (j < 1 - x)],
                      [1, 2], digits)  # ".", "0"
    sci = np.select([j < m, j == m, j == m + 1], [fixed, 24, 20],
                    41 - lay - m + j)  # "e", the exponent's sign, digits
    perm = np.where(j < 0, 0, np.where(lay < 21, fixed, sci))  # "-"
    size = np.where(lay < 21, np.where(x >= 0, x + 1 + (p - x) * (p > x + 1),
                                       1 - x + p), m + lay - 17) + neg
    perm = np.vstack([perm, np.zeros(25, np.int8)])  # empty cell, class -1
    size = np.append(size, 0)
    perm[np.arange(size.size), size] = 25  # the separator
    return np.clip(perm, 0, 27), size + 1


_PERM, _SIZE = _layouts()
# the class of 17 significant digits for each exponent; each trailing zero
# takes 2 off
_LAYOUT = np.where(abs(_D - 6) <= 10, _D + 4, 21 + (abs(_D) >= 100)) * 34 + 32


def _scaled(a: np.ndarray):
    """The index in _D of each a's decimal exponent d, and the integer part
    and the fraction of y = a 10^(16 - d) in [1e16, 1e17)."""
    d = np.floor(np.log10(a)).astype(np.intp) - _D[0]
    y = a * _SCALE[d]
    num = y.astype(np.int64)
    fix = (num - 10**16).view(np.uint64) >= 9 * 10**16  # log10 was off by 1
    if fix.any():
        d[fix] += np.where(num[fix] < 10**16, -1, 1)
        y[fix] = a[fix] * _SCALE[d[fix]]
        num[fix] = y[fix].astype(np.int64)
    return d, num, (y - num).astype(float)


def _format_block(x: np.ndarray, sep: np.ndarray):
    """Bytes of the finite cells x, row-major, with the cells that Python
    must format left empty, their indices and the end offset of each."""
    d, num, frac = _scaled(np.maximum(np.abs(x), 5e-324))
    python = abs(frac - 0.5) <= _WINDOW
    python |= x == 0
    num += frac > 0.5
    words = np.empty((x.size, 7), np.intp)
    lead, rest = np.divmod(num, 10**16)
    for k, half in zip((1, 3), np.divmod(rest, 10**8)):
        np.divmod(half, 10**4, out=(words[:, k], words[:, k + 1]))
    np.add(lead, _LEAD, out=words[:, 0])
    d += lead > 9
    np.add(d, _EXPO, out=words[:, 5])
    words[:, 6] = sep
    src = _WORDS[words].view(np.uint8)
    zeros = np.argmax(src[:, 19:2:-1] != ord("0"), axis=1)  # trailing
    cls = _LAYOUT[d] - 2 * zeros + np.signbit(x)
    cls[python] = -1
    perm = _PERM[cls] + np.arange(0, src.size, 28)[:, None]
    size = _SIZE[cls]
    out = src.ravel()[perm][np.arange(25) < size[:, None]]
    cells = np.flatnonzero(python)
    return out.tobytes(), cells, size.cumsum()[cells]


def emit_results(columns: dict, summary: dict, out_dir: str | Path,
                 name: str) -> tuple[Path, Path]:
    """Write a CSV table and a JSON summary with stable formatting.

    ``columns`` maps each column name, in header order, to a 1-D sequence
    of numbers or strings. Text is printed as it is ('%s') and numbers,
    integers included, as '%.17g' prints them, so numeric tables round-trip
    exactly; summary keys are sorted. A non-finite table cell or summary
    value raises FloatingPointError before anything is written.

    numpy formats the numbers a block of rows at a time, byte for byte as
    '%.17g' would (see the comment above _D); Python formats each zero,
    each text cell and each cell within _WINDOW of a rounding tie. The CSV
    is written as UTF-8.
    """
    header = list(columns)
    cols = [np.asarray(c) for c in columns.values()]
    if not cols or any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ValueError("table columns must be 1-D and of one length")
    kinds = [c.dtype.kind for c in cols]
    if not set(kinds) <= set("biufU"):
        raise TypeError("table columns must hold numbers or text")
    text = [c.tolist() if k == "U" else None for c, k in zip(cols, kinds)]
    rows, ncol = cols[0].size, len(cols)
    step = max(1, 2048 // ncol)
    sep = np.full((min(step, rows), ncol), _SEP)
    sep[:, -1] += 1  # "\n"
    sep = sep.ravel()
    parts = [(",".join(header) + "\n").encode()]
    for r0 in range(0, rows, step):
        block = np.array([c[r0:r0 + step] if t is None else
                          np.zeros(min(step, rows - r0))
                          for c, t in zip(cols, text)], float).T
        bad = ~np.isfinite(block)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), ncol)
            raise FloatingPointError(f"non-finite value {cols[j][r0 + i]} in "
                                     f"column {header[j]!r} at row {r0 + i}")
        x = block.ravel()
        out, cells, ends = _format_block(x, sep[:x.size])
        start = 0
        for cell, v, end in zip(cells.tolist(), x[cells].tolist(),
                                (ends - 1).tolist()):
            i, j = divmod(cell, ncol)
            parts += out[start:end], ("%.17g" % v if text[j] is None
                                      else text[j][r0 + i]).encode()
            start = end
        parts.append(out[start:])
    try:
        summary_text = json.dumps(summary, sort_keys=True, indent=2,
                                  default=_json_default, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError(
            f"the summary holds a non-finite value: {exc}") from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{name}.csv"
    json_path = out / f"{name}.summary.json"
    with csv_path.open("wb") as fh:
        fh.writelines(parts)
    try:
        json_path.write_text(summary_text + "\n")
    except OSError:  # leave no CSV without its summary
        csv_path.unlink()
        raise
    return csv_path, json_path


def _json_default(x):
    if isinstance(x, (np.integer, np.floating, np.ndarray)):
        return x.tolist()
    raise TypeError(f"cannot serialize {type(x)!r}")


def _field_from(cfg: dict, omega: float) -> FieldParams:
    c = cfg["field"]
    return FieldParams.matched(B=c["b"], omega=omega, gamma=c["gamma"])


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


def _underflow(command: str, what: str, p: FieldParams,
               time: str = "") -> ConfigError:
    return ConfigError(f"config values underflow in {command}: {what} at "
                       f"field.gamma = {p.gamma}, field.b = {p.B}{time}")


def _check_long_time_scale(command: str, p: FieldParams, t: float,
                           time: str = "") -> None:
    """Raise ConfigError when the long-time QFIM entries gamma^2 T^2 and
    gamma^2 B^2 T^4 / 4 at T = t lie less than float precision above the
    smallest normal float, where their deviations underflow."""
    gt = p.gamma * t
    gbt2 = gt * p.B * t
    scale = min(gt * gt, 0.25 * gbt2 * gbt2)
    if scale * np.finfo(float).eps < np.finfo(float).tiny:
        raise _underflow(command, f"the long-time QFIM entries fall to "
                         f"{scale!r}", p, time)


def _run_qfim_scan(cfg: dict):
    sc = cfg["scan"]
    t = float(sc["t"])
    xs = _log_grid(sc)
    p = _field_from(cfg, xs[-1] / t)
    g, b = p.gamma, p.B
    f_bb, f_bw, f_ww, det = _closed_form(g, b, xs / t, t)
    if np.any(det <= 0):  # a NaN goes on to the non-finite check
        i = int(np.argmax(det <= 0))
        raise _underflow("qfim-scan", f"the Bell-probe QFIM determinant is "
                         f"{det[i]} in row {i} (omega_t = {xs[i]})", p,
                         f", scan.t = {t}")
    columns = {"omega_t": xs, "f_bb": f_bb, "f_bw": f_bw, "f_ww": f_ww,
               "det": det}
    summary = {  # read at the last (largest omega*T) row
        "f_bb_over_limit": f_bb[-1] / (g**2 * t**2),
        "f_ww_over_limit": f_ww[-1] / (g**2 * b**2 * t**4 / 4),
        "offdiag_ratio": abs(f_bw[-1]) / np.sqrt(f_bb[-1] * f_ww[-1]),
    }
    return columns, summary


def _run_convergence(cfg: dict):
    xs = _log_grid(cfg["scan"], floor=2 * np.pi)
    p = _field_from(cfg, 1.0)
    # the curves depend on omega*T only and are taken at T = 1
    _check_long_time_scale("convergence", p, 1.0)
    curves = relative_error_curves(p, xs)
    summary = {}
    for k in list(curves)[1:]:  # every curve after omega_t
        x, y = upper_envelope(xs, curves[k])
        if np.any(y == 0):  # its deviations fell below float precision
            raise ConfigError(
                f"convergence: the {k} curve falls to 0.0 over the envelope "
                f"bin at omega_t = {x[y == 0][0]:.6g}, below float precision;"
                f" scan.omega_t_max = {cfg['scan']['omega_t_max']} must be lower")
        summary[f"slope_{k}"], summary[f"slope_{k}_stderr"] = loglog_slope(x, y)
    return curves, summary


def _run_bounds(cfg: dict):
    omega = TWO_PI * float(cfg["field"]["omega_mhz"])
    t = np.asarray(cfg["scan"]["t_values"], dtype=float)
    if not t.size or np.any(t <= 0):
        raise ConfigError("scan.t_values must be a non-empty list of positive times")
    p = _field_from(cfg, omega)
    _check_long_time_scale("bounds", p, float(t.min()),
                           f", shortest scan.t_values = {t.min()}")
    s = strategy_comparison(p, t)
    ratios = ["ratio_b", "ratio_w", "seq_var_ratio_b", "seq_var_ratio_w",
              "sd_ratio_b", "sd_ratio_w"]
    columns = {"t": t, "omega_t": s.regime_omega_t, "f_b_max": s.f_b_max,
               "f_w_max": s.f_w_max, **{k: getattr(s, k) for k in ratios}}
    summary = {k: float(getattr(s, k)[-1]) for k in ratios + ["regime_omega_t"]}
    return columns, summary


def _run_probe_search(cfg: dict):
    sc = cfg["search"]
    p = _field_from(cfg, 1.0)
    gen = generator_closed_form(p, float(sc["t"]), mode="asymptotic")
    dets = sample_probe_determinants(gen, int(sc["samples"]), cfg["seed"])
    bell = bell_probe_determinant(gen)
    if bell <= 0:  # a NaN goes on to the non-finite check
        raise _underflow("probe-search", f"the Bell-probe QFIM determinant "
                         f"is {bell}", p, f", search.t = {sc['t']}")
    columns = {"index": np.arange(dets.size), "det": dets}
    summary = {"bell_det": bell, "best_sampled_det": float(dets.max()),
               "max_excess": float(dets.max() - bell),
               "samples": int(sc["samples"])}
    return columns, summary


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
    sweeps, _ = _sweeps(_pair_specs((p.B, p.omega), n, hb, hw, sw["points"],
                                    cfg["seed"]),
                        p, nv, pr["tau"], pulse, readout, sw["noise"],
                        pr["steps_per_block"])
    sweep_b, sweep_w = sweeps
    signals = np.concatenate([res.signals for res in sweeps])
    probs = np.concatenate([res.probs for res in sweeps])
    columns = {"axis": np.repeat([res.axis for res in sweeps],
                                 [res.values.size for res in sweeps]),
               "value": np.concatenate([res.values for res in sweeps]),
               **{f"signal_{i + 1}": s for i, s in enumerate(signals.T)},
               **{f"p_{i + 1}": q for i, q in enumerate(probs.T)}}
    unc = parameter_uncertainty(sweep_b, sweep_w, readout)
    summary = {
        "slopes_b": sweep_b.slopes, "slopes_w": sweep_w.slopes,
        "slope_stderr_b": sweep_b.slope_stderr,
        "slope_stderr_w": sweep_w.slope_stderr,
        "delta_b": unc.delta_b, "delta_w": unc.delta_w,
        "delta_b_err": unc.delta_b_err, "delta_w_err": unc.delta_w_err,
        "omega_c_mhz": control_frequency(nv) / TWO_PI,
    }
    return columns, summary


def _run_nv_scaling(cfg: dict):
    nv = _nv_from(cfg)
    pr = cfg["protocol"]
    sc = cfg["scaling"]
    res = scaling_study(
        nv, _readout_from(cfg),
        n_values=tuple(range(int(sc["n_min"]), int(sc["n_max"]) + 1)),
        tau=pr["tau"], B_c=pr["b_c"], phi=pr["phi"], pulse=_pulse_from(cfg),
        halfwidth_b=sc["halfwidth_b"],
        halfwidth_w=TWO_PI * sc["halfwidth_w_mhz"],
        points=int(sc["points"]), seed=cfg["seed"],
        steps_per_block=int(pr["steps_per_block"]))
    columns = {"n": res.n_values, "delta_b": res.delta_b,
               "delta_b_err": res.delta_b_err, "delta_w": res.delta_w,
               "delta_w_err": res.delta_w_err}
    summary = {"exponent_b": res.exponent_b,
               "exponent_b_stderr": res.exponent_b_stderr,
               "exponent_w": res.exponent_w,
               "exponent_w_stderr": res.exponent_w_stderr}
    return columns, summary


def _run_adaptive(cfg: dict):
    nv = _nv_from(cfg)
    pr = cfg["protocol"]
    ad = cfg["adaptive"]
    tr = cfg["truth"]
    w_c = control_frequency(nv)
    truth = (tr["b"], w_c + TWO_PI * tr["omega_offset_mhz"])
    if not truth[1] > 0:  # before round 0, which would name no key
        raise ConfigError(
            f"truth.omega_offset_mhz = {tr['omega_offset_mhz']} puts the "
            f"truth frequency {_CONTROL_MHZ} + truth.omega_offset_mhz at "
            f"{truth[1] / TWO_PI:.6g} MHz; it must be positive")
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
    columns = {"round": np.arange(traj.shape[0]), "b_est": traj[:, 0],
               "omega_est": traj[:, 1], "b_err": traj[:, 0] - truth[0],
               "omega_err": traj[:, 1] - truth[1]}
    summary = {"final_b_err": float(traj[-1, 0] - truth[0]),
               "final_omega_err": float(traj[-1, 1] - truth[1]),
               "initial_b_err": float(traj[0, 0] - truth[0]),
               "initial_omega_err": float(traj[0, 1] - truth[1]),
               "rounds": int(ad["rounds"])}
    return columns, summary


_RUNNERS = {
    "qfim-scan": _run_qfim_scan,
    "convergence": _run_convergence,
    "bounds": _run_bounds,
    "probe-search": _run_probe_search,
    "nv-sweep": _run_nv_sweep,
    "nv-scaling": _run_nv_scaling,
    "adaptive": _run_adaptive,
}

# LinAlgError and SingularQfimError are ValueErrors that stay numerical
_NUMERICAL_ERRORS = (SingularQfimError, JacobianError, ConvergenceError,
                     AdaptiveDivergenceError, np.linalg.LinAlgError,
                     FloatingPointError)


def run(command: str, config_path: str | Path, seed: int | None = None,
        out_dir: str | Path = ".") -> tuple[Path, Path]:
    """Execute a study command; returns the written (csv, json) paths."""
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        user = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}")
    cfg = resolve_config(command, user, seed)
    try:
        # emit_results names the first non-finite output cell, which says
        # more than numpy's overflow and invalid-value warnings would
        with np.errstate(all="ignore"):
            columns, summary = _RUNNERS[command](cfg)
    except (OverflowError, ZeroDivisionError) as exc:
        # a Python float operation on an extreme config value
        raise ConfigError(f"config values overflow in {command}: {exc}") from exc
    except SweepError as exc:  # in config units, named by its keys
        centre, half = _SWEEP_KEYS[command, exc.axis]
        units = (1.0, " G") if exc.axis == "B" else (TWO_PI, " MHz")
        raise ConfigError(f"{exc.describe(*units)}; it is {centre} +- "
                          f"{half}") from exc
    except (ConfigError, *_NUMERICAL_ERRORS):
        raise
    except ValueError as exc:  # a config-derived input outside a study's domain
        raise ConfigError(str(exc)) from exc
    summary = {"command": command, "config": cfg, "seed": cfg["seed"],
               "version": __version__, **summary}
    try:
        return emit_results(columns, summary, out_dir, command)
    except OSError as exc:  # --out is a file, under one, or not writable
        raise ConfigError(f"cannot write output: {exc}") from exc


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

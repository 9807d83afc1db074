"""Least-squares slopes: linear and log-log power-law fits."""

from __future__ import annotations

import numpy as np


def ols_slope(x, y):
    """Least-squares slope of y vs x along the last axis, with its standard
    error (0 for 2 points).

    Leading axes broadcast, so one call fits a stack of same-length
    windows and returns arrays of slopes and errors; 1-D x and y give two
    floats.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean(axis=-1, keepdims=True)
    sxx = np.vecdot(dx, dx)
    y_mean = y.mean(axis=-1, keepdims=True)
    slope = np.vecdot(dx, y - y_mean) / sxx
    resid = y - (y_mean + slope[..., None] * dx)
    dof = x.shape[-1] - 2
    stderr = (np.sqrt(np.vecdot(resid, resid) / dof / sxx) if dof > 0
              else np.zeros_like(slope))
    if slope.ndim == 0:
        return float(slope), float(stderr)
    return slope, stderr


def loglog_slope(x, y) -> tuple[float, float]:
    """Least-squares slope of log(y) vs log(x) with its standard error.

    Requires at least 3 strictly positive points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if not (np.all(x > 0) and np.all(y > 0)):  # NaN fails too
        raise ValueError("log-log fit requires strictly positive data")
    return ols_slope(np.log(x), np.log(y))


def upper_envelope(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Per-log-bin maxima of an oscillating decaying curve.

    Bins the x axis logarithmically, 8 bins per decade, and keeps the
    maximum y in each bin, reported at the bin's geometric-mean x. Empty
    bins are dropped.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.all(x > 0):  # NaN fails too
        raise ValueError("envelope extraction requires positive x")
    lo, hi = np.log10(x.min()), np.log10(x.max())
    n_bins = max(1, int(np.ceil((hi - lo) * 8)))
    edges = np.logspace(lo, hi, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)
    ys = np.full(n_bins, -np.inf)
    np.maximum.at(ys, idx, y)
    kept = np.bincount(idx, minlength=n_bins) > 0
    return np.sqrt(edges[:-1] * edges[1:])[kept], ys[kept]


def envelope_slope(x, y) -> tuple[float, float]:
    """Log-log slope of the upper envelope of an oscillating curve."""
    xs, ys = upper_envelope(x, y)
    return loglog_slope(xs, ys)

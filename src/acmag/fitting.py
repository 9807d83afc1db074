"""Least-squares slopes: linear and log-log power-law fits."""

from __future__ import annotations

import numpy as np


def ols_slope(x, y) -> tuple[float, float]:
    """Least-squares slope of y vs x with its standard error (0 for 2 points)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dx = x - x.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (y - y.mean())) / sxx
    resid = y - (y.mean() + slope * dx)
    dof = x.size - 2
    stderr = float(np.sqrt((resid @ resid) / dof / sxx)) if dof > 0 else 0.0
    return slope, stderr


def loglog_slope(x, y) -> tuple[float, float]:
    """Least-squares slope of log(y) vs log(x) with its standard error.

    Requires at least 3 strictly positive points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points for a slope fit")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires strictly positive data")
    return ols_slope(np.log(x), np.log(y))


def upper_envelope(x, y, bins_per_decade: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Per-log-bin maxima of an oscillating decaying curve.

    Bins the x axis logarithmically and keeps the maximum y in each bin,
    reported at the bin's geometric-mean x. Empty bins are dropped.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0):
        raise ValueError("envelope extraction requires positive x")
    lo, hi = np.log10(x.min()), np.log10(x.max())
    n_bins = max(1, int(np.ceil((hi - lo) * bins_per_decade)))
    edges = np.logspace(lo, hi, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)
    xs, ys = [], []
    for b in range(n_bins):
        mask = idx == b
        if not np.any(mask):
            continue
        ys.append(y[mask].max())
        xs.append(np.sqrt(edges[b] * edges[b + 1]))
    return np.asarray(xs), np.asarray(ys)


def envelope_slope(x, y, bins_per_decade: int = 8) -> tuple[float, float]:
    """Log-log slope of the upper envelope of an oscillating curve."""
    xs, ys = upper_envelope(x, y, bins_per_decade)
    return loglog_slope(xs, ys)

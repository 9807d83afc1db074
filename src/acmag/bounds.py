"""Single-parameter information benchmarks and strategy comparison.

The per-parameter ceiling on the quantum Fisher information under optimal
control is set by the integrated spectral range of the target-Hamiltonian
derivative: F_theta <= 4 (integral of |f_theta(t)| dt)^2 for a qubit drive
f_theta(t) sigma_x. The integrals of |cos| and t|sin| are evaluated
exactly, in closed form in the number of completed half-periods, so the
benchmark ratios carry no quadrature error and cost O(1) at any omega*T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FieldParams, _check_closed_form
from .qfim import _closed_form

# sin x - x cos x = sum over n >= 1 of (-1)^(n+1) x^(2n+1) / ((2n+1) (2n-1)!),
# kept to n = 10 as x^3 times a polynomial in x^2, highest power first.
# Below x = 1.5 the sum is within 1.4 ulp, where the direct form loses
# about 3 eps / x^2 to cancellation (2 ulp at x = 1, all digits by 1e-8).
_SERIES_BELOW = 1.5
_T_ABS_SIN_SERIES = (-1 / 2554547108585472000, 1 / 6758061133824000,
                     -1 / 22230464256000, 1 / 93405312000, -1 / 518918400,
                     1 / 3991680, -1 / 45360, 1 / 840, -1 / 30, 1 / 3)


def _unwrap(x):  # a float for a 0-d result, the array otherwise
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class StrategyComparison:
    """Joint-vs-single-parameter figures per T; sd_ratio_* = sqrt(ratio_*)."""

    f_b_max: float | np.ndarray
    f_w_max: float | np.ndarray
    ratio_b: float | np.ndarray
    ratio_w: float | np.ndarray
    seq_var_ratio_b: float | np.ndarray
    seq_var_ratio_w: float | np.ndarray
    regime_omega_t: float | np.ndarray
    sd_ratio_b: float | np.ndarray
    sd_ratio_w: float | np.ndarray


def envelope_integral(kind: str, omega, T) -> float | np.ndarray:
    """Exact integral of |cos(omega t)| or t*|sin(omega t)| over [0, T].

    Each completed half-period between sign changes adds a fixed amount,
    so with x = omega*T and k = floor(x/pi + 1/2) the |cos| integral is
    (2k + (-1)^k sin x) / omega, and with k = floor(x/pi) the t|sin| one is
    (k(k + 1) pi + (-1)^k (sin x - x cos x)) / omega^2, whose k = 0 term
    comes from its Taylor series x^3/3 - x^5/30 + ... below x = 1.5.
    """
    omega, T = np.asarray(omega, dtype=float), np.asarray(T, dtype=float)
    if not (np.all(omega > 0) and np.all(T > 0)):
        raise ValueError("omega and T must be positive")
    x = omega * T
    if kind == "abs_cos":
        k = np.floor(x / np.pi + 0.5)
        value = (2 * k + (1 - 2 * np.fmod(k, 2)) * np.sin(x)) / omega
    elif kind == "t_abs_sin":
        k = np.floor(x / np.pi)
        value = (k * (k + 1) * np.pi + (1 - 2 * np.fmod(k, 2))
                 * (np.sin(x) - x * np.cos(x))) / omega**2
        if (small := x < _SERIES_BELOW).any():  # x^3 / omega^2 = x T^2
            value = np.array(value)
            xs, ts = x[small], np.broadcast_to(T, x.shape)[small]
            value[small] = xs * ts * ts * np.polyval(_T_ABS_SIN_SERIES, xs * xs)
    else:
        raise ValueError(f"kind must be 'abs_cos' or 't_abs_sin', got {kind!r}")
    return _unwrap(value)


def single_param_qfi_bound(theta: str, p: FieldParams, T):
    """Best achievable QFI for one parameter with the other known.

    4*(gamma * integral |cos|)^2 for the amplitude; the frequency picks up
    a B^2 factor and the t|sin| integral. Tends to (16/pi^2) gamma^2 T^2
    and (4/pi^2) gamma^2 B^2 T^4 respectively as omega*T grows.
    """
    if theta not in ("B", "omega"):
        raise ValueError(f"theta must be 'B' or 'omega', got {theta!r}")
    root = (p.gamma * envelope_integral("abs_cos", p.omega, T) if theta == "B"
            else p.gamma * p.B * envelope_integral("t_abs_sin", p.omega, T))
    return _unwrap(4.0 * np.square(root))


def strategy_comparison(p: FieldParams, T) -> StrategyComparison:
    """Compare the joint protocol against per-parameter optima.

    ratio_* = F_max / F_diag (per-shot information penalty of running both
    parameters at once); seq_var_ratio_* = F_max / (2 F_diag), the variance
    of the joint scheme relative to a sequential strategy that splits the
    same repetition budget between the two parameters. Both limits are
    16/pi^2 and 8/pi^2. Repetition count cancels in every ratio. An array T
    gives array fields; OverflowError names the first T with an entry that
    is not finite. Assumes phi = 0, as the closed forms do.
    """
    _check_closed_form(p)
    T = np.asarray(T, dtype=float)
    with np.errstate(all="ignore"):  # reported below, with the T
        f_bb, _, f_ww, _ = _closed_form(p.gamma, p.B, p.omega, T)
        fb = single_param_qfi_bound("B", p, T)
        fw = single_param_qfi_bound("omega", p, T)
        ratio_b, ratio_w = fb / f_bb, fw / f_ww
    finite = np.isfinite([f_bb, f_ww, fb, fw, ratio_b, ratio_w]).all(axis=0)
    if not finite.all():
        raise OverflowError("strategy comparison is not finite at T = "
                            f"{float(T.flat[np.argmin(finite)])}")
    return StrategyComparison(*map(_unwrap, (
        fb, fw, ratio_b, ratio_w, ratio_b / 2, ratio_w / 2, p.omega * T,
        np.sqrt(ratio_b), np.sqrt(ratio_w))))

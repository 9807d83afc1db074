"""Single-parameter information benchmarks and strategy comparison.

The per-parameter ceiling on the quantum Fisher information under optimal
control is set by the integrated spectral range of the target-Hamiltonian
derivative: F_theta <= 4 (integral of |f_theta(t)| dt)^2 for a qubit drive
f_theta(t) sigma_x. The integrals of |cos| and t|sin| are evaluated
exactly, in closed form in the number of completed half-periods, so the
benchmark ratios carry no quadrature error and cost O(1) at any omega*T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import FieldParams
from .qfim import qfim_closed_form


@dataclass(frozen=True)
class StrategyComparison:
    """Simultaneous-vs-single-parameter figures at one omega*T."""

    f_b_max: float
    f_w_max: float
    ratio_b: float
    ratio_w: float
    seq_var_ratio_b: float
    seq_var_ratio_w: float
    regime_omega_t: float

    @property
    def sd_ratio_b(self) -> float:
        """Standard-deviation penalty of joint estimation for B."""
        return float(np.sqrt(self.ratio_b))

    @property
    def sd_ratio_w(self) -> float:
        return float(np.sqrt(self.ratio_w))


def envelope_integral(kind: str, omega: float, T: float) -> float:
    """Exact integral of |cos(omega t)| or t*|sin(omega t)| over [0, T].

    Each completed half-period between sign changes adds a fixed amount,
    so with x = omega*T and k = floor(x/pi + 1/2) the |cos| integral is
    (2k + (-1)^k sin x) / omega, and with k = floor(x/pi) the t|sin| one is
    ((k^2 + k) pi + (-1)^k (sin x - x cos x)) / omega^2.
    """
    if omega <= 0 or T <= 0:
        raise ValueError("omega and T must be positive")
    x = omega * T
    if kind == "abs_cos":
        k = math.floor(x / math.pi + 0.5)
        sign = -1.0 if k % 2 else 1.0
        return (2 * k + sign * math.sin(x)) / omega
    if kind == "t_abs_sin":
        k = math.floor(x / math.pi)
        sign = -1.0 if k % 2 else 1.0
        return ((k * k + k) * math.pi
                + sign * (math.sin(x) - x * math.cos(x))) / omega**2
    raise ValueError(f"kind must be 'abs_cos' or 't_abs_sin', got {kind!r}")


def single_param_qfi_bound(theta: str, p: FieldParams, T: float) -> float:
    """Best achievable QFI for one parameter with the other known.

    4*(gamma * integral |cos|)^2 for the amplitude; the frequency picks up
    a B^2 factor and the t|sin| integral. Tends to (16/pi^2) gamma^2 T^2
    and (4/pi^2) gamma^2 B^2 T^4 respectively as omega*T grows.
    """
    if theta == "B":
        return 4.0 * (p.gamma * envelope_integral("abs_cos", p.omega, T)) ** 2
    if theta == "omega":
        return 4.0 * (p.gamma * p.B
                      * envelope_integral("t_abs_sin", p.omega, T)) ** 2
    raise ValueError(f"theta must be 'B' or 'omega', got {theta!r}")


def strategy_comparison(p: FieldParams, T: float) -> StrategyComparison:
    """Compare the joint protocol against per-parameter optima.

    ratio_* = F_max / F_diag (per-shot information penalty of running both
    parameters at once); seq_var_ratio_* = F_max / (2 F_diag), the variance
    of the joint scheme relative to a sequential strategy that splits the
    same repetition budget between the two parameters. Both limits are
    16/pi^2 and 8/pi^2. Repetition count cancels in every ratio.
    """
    f = qfim_closed_form(p, T)
    fb = single_param_qfi_bound("B", p, T)
    fw = single_param_qfi_bound("omega", p, T)
    return StrategyComparison(
        f_b_max=fb,
        f_w_max=fw,
        ratio_b=fb / f.f_bb,
        ratio_w=fw / f.f_ww,
        seq_var_ratio_b=fb / (2.0 * f.f_bb),
        seq_var_ratio_w=fw / (2.0 * f.f_ww),
        regime_omega_t=p.omega * T,
    )

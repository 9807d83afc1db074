"""Quantum Fisher information matrix for joint (B, omega) estimation.

For a pure probe evolving unitarily, the QFIM entries are four times the
covariance of the Heisenberg-picture generators. This module assembles the
matrix from generators and probes, provides the matched-control closed
forms and their determinant, the Cramer-Rao covariance bound, the relative
errors with respect to the long-time limit, the classical Fisher matrix of
a measurement, and a Haar-random probe search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FieldParams, GeneratorPair, generator_closed_form
from .linalg import (I2, bell_state, density, haar_state, is_unitary,
                     partial_trace, pure_cov, tensor)


class SingularQfimError(ValueError):
    """QFIM is singular: joint estimation unattainable."""


@dataclass(frozen=True)
class Qfim2:
    """Symmetric 2x2 Fisher information matrix for (B, omega)."""

    f_bb: float
    f_bw: float
    f_ww: float

    def matrix(self) -> np.ndarray:
        return np.array([[self.f_bb, self.f_bw], [self.f_bw, self.f_ww]])

    def det(self) -> float:
        return self.f_bb * self.f_ww - self.f_bw**2

    def is_singular(self, rel_tol: float = 1e-10) -> bool:
        """det / ||F||^2 below tolerance (or an absolute floor of 1e-12)."""
        scale = max(abs(self.f_bb), abs(self.f_bw), abs(self.f_ww))
        if scale == 0.0:
            return True
        return self.det() <= 1e-12 or self.det() / scale**2 < rel_tol


@dataclass(frozen=True)
class CovBound:
    """Cramer-Rao covariance lower bound over M repetitions."""

    var_b: float
    var_w: float
    cov_bw: float
    repetitions: int


def qfim_from_generators(probe: np.ndarray, gen: GeneratorPair,
                         ancilla: bool = True) -> Qfim2:
    """QFIM entries 4*Cov(h_a, h_b) in the probe state.

    With ``ancilla`` the probe is a two-qubit state and the generators act
    on the first qubit only (h x I); otherwise the probe is single-qubit.
    """
    probe = np.asarray(probe, dtype=complex).reshape(-1)
    if ancilla:
        if probe.size != 4:
            raise ValueError("ancilla-assisted probe must be two-qubit")
        hb = tensor(gen.h_b, I2)
        hw = tensor(gen.h_omega, I2)
    else:
        if probe.size != gen.h_b.shape[0]:
            raise ValueError("probe dimension does not match the generators")
        hb, hw = gen.h_b, gen.h_omega
    return Qfim2(f_bb=4.0 * pure_cov(probe, hb, hb),
                 f_bw=4.0 * pure_cov(probe, hb, hw),
                 f_ww=4.0 * pure_cov(probe, hw, hw))


# Taylor series in x = omega*T (coefficients of x^2k, highest first) of
# f_bb/(g^2 T^2), f_bw/(g^2 B T^3 x), f_ww/(g^2 B^2 T^4 x^2) and
# (2x - sin 2x)/x^3, used below x = 0.5 where the closed forms cancel;
# either branch is within 3e-15 relative of mpmath for 1e-6 <= x <= 10.
_SERIES_BELOW = 0.5
_F_BB_SERIES = (-17 / 638512875, 4 / 2837835, -26 / 467775, 22 / 14175,
                -1 / 35, 14 / 45, -5 / 3, 4)
_F_BW_SERIES = (457 / 195384939750, -179 / 1277025750, 271 / 42567525,
                -14 / 66825, 19 / 4050, -41 / 630, 43 / 90, -4 / 3)
_F_WW_SERIES = (-13 / 75148053750, 67 / 5746615875, -103 / 170270100,
                76 / 3274425, -53 / 85050, 17 / 1575, -19 / 180, 4 / 9)
_SIN_GAP_SERIES = (-4 / 10854718875, 16 / 638512875, -8 / 6081075,
                   8 / 155925, -4 / 2835, 8 / 315, -4 / 15, 4 / 3)


def qfim_closed_form(p: FieldParams, T: float) -> Qfim2:
    """Exact matched-control QFIM for the Bell probe.

    Reduces to diag(gamma^2 T^2, gamma^2 B^2 T^4 / 4) as omega*T -> inf.
    Below omega*T = 0.5 the entries come from their Taylor series.
    """
    g, B, w = p.gamma, p.B, p.omega
    x = w * T
    if abs(x) < _SERIES_BELOW:
        x2 = x * x
        return Qfim2(f_bb=g**2 * T**2 * np.polyval(_F_BB_SERIES, x2),
                     f_bw=g**2 * B * T**3 * x * np.polyval(_F_BW_SERIES, x2),
                     f_ww=g**2 * B**2 * T**4 * x2 * np.polyval(_F_WW_SERIES, x2))
    s = np.sin(2 * w * T)
    c = np.cos(2 * w * T)
    f_bb = g**2 * (1 + 2 * w**2 * T**2 - c + 2 * w * T * s) / (2 * w**2)
    f_bw = g**2 * B * (-1 - w**2 * T**2 + (1 + 3 * w**2 * T**2) * c) / (4 * w**3)
    f_ww = g**2 * B**2 * (1 + 4 * w**2 * T**2 + 2 * w**4 * T**4
                          - (1 + 2 * w**2 * T**2) * (c + 2 * w * T * s)) / (8 * w**4)
    return Qfim2(f_bb=f_bb, f_bw=f_bw, f_ww=f_ww)


def qfim_determinant(p: FieldParams, T: float) -> float:
    """det F = gamma^4 B^2 T^4 / (16 omega^2) * (2 omega T - sin 2 omega T)^2.

    Strictly positive for T > 0 with nonzero B and omega, since
    sin(x) < x for all x > 0. Below omega*T = 0.5 the difference
    2 omega T - sin 2 omega T comes from its Taylor series.
    """
    g, B, w = p.gamma, p.B, p.omega
    if abs(w * T) < _SERIES_BELOW:
        gap = (w * T) ** 3 * np.polyval(_SIN_GAP_SERIES, (w * T) ** 2)
    else:
        x = 2 * w * T
        gap = x - np.sin(x)
    return g**4 * B**2 * T**4 / (16 * w**2) * gap**2


def qcrb(f: Qfim2, repetitions: int = 1) -> CovBound:
    """Covariance bound (1/M) F^{-1}; raises on a singular QFIM."""
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    if f.is_singular():
        raise SingularQfimError(
            "QFIM is singular: joint estimation unattainable")
    d = f.det()
    m = float(repetitions)
    return CovBound(var_b=f.f_ww / (d * m), var_w=f.f_bb / (d * m),
                    cov_bw=-f.f_bw / (d * m), repetitions=repetitions)


# ---------------------------------------------------------------------------
# long-time convergence
# ---------------------------------------------------------------------------

def _specnorm2(h: np.ndarray) -> float:
    return float(np.linalg.norm(h, 2))


def relative_error_curves(p: FieldParams, omega_t_values) -> dict[str, np.ndarray]:
    """Relative errors of generators and QFIM entries vs their limits.

    Returns a dict of arrays keyed 'omega_t', 'dh_b', 'dh_omega', 'df_bb',
    'df_ww', 'df_bw'. Deviations are exact-minus-asymptotic, normalized by
    the asymptotic values (the off-diagonal one by sqrt(F_BB * F_ww)).
    All entries depend on omega*T only. Requires omega*T > 2*pi and B > 0.
    """
    xs = np.asarray(omega_t_values, dtype=float)
    if np.any(xs <= 2 * np.pi):
        raise ValueError("omega*T values must exceed 2*pi")
    if p.B <= 0:
        raise ValueError("frequency curves require B > 0")
    out = {k: np.empty_like(xs) for k in
           ("omega_t", "dh_b", "dh_omega", "df_bb", "df_ww", "df_bw")}
    out["omega_t"] = xs
    for i, x in enumerate(xs):
        q = FieldParams.matched(B=p.B, omega=x, gamma=p.gamma)  # T = 1
        exact = generator_closed_form(q, 1.0, "exact")
        limit = generator_closed_form(q, 1.0, "asymptotic")
        out["dh_b"][i] = (_specnorm2(exact.h_b - limit.h_b)
                          / _specnorm2(limit.h_b))
        out["dh_omega"][i] = (_specnorm2(exact.h_omega - limit.h_omega)
                              / _specnorm2(limit.h_omega))
        f = qfim_closed_form(q, 1.0)
        fbb_inf = q.gamma**2
        fww_inf = q.gamma**2 * q.B**2 / 4
        out["df_bb"][i] = abs(f.f_bb - fbb_inf) / fbb_inf
        out["df_ww"][i] = abs(f.f_ww - fww_inf) / fww_inf
        out["df_bw"][i] = abs(f.f_bw) / np.sqrt(fbb_inf * fww_inf)
    return out


# ---------------------------------------------------------------------------
# probe optimality
# ---------------------------------------------------------------------------

def probe_overlap(probe: np.ndarray, u_rel: np.ndarray) -> float:
    """Fidelity |Tr(rho_S u_rel)| of a probe under a relative rotation.

    rho_S is the reduced state of the first qubit; u_rel must be unitary.
    """
    if not is_unitary(u_rel, 1e-10):
        raise ValueError("u_rel must be unitary")
    rho_s = partial_trace(density(probe), keep="first")
    return float(abs(np.trace(rho_s @ u_rel)))


def probe_overlap_closed_form(probe: np.ndarray, u_rel: np.ndarray) -> float:
    """Same overlap via the rotation-angle/axis form of u_rel.

    Writing u_rel = e^{i a0} exp(-i a n.sigma), the overlap equals
    sqrt(cos^2 a + (r11 - r22)^2 sin^2 a) with r the reduced probe state
    expressed in the eigenbasis of n.sigma.
    """
    if not is_unitary(u_rel, 1e-10):
        raise ValueError("u_rel must be unitary")
    u = np.asarray(u_rel, dtype=complex)
    phase = np.angle(np.linalg.det(u)) / 2.0
    u0 = u * np.exp(-1j * phase)  # now in SU(2)
    cos_a = float(np.clip(np.trace(u0).real / 2.0, -1.0, 1.0))
    k = (u0 - u0.conj().T) / (-2.0j)  # sin(a) * n.sigma, Hermitian traceless
    sin_a = float(np.linalg.norm(k, 2))
    rho_s = partial_trace(density(probe), keep="first")
    if sin_a < 1e-14:
        return abs(cos_a)
    _, vecs = np.linalg.eigh(k / sin_a)
    rho_t = vecs.conj().T @ rho_s @ vecs
    pop_diff = float((rho_t[0, 0] - rho_t[1, 1]).real)
    return float(np.sqrt(cos_a**2 + pop_diff**2 * sin_a**2))


def sample_probe_determinants(gen: GeneratorPair, n_samples: int,
                              seed: int) -> np.ndarray:
    """det(QFIM) over Haar-random two-qubit probes.

    Each sample uses an independent generator seeded by (seed, index) so
    partitions of the index range reproduce identically.
    """
    dets = np.empty(n_samples)
    for i in range(n_samples):
        rng = np.random.default_rng([seed, i])
        psi = haar_state(4, rng)
        dets[i] = qfim_from_generators(psi, gen, ancilla=True).det()
    return dets


def bell_probe_determinant(gen: GeneratorPair) -> float:
    return qfim_from_generators(bell_state("phi+"), gen, ancilla=True).det()


# ---------------------------------------------------------------------------
# classical Fisher information of a measurement
# ---------------------------------------------------------------------------

def _central_diff(prob_fn, b: float, w: float, db: float, dw: float):
    pb = (np.asarray(prob_fn(b + db, w)) - np.asarray(prob_fn(b - db, w))) / (2 * db)
    pw = (np.asarray(prob_fn(b, w + dw)) - np.asarray(prob_fn(b, w - dw))) / (2 * dw)
    return pb, pw


def classical_fim(prob_fn, at: FieldParams,
                  step: tuple[float | None, float | None] = (None, None)) -> Qfim2:
    """Classical Fisher matrix F_ab = sum_i (d_a p_i)(d_b p_i)/p_i.

    Derivatives are central finite differences of ``prob_fn(B, omega)``.
    Default steps are 1e-4 relative; a Richardson-refined estimate is used
    when halving the step moves the result by more than 1e-4 relative.
    Raises if any outcome probability is non-positive at the base point.
    """
    db = step[0] if step[0] is not None else 1e-4 * at.B
    dw = step[1] if step[1] is not None else 1e-4 * at.omega
    if db <= 0 or dw <= 0:
        raise ValueError("finite-difference steps must be positive")
    p0 = np.asarray(prob_fn(at.B, at.omega), dtype=float)
    for i, pi in enumerate(p0):
        if pi <= 0:
            raise ValueError(f"outcome {i} has non-positive probability {pi!r}")
    d1b, d1w = _central_diff(prob_fn, at.B, at.omega, db, dw)
    d2b, d2w = _central_diff(prob_fn, at.B, at.omega, db / 2, dw / 2)

    def pick(d1, d2):
        scale = max(np.max(np.abs(d1)), np.max(np.abs(d2)), 1e-300)
        if np.max(np.abs(d1 - d2)) / scale > 1e-4:
            return (4.0 * d2 - d1) / 3.0
        return d2

    grads = np.array([pick(d1b, d2b), pick(d1w, d2w)])
    f = (grads / p0) @ grads.T
    return Qfim2(f_bb=f[0, 0], f_bw=f[0, 1], f_ww=f[1, 1])

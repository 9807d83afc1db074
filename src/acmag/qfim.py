"""Quantum Fisher information matrix for joint (B, omega) estimation.

For a pure probe evolving unitarily, the QFIM entries are four times the
covariance of the Heisenberg-picture generators. This module assembles the
matrix from generators and probes, provides the phi = 0 matched-control
closed forms and their determinant, the Cramer-Rao covariance bound, the
relative errors with respect to the long-time limit, the classical Fisher
matrix of a measurement, and a Haar-random probe search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (FieldParams, GeneratorPair, _check_phi_zero,
                       _generator_coeffs)
from .linalg import (I2, bell_state, density, index_normals, is_unitary,
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

    def _scaled(self):
        """The entries over s = 2^e >= max|F_ij| (e = 0 for the zero
        matrix), and e; entries may be arrays. A power of two scales
        exactly while no entry falls below the normal range, so det,
        is_singular and qcrb round as F's own arithmetic would wherever
        that stays finite, and still answer for any finite F."""
        m = np.maximum(np.maximum(np.abs(self.f_bb), np.abs(self.f_bw)),
                       np.abs(self.f_ww))
        e = np.frexp(m)[1]
        return [np.ldexp(x, -e) for x in (self.f_bb, self.f_bw, self.f_ww)], e

    def det(self) -> float:
        """f_bb f_ww - f_bw^2, inf where it overflows a float."""
        (a, b, c), e = self._scaled()
        with np.errstate(over="ignore"):
            return np.ldexp(a * c - b * b, 2 * e)

    def is_singular(self) -> bool:
        """det <= 1e-10 max|F_ij|^2: a scale-free rule that also holds for
        the zero matrix, rounding's negative determinants and NaN entries."""
        (a, b, c), _ = self._scaled()
        return not (a * c - b * b > 1e-10 * max(abs(a), abs(b), abs(c))**2)


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
    A stack of probes (..., d) gives a Qfim2 of arrays over the stack.
    """
    probe = np.asarray(probe, dtype=complex)
    if ancilla:
        if probe.shape[-1] != 4:
            raise ValueError("ancilla-assisted probe must be two-qubit")
        hb = tensor(gen.h_b, I2)
        hw = tensor(gen.h_omega, I2)
    else:
        if probe.shape[-1] != gen.h_b.shape[0]:
            raise ValueError("probe dimension does not match the generators")
        hb, hw = gen.h_b, gen.h_omega
    return Qfim2(f_bb=4.0 * pure_cov(probe, hb, hb),
                 f_bw=4.0 * pure_cov(probe, hb, hw),
                 f_ww=4.0 * pure_cov(probe, hw, hw))


def _gram(bx, by, wx, wy):
    """(f_bb, f_bw, f_ww, det) of the Bell-probe QFIM of the generators
    b_x sx + b_y sy and w_x sx + w_y sy.

    The Bell probe's reduced state is I/2, so F = 4 Cov(h_a, h_b) is four
    times the Gram matrix of the coefficients, and det F = 16 (b_x w_y -
    b_y w_x)^2 vanishes only for parallel generators.
    """
    return (4 * (bx * bx + by * by), 4 * (bx * wx + by * wy),
            4 * (wx * wx + wy * wy), 16 * (bx * wy - by * wx) ** 2)


def _closed_form(g, B, w, T):
    """(f_bb, f_bw, f_ww, det) of the matched-control Bell-probe QFIM, the
    Gram form of _generator_coeffs; the arguments broadcast."""
    return _gram(*_generator_coeffs(g, B, w, T))


def qfim_closed_form(p: FieldParams, T: float) -> Qfim2:
    """Exact matched-control QFIM for the Bell probe.

    Reduces to diag(gamma^2 T^2, gamma^2 B^2 T^4 / 4) as omega*T -> inf.
    The entries are the Gram form of the closed-form generator coefficients.
    Raises OverflowError when an entry overflows a float.
    """
    _check_phi_zero(p)
    with np.errstate(all="ignore"):  # reported below, with the T
        f_bb, f_bw, f_ww, _ = _closed_form(p.gamma, p.B, p.omega, T)
    if not np.all(np.isfinite([f_bb, f_bw, f_ww])):
        raise OverflowError(f"QFIM entries overflow a float at T = {T}")
    return Qfim2(f_bb=float(f_bb), f_bw=float(f_bw), f_ww=float(f_ww))


def qfim_determinant(p: FieldParams, T: float) -> float:
    """det F = gamma^4 B^2 T^4 / (16 omega^2) * (2 omega T - sin 2 omega T)^2.

    Strictly positive for T > 0 with nonzero B and omega, since
    sin(x) < x for all x > 0. Evaluated as 16 (b_x w_y - b_y w_x)^2 from the
    generator coefficients, whose small-omega*T series live in dynamics.
    Raises OverflowError when it overflows a float.
    """
    _check_phi_zero(p)
    with np.errstate(all="ignore"):  # reported below, with the T
        det = float(_closed_form(p.gamma, p.B, p.omega, T)[3])
    if not np.isfinite(det):
        raise OverflowError(f"QFIM determinant overflows a float at T = {T}")
    return det


def qcrb(f: Qfim2, repetitions: int = 1) -> CovBound:
    """Covariance bound (1/M) F^{-1}; raises on a singular QFIM."""
    if repetitions < 1:
        raise ValueError("repetitions must be a positive integer")
    if f.is_singular():
        raise SingularQfimError(
            "QFIM is singular: joint estimation unattainable")
    # F^-1 = (F/s)^-1 / s
    (a, b, c), e = f._scaled()
    d = (a * c - b * b) * float(repetitions)
    with np.errstate(over="ignore"):
        var_b, var_w, cov_bw = (float(np.ldexp(x / d, -e))
                                for x in (c, a, -b))
    return CovBound(var_b=var_b, var_w=var_w, cov_bw=cov_bw,
                    repetitions=repetitions)


# ---------------------------------------------------------------------------
# long-time convergence
# ---------------------------------------------------------------------------

def relative_error_curves(p: FieldParams, omega_t_values) -> dict[str, np.ndarray]:
    """Relative errors of generators and QFIM entries vs their limits.

    Returns a dict of arrays keyed 'omega_t', 'dh_b', 'dh_omega', 'df_bb',
    'df_ww', 'df_bw'. Deviations are exact-minus-asymptotic, normalized by
    the asymptotic values (the off-diagonal one by sqrt(F_BB * F_ww)); a
    generator's norm is the spectral norm, which for a real combination
    a*sigma_x + b*sigma_y is hypot(a, b). All entries depend on omega*T
    only, so they are evaluated at T = 1. Requires omega*T > 2*pi and B > 0.
    """
    _check_phi_zero(p)
    xs = np.asarray(omega_t_values, dtype=float)
    if not np.all(xs > 2 * np.pi):  # NaN fails too
        raise ValueError("omega*T values must exceed 2*pi")
    if p.B <= 0:
        raise ValueError("frequency curves require B > 0")
    g, B = p.gamma, p.B
    bx, by, wx, wy = _generator_coeffs(g, B, xs, 1.0, "exact")
    lbx, _, _, lwy = _generator_coeffs(g, B, xs, 1.0, "asymptotic")
    f_bb, f_bw, f_ww, _ = _gram(bx, by, wx, wy)
    fbb_inf = g**2
    fww_inf = g**2 * B**2 / 4
    return {"omega_t": xs,
            "dh_b": np.hypot(bx - lbx, by) / abs(lbx),
            "dh_omega": np.hypot(wx, wy - lwy) / abs(lwy),
            "df_bb": np.abs(f_bb - fbb_inf) / fbb_inf,
            "df_ww": np.abs(f_ww - fww_inf) / fww_inf,
            "df_bw": np.abs(f_bw) / np.sqrt(fbb_inf * fww_inf)}


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

    Each probe is a normalized complex-normal vector drawn from an
    independent generator seeded by (seed, index), so partitions of the
    index range reproduce identically (see linalg.index_normals).
    """
    z = index_normals(seed, n_samples, 8).reshape(n_samples, 2, 4)
    psi = z[:, 0] + 1j * z[:, 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return qfim_from_generators(psi, gen, ancilla=True).det()


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
    if not (db > 0 and dw > 0):  # NaN fails too
        raise ValueError("finite-difference steps must be positive")
    p0 = np.asarray(prob_fn(at.B, at.omega), dtype=float)
    for i, pi in enumerate(p0):
        if not pi > 0:
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

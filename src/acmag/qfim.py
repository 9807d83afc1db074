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

from .dynamics import (FieldParams, GeneratorPair, _check_closed_form,
                       _generator_coeffs)
from .linalg import (I2, _check_count, bell_state, density, index_normals,
                     is_unitary, partial_trace, pure_cov, tensor)


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
        """f_bb f_ww - f_bw^2, inf where it overflows a float.

        The difference cancels where det << f_bb f_ww. Under matched
        control det falls to (omega*T)^2/16 of f_bb f_ww at small omega*T;
        at omega*T = 1e-9 (gamma = B = T = 1) it reads 0, where the Gram
        form 16 (b_x w_y - b_y w_x)^2 of qfim_determinant gives 1.1e-37."""
        (a, b, c), e = self._scaled()
        with np.errstate(over="ignore"):
            return np.ldexp(a * c - b * b, 2 * e)

    def is_singular(self):
        """det <= 1e-10 max|F_ij|^2: a scale-free rule that also holds for
        the zero matrix, rounding's negative determinants and NaN entries.
        Array entries give a bool array, scalars a bool."""
        (a, b, c), _ = self._scaled()
        m = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        singular = ~(a * c - b * b > 1e-10 * m**2)
        return singular if np.ndim(singular) else bool(singular)


@dataclass(frozen=True)
class CovBound:
    """Cramer-Rao covariance lower bound for one repetition."""

    var_b: float
    var_w: float
    cov_bw: float


def qfim_from_generators(probe: np.ndarray, gen: GeneratorPair) -> Qfim2:
    """QFIM entries 4*Cov(h_a, h_b) in the probe state.

    The probe is a two-qubit state and the generators act on the first
    qubit only (h x I). A stack of probes (..., 4) gives a Qfim2 of arrays
    over the stack.
    """
    probe = np.asarray(probe, dtype=complex)
    if probe.shape[-1] != 4:
        raise ValueError("ancilla-assisted probe must be two-qubit")
    hb = tensor(gen.h_b, I2)
    hw = tensor(gen.h_omega, I2)
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
    t = _check_closed_form(p, T)
    with np.errstate(all="ignore"):  # reported below, with the T
        f_bb, f_bw, f_ww, _ = _closed_form(p.gamma, p.B, p.omega, t)
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
    t = _check_closed_form(p, T)
    with np.errstate(all="ignore"):  # reported below, with the T
        det = float(_closed_form(p.gamma, p.B, p.omega, t)[3])
    if not np.isfinite(det):
        raise OverflowError(f"QFIM determinant overflows a float at T = {T}")
    return det


def qcrb(f: Qfim2) -> CovBound:
    """One repetition's covariance bound F^{-1}; raises on a singular QFIM."""
    if f.is_singular():
        raise SingularQfimError(
            "QFIM is singular: joint estimation unattainable")
    # F^-1 = (F/s)^-1 / s
    (a, b, c), e = f._scaled()
    d = a * c - b * b
    with np.errstate(over="ignore"):
        var_b, var_w, cov_bw = (float(np.ldexp(x / d, -e))
                                for x in (c, a, -b))
    return CovBound(var_b=var_b, var_w=var_w, cov_bw=cov_bw)


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
    _check_closed_form(p)
    xs = np.asarray(omega_t_values, dtype=float)
    if not np.all(xs > 2 * np.pi):  # NaN fails too
        raise ValueError("omega*T values must exceed 2*pi")
    if p.B <= 0:
        raise ValueError("frequency curves require B > 0")
    g, B = p.gamma, p.B
    bx, by, wx, wy = _generator_coeffs(g, B, xs, 1.0, "exact")
    lbx, _, _, lwy = _generator_coeffs(g, B, xs, 1.0, "asymptotic")
    f_bb, f_bw, f_ww, _ = _gram(bx, by, wx, wy)
    # products, not powers: g**2 * B**2 can overflow or underflow where the
    # limit does not, and so can the two limits' product
    gb = g * B
    fbb_inf = g * g
    fww_inf = 0.25 * gb * gb
    return {"omega_t": xs,
            "dh_b": np.hypot(bx - lbx, by) / abs(lbx),
            "dh_omega": np.hypot(wx, wy - lwy) / abs(lwy),
            "df_bb": np.abs(f_bb - fbb_inf) / fbb_inf,
            "df_ww": np.abs(f_ww - fww_inf) / fww_inf,
            "df_bw": np.abs(f_bw) / (np.sqrt(fbb_inf) * np.sqrt(fww_inf))}


# ---------------------------------------------------------------------------
# probe optimality
# ---------------------------------------------------------------------------

def probe_overlap(probe: np.ndarray, u_rel: np.ndarray) -> float:
    """Fidelity |Tr(rho_S u_rel)| of a probe under a relative rotation.

    rho_S is the reduced state of the first qubit; u_rel must be unitary.
    """
    if not is_unitary(u_rel):
        raise ValueError("u_rel must be unitary")
    rho_s = partial_trace(density(probe))
    return float(abs(np.trace(rho_s @ u_rel)))


def sample_probe_determinants(gen: GeneratorPair, n_samples: int,
                              seed: int) -> np.ndarray:
    """det(QFIM) over Haar-random two-qubit probes.

    Each probe is a normalized complex-normal vector drawn from an
    independent generator seeded by (seed, index), so partitions of the
    index range reproduce identically (see linalg.index_normals).
    """
    _check_count(n_samples, "n_samples")
    z = index_normals(seed, n_samples, 8).reshape(n_samples, 2, 4)
    psi = z[:, 0] + 1j * z[:, 1]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    return qfim_from_generators(psi, gen).det()


def bell_probe_determinant(gen: GeneratorPair) -> float:
    return qfim_from_generators(bell_state("phi+"), gen).det()


# ---------------------------------------------------------------------------
# classical Fisher information of a measurement
# ---------------------------------------------------------------------------

def _central_diff(prob_fn, b: float, w: float, db: float, dw: float):
    pb = (np.asarray(prob_fn(b + db, w)) - np.asarray(prob_fn(b - db, w))) / (2 * db)
    pw = (np.asarray(prob_fn(b, w + dw)) - np.asarray(prob_fn(b, w - dw))) / (2 * dw)
    return pb, pw


def classical_fim(prob_fn, at: FieldParams) -> Qfim2:
    """Classical Fisher matrix F_ab = sum_i (d_a p_i)(d_b p_i)/p_i.

    Derivatives are central finite differences of ``prob_fn(B, omega)``,
    steps 1e-4 relative; a Richardson-refined estimate is used when halving
    the step moves the result by more than 1e-4 relative. Raises if a step
    is 0 (B = 0) or any outcome probability is non-positive at the base.
    """
    db, dw = 1e-4 * at.B, 1e-4 * at.omega
    if not (db > 0 and dw > 0):  # B = 0, or B or omega under 2.5e-320
        raise ValueError("finite-difference steps 1e-4 B and 1e-4 omega must "
                         f"be positive, got B = {at.B}, omega = {at.omega}")
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

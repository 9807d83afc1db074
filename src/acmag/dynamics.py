"""Time-dependent Hamiltonians, midpoint propagation, and estimation generators.

The drive model is a linearly polarized AC field

    H_target(t) = gamma * B * cos(omega*t + phi) * sigma_x

with an optional control term

    H_control(t) = -gamma * B_c * cos(omega_c*t + phi_c) * sigma_x
                   + (omega_c / 2) * sigma_z.

With matched control (B_c, omega_c, phi_c) = (B, omega, phi) the total
collapses to a pure sigma_z rotation, which is the regime where the
closed-form generators below apply.

Units: angular frequencies in rad/us, times in us, amplitudes in Gauss,
coupling gamma in rad/(us*Gauss). Matrix entries are treated as
dimensionless once these are multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, is_hermitian, max_abs


class ConvergenceError(RuntimeError):
    """Raised when a requested step-halving consistency check fails."""


@dataclass(frozen=True)
class FieldParams:
    """Target and control AC-field parameters.

    B, B_c in Gauss; omega, omega_c in rad/us; phi, phi_c in rad;
    gamma in rad/(us*Gauss). omega_c defaults to omega when omitted.
    """

    B: float
    omega: float
    phi: float = 0.0
    B_c: float = 0.0
    omega_c: float | None = None
    phi_c: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.omega_c is None:
            object.__setattr__(self, "omega_c", self.omega)
        if self.B < 0 or self.B_c < 0:
            raise ValueError("field amplitudes must be non-negative")
        if self.omega <= 0 or self.omega_c <= 0:
            raise ValueError("angular frequencies must be positive")
        if self.gamma <= 0:
            raise ValueError("coupling gamma must be positive")

    @classmethod
    def matched(cls, B: float, omega: float, phi: float = 0.0,
                gamma: float = 1.0) -> "FieldParams":
        """Control locked to the target parameters (the optimal setting)."""
        return cls(B=B, omega=omega, phi=phi, B_c=B, omega_c=omega,
                   phi_c=phi, gamma=gamma)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid over [t_start, t_end] with `steps` midpoints."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("t_end must exceed t_start")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def midpoints(self) -> np.ndarray:
        return self.t_start + (np.arange(self.steps) + 0.5) * self.dt


@dataclass(frozen=True)
class GeneratorPair:
    """Hermitian sensitivity generators for the amplitude and the frequency."""

    h_b: np.ndarray
    h_omega: np.ndarray

    def __post_init__(self):
        for h in (self.h_b, self.h_omega):
            if not is_hermitian(h, 1e-10):
                raise ValueError("generators must be Hermitian")


def _drive_coeffs(p: FieldParams, t, which: str):
    """sigma_x, sigma_z coefficients of the target, control or total H(t)."""
    if which not in ("target", "control", "total"):
        raise ValueError(f"which must be 'target', 'control' or 'total', got {which!r}")
    fx = fz = np.zeros_like(t, dtype=float)
    if which != "control":
        fx = p.gamma * p.B * np.cos(p.omega * t + p.phi)
    if which != "target":
        fx = fx - p.gamma * p.B_c * np.cos(p.omega_c * t + p.phi_c)
        fz = np.full_like(t, 0.5 * p.omega_c, dtype=float)
    return fx, fz


def hamiltonian_eval(p: FieldParams, which: str, t: float) -> np.ndarray:
    """Evaluate the target, control, or total Hamiltonian at time t."""
    if t < 0:
        raise ValueError("time must be non-negative")
    fx, fz = _drive_coeffs(p, t, which)
    return fx * SIGMA_X + fz * SIGMA_Z


# ---------------------------------------------------------------------------
# vectorized step machinery
# ---------------------------------------------------------------------------

def _su2_exp(ax: np.ndarray, ay: np.ndarray, az: np.ndarray,
             dt) -> np.ndarray:
    """Batched exp(-i*(ax*sx + ay*sy + az*sz)*dt) as an (..., 2, 2) array.

    The coefficients and the step length dt broadcast against each other.
    """
    r = np.sqrt(ax * ax + ay * ay + az * az)
    phase = r * dt
    c = np.cos(phase)
    # sin(r*dt)/r, continuous at r=0
    s = np.where(r > 0.0, np.sin(phase) / np.where(r > 0.0, r, 1.0), dt)
    u = np.empty(np.broadcast(ax, ay, az).shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * az * s
    u[..., 1, 1] = c + 1j * az * s
    u[..., 0, 1] = (-1j * ax - ay) * s
    u[..., 1, 0] = (-1j * ax + ay) * s
    return u


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched 2x2 matrix product, faster than matmul for tiny matrices."""
    out = np.empty(np.broadcast(a[..., 0, 0], b[..., 0, 0]).shape + (2, 2),
                   dtype=complex)
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def _product_reduce(units: np.ndarray) -> np.ndarray:
    """Ordered product of 2x2 step unitaries (time order along axis 0).

    Later steps multiply from the left: result = U[n-1] @ ... @ U[0].
    Axes between the first and the last two are independent batches.
    """
    while units.shape[0] > 1:
        n = units.shape[0]
        even = units[0 : n - n % 2 : 2]
        odd = units[1 : n : 2]
        merged = _mul2(odd, even)
        if n % 2:
            merged = np.concatenate([merged, units[-1:]], axis=0)
        units = merged
    return units[0]


def propagate(h, grid: TimeGrid) -> np.ndarray:
    """Time-ordered midpoint propagator for a 2x2 Hamiltonian function h(t).

    Each step contributes exp(-i*h(t_mid)*dt); later steps are applied on
    the left. Converges at second order in the step size. Every sampled
    matrix must be 2x2 and Hermitian within 1e-10.
    """
    mids = grid.midpoints()
    hs = np.stack([np.asarray(h(t), dtype=complex) for t in mids])
    if hs.shape[1:] != (2, 2):
        raise ValueError(
            f"propagate requires 2x2 Hamiltonians, got {hs.shape[1:]}")
    if max_abs(hs - np.swapaxes(hs.conj(), -1, -2)) > 1e-10:
        raise ValueError("propagate sampled a non-Hermitian Hamiltonian")
    ax = hs[:, 0, 1].real
    ay = -hs[:, 0, 1].imag
    az = 0.5 * (hs[:, 0, 0] - hs[:, 1, 1]).real
    a0 = 0.5 * (hs[:, 0, 0] + hs[:, 1, 1]).real
    units = _su2_exp(ax, ay, az, grid.dt)
    units *= np.exp(-1j * a0 * grid.dt)[:, None, None]
    return _product_reduce(units)


# ---------------------------------------------------------------------------
# estimation generators
# ---------------------------------------------------------------------------

def _dtheta_coeff(p: FieldParams, theta: str, t: np.ndarray) -> np.ndarray:
    """sigma_x coefficient of the target-Hamiltonian derivative."""
    if theta == "B":
        return p.gamma * np.cos(p.omega * t + p.phi)
    if theta == "omega":
        return -p.gamma * p.B * t * np.sin(p.omega * t + p.phi)
    raise ValueError(f"theta must be 'B' or 'omega', got {theta!r}")


def _generator_quadrature(p: FieldParams, theta: str, grid: TimeGrid,
                          control: bool) -> np.ndarray:
    """Midpoint quadrature of U(0->t)^dag dH/dtheta U(0->t) over the grid.

    The step propagators and the integrand share one midpoint grid.
    Implemented as a chunked prefix scan so large grids stay vectorized.
    """
    n = grid.steps
    dt = grid.dt
    mids = grid.midpoints()
    fx, fz = _drive_coeffs(p, mids, "total" if control else "target")
    m = _dtheta_coeff(p, theta, mids)

    zeros = np.zeros_like(fx)
    full = _su2_exp(fx, zeros, fz, dt)
    half = _su2_exp(fx, zeros, fz, dt / 2.0)

    chunks = int(np.clip(int(np.sqrt(n)), 1, 8192))
    length = -(-n // chunks)  # ceil
    pad = chunks * length - n
    if pad:
        eye = np.broadcast_to(np.eye(2, dtype=complex), (pad, 2, 2))
        full = np.concatenate([full, eye])
        half = np.concatenate([half, eye])
        m = np.concatenate([m, np.zeros(pad)])
    full = full.reshape(chunks, length, 2, 2)
    half = half.reshape(chunks, length, 2, 2)
    m = m.reshape(chunks, length)

    prefix = np.broadcast_to(np.eye(2, dtype=complex), (chunks, 2, 2)).copy()
    acc = np.zeros((chunks, 2, 2), dtype=complex)
    sx = np.broadcast_to(SIGMA_X, (chunks, 2, 2))
    for j in range(length):
        vm = _mul2(half[:, j], prefix)  # prefix up to the step midpoint
        vd = np.swapaxes(vm.conj(), -1, -2)
        acc += (dt * m[:, j])[:, None, None] * _mul2(vd, _mul2(sx, vm))
        prefix = _mul2(full[:, j], prefix)

    # stitch chunk-local integrals with the cross-chunk prefixes
    total = np.zeros((2, 2), dtype=complex)
    left = np.eye(2, dtype=complex)
    for c in range(chunks):
        total += left.conj().T @ acc[c] @ left
        left = prefix[c] @ left
    return 0.5 * (total + total.conj().T)


def generator_numeric(p: FieldParams, theta: str, grid: TimeGrid,
                      control: bool = True,
                      check_tol: float | None = None) -> np.ndarray:
    """Numerical Heisenberg-picture generator h_theta over [0, T].

    ``control`` selects whether the propagation runs under the total
    (target + control) Hamiltonian or under the bare target field. With
    ``check_tol`` set, the grid is re-run at half resolution and a
    ConvergenceError is raised if the two results differ by more than the
    tolerance (max absolute entry).
    """
    g = _generator_quadrature(p, theta, grid, control)
    if check_tol is not None:
        coarse = TimeGrid(grid.t_start, grid.t_end, max(1, grid.steps // 2))
        g2 = _generator_quadrature(p, theta, coarse, control)
        if max_abs(g - g2) > check_tol:
            raise ConvergenceError(
                f"step-halving discrepancy {max_abs(g - g2):.3e} exceeds "
                f"{check_tol:.3e}; refine the grid")
    return g


def _generator_coeffs(g, B, w, T, mode: str = "exact"):
    """sigma_x and sigma_y coefficients (b_x, b_y, w_x, w_y) of h_B and h_omega.

    Matched control with phi = 0; the arguments broadcast against each
    other. The asymptotic mode gives (gamma*T/2, 0) and (0, gamma*B*T^2/4).
    """
    if mode == "asymptotic":
        return 0.5 * g * T, 0.0, 0.0, 0.25 * g * B * T * T
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    s = np.sin(2 * w * T)
    c = np.cos(2 * w * T)
    return (0.5 * g * (T + s / (2 * w)),
            -(0.5 * g * ((1 - c) / (2 * w))),
            -0.5 * g * B * (-T * c / (2 * w) + s / (4 * w * w)),
            0.5 * g * B * (T * T / 2 - T * s / (2 * w) - (c - 1) / (4 * w * w)))


def generator_closed_form(p: FieldParams, T: float,
                          mode: str = "exact") -> GeneratorPair:
    """Generators under matched control, exact or in the long-time limit.

    The exact expressions assume phi = 0 and matched control. The
    asymptotic mode returns (gamma*T/2) sigma_x and (gamma*B*T^2/4) sigma_y.
    Raises OverflowError when a coefficient overflows a float.
    """
    bx, by, wx, wy = _generator_coeffs(p.gamma, p.B, p.omega, T, mode)
    if not np.all(np.isfinite([bx, by, wx, wy])):
        raise OverflowError(f"generator coefficients overflow a float at T = {T}")
    return GeneratorPair(h_b=bx * SIGMA_X + by * SIGMA_Y,
                         h_omega=wx * SIGMA_X + wy * SIGMA_Y)

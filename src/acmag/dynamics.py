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


def _drive_coeffs(p: FieldParams, t, control: bool):
    """sigma_x, sigma_z coefficients of the target H(t), or with ``control``
    of the total target + control H(t)."""
    fx = p.gamma * p.B * np.cos(p.omega * t + p.phi)
    if not control:
        return fx, 0.0
    return (fx - p.gamma * p.B_c * np.cos(p.omega_c * t + p.phi_c),
            0.5 * p.omega_c)


# ---------------------------------------------------------------------------
# vectorized step machinery: every step propagator is in SU(2), so the
# kernels carry the pair (a, b) that stands for [[a, -b*], [b, a*]], stacked
# on a leading axis of length 2
# ---------------------------------------------------------------------------

_SCAN_BLOCK = 64


def _su2_exp(ax: np.ndarray, ay: np.ndarray, az: np.ndarray,
             dt) -> np.ndarray:
    """Batched exp(-i*(ax*sx + ay*sy + az*sz)*dt) as a (2, ...) SU(2) pair.

    The coefficients and the step length dt broadcast against each other.
    """
    with np.errstate(over="ignore"):
        r2 = ax * ax + ay * ay + az * az
    r = np.sqrt(r2)
    # squares of coefficients below ~1e-154 underflow and above ~1e154
    # overflow; hypot does neither, but costs several sqrt per element, so
    # it only runs on a batch that needs it
    if not np.finfo(float).tiny <= np.min(r2) <= np.max(r2) < np.inf:
        r = np.where((r2 < np.finfo(float).tiny) | (r2 == np.inf),
                     np.hypot(np.hypot(ax, ay), az), r)
    phase = r * dt
    # sin(r*dt)/r, continuous at r=0
    s = np.where(r > 0.0, np.sin(phase) / np.where(r > 0.0, r, 1.0), dt)
    q = np.empty((2,) + np.shape(s), dtype=complex)
    q.real[0], q.imag[0] = np.cos(phase), -az * s
    q.real[1], q.imag[1] = ay * s, -ax * s
    return q


def _su2_mul(p: np.ndarray, q: np.ndarray, out=None) -> np.ndarray:
    """Batched product p @ q of SU(2) pairs; trailing axes broadcast.

    ``out``, when given, receives the product and must not overlap p or q.
    """
    (a1, b1), (a2, b2) = p, q
    if out is None:
        out = np.empty((2,) + np.broadcast(a1, a2).shape, dtype=complex)
    np.multiply(a1, a2, out=out[0])
    out[0] -= np.conj(b1) * b2
    np.multiply(b1, a2, out=out[1])
    out[1] += np.conj(a1) * b2
    return out


def _su2_matrix(q: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) matrices [[a, -b*], [b, a*]] of SU(2) pairs."""
    a, b = q
    return np.stack([np.stack([a, -np.conj(b)], -1),
                     np.stack([b, np.conj(a)], -1)], -2)


def _product_reduce(q: np.ndarray) -> np.ndarray:
    """Ordered product of SU(2) step pairs (time order along axis 1).

    Later steps multiply from the left: result = q[n-1] @ ... @ q[0].
    Axes after the second are independent batches.
    """
    while q.shape[1] > 1:
        n = q.shape[1]
        merged = _su2_mul(q[:, 1:n:2], q[:, 0 : n - n % 2 : 2])
        if n % 2:
            merged = np.concatenate([merged, q[:, -1:]], axis=1)
        q = merged
    return q[:, 0]


def _prefix_products(q: np.ndarray) -> np.ndarray:
    """Inclusive prefix products q[j] @ ... @ q[0] of a (2, n) pair array.

    Blocked scan: a loop over the steps of each block of _SCAN_BLOCK,
    vectorized across blocks, then a recursion on the block totals whose
    prefixes multiply every later block at once.
    """
    n = q.shape[1]
    blocks = -(-n // _SCAN_BLOCK)
    last = n - (blocks - 1) * _SCAN_BLOCK
    # step j of block k at [:, j, k], so each step of the loop is contiguous;
    # identities pad the last block
    x = np.empty((2, _SCAN_BLOCK, blocks), dtype=complex)
    by_block = x.transpose(0, 2, 1)
    by_block[:, :-1] = q[:, : n - last].reshape(2, blocks - 1, _SCAN_BLOCK)
    by_block[:, -1, :last] = q[:, n - last :]
    by_block[:, -1, last:] = ((1.0,), (0.0,))
    for j in range(1, _SCAN_BLOCK):
        x[:, j] = _su2_mul(x[:, j], x[:, j - 1])
    local = np.ascontiguousarray(by_block)
    # back in time order; x's buffer takes the result once the block
    # totals have been scanned
    out = x.reshape(local.shape)
    if blocks > 1:
        offsets = _prefix_products(x[:, -1, :-1])
        _su2_mul(local[:, 1:], offsets[:, :, None], out=out[:, 1:])
    out[:, 0] = local[:, 0]
    return out.reshape(2, -1)[:, :n]


def propagate(h, grid: TimeGrid) -> np.ndarray:
    """Time-ordered midpoint propagator of a 2x2 Hamiltonian function h.

    h is called once, on the grid's midpoints, and returns a (steps, 2, 2)
    stack or one 2x2 matrix for every step, Hermitian within 1e-10. Each
    step contributes exp(-i*h(t_mid)*dt); later steps are applied on the
    left. Converges at second order in the step size.
    """
    hs = np.asarray(h(grid.midpoints()), dtype=complex)
    if hs.shape not in ((2, 2), (grid.steps, 2, 2)):
        raise ValueError("propagate requires 2x2 Hamiltonians, one per step "
                         f"or one for all, got shape {hs.shape}")
    if max_abs(hs - np.swapaxes(hs.conj(), -1, -2)) > 1e-10:
        raise ValueError("propagate sampled a non-Hermitian Hamiltonian")
    hs = np.broadcast_to(hs, (grid.steps, 2, 2))
    ax, ay = hs[:, 0, 1].real, -hs[:, 0, 1].imag
    az = 0.5 * (hs[:, 0, 0] - hs[:, 1, 1]).real
    a0 = 0.5 * (hs[:, 0, 0] + hs[:, 1, 1]).real
    u = _su2_matrix(_product_reduce(_su2_exp(ax, ay, az, grid.dt)))
    return np.exp(-1j * np.sum(a0) * grid.dt) * u


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

    The step propagators and the integrand share one midpoint grid: with
    half steps h_j and prefixes P_j = h_j h_j ... h_0 h_0, the midpoint
    propagator is V_j = h_j P_(j-1), and V^dag sx V has the sx, sy, sz
    coefficients (Re(a^2 - b^2), Im(a^2 - b^2), 2 Re(a* b)) of V = (a, b).
    """
    mids = grid.midpoints()
    fx, fz = _drive_coeffs(p, mids, control)
    w = grid.dt * _dtheta_coeff(p, theta, mids)
    half = _su2_exp(fx, 0.0, fz, 0.5 * grid.dt)
    steps = np.empty_like(half)
    steps[:, 0] = (1.0, 0.0)
    _su2_mul(half[:, :-1], half[:, :-1], out=steps[:, 1:])
    a, b = _su2_mul(half, _prefix_products(steps))
    x_iy = a @ (w * a) - b @ (w * b)
    z = 2.0 * np.vdot(a, w * b).real
    return x_iy.real * SIGMA_X + x_iy.imag * SIGMA_Y + z * SIGMA_Z


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


# Taylor series in x = omega*T (coefficients of x^2k, highest first) of
# w_x/(g B T^2 x) and w_y/(g B T^2 x^2), used below x = 0.5 where the
# closed forms cancel
_SERIES_BELOW = 0.5
_W_X_SERIES = (-2 / 206239658625, 8 / 10854718875, -4 / 91216125,
               4 / 2027025, -2 / 31185, 4 / 2835, -2 / 105, 2 / 15, -1 / 3)
_W_Y_SERIES = (1 / 976924698750, -1 / 11493231750, 1 / 170270100,
               -1 / 3274425, 1 / 85050, -1 / 3150, 1 / 180, -1 / 18, 1 / 4)


def _generator_coeffs(g, B, w, T, mode: str = "exact"):
    """sigma_x and sigma_y coefficients (b_x, b_y, w_x, w_y) of h_B and h_omega.

    Matched control with phi = 0; the arguments broadcast against each
    other. The asymptotic mode gives (gamma*T/2, 0) and (0, gamma*B*T^2/4).
    Below omega*T = 0.5, w_x and w_y come from their Taylor series.
    """
    if mode == "asymptotic":
        return 0.5 * g * T, 0.0, 0.0, 0.25 * g * B * T * T
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    x = w * T
    s = np.sin(2 * x)
    c = np.cos(2 * x)
    sin2 = np.sin(x) ** 2  # (1 - cos 2x) / 2 without the cancellation
    bx = 0.5 * g * (T + s / (2 * w))
    by = -(0.5 * g * (sin2 / w))
    wx = -0.5 * g * B * (-T * c / (2 * w) + s / (4 * w * w))
    wy = 0.5 * g * B * (T * T / 2 - T * s / (2 * w) + sin2 / (2 * w * w))
    small = np.abs(x) < _SERIES_BELOW
    if np.any(small):
        shape = np.shape(small)
        wx, wy = (np.array(np.broadcast_to(v, shape)) for v in (wx, wy))
        scale, xs = (np.broadcast_to(v, shape)[small]
                     for v in (g * B * T * T, x))
        wx[small] = scale * xs * np.polyval(_W_X_SERIES, xs * xs)
        wy[small] = scale * xs * xs * np.polyval(_W_Y_SERIES, xs * xs)
    return bx, by, wx, wy


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

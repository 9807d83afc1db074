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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, is_hermitian, max_abs


class ConvergenceError(RuntimeError):
    """Raised when a requested step-halving consistency check fails."""


def _check_finite(record, names: tuple[str, ...]) -> None:
    """Raise ValueError naming the first of ``names`` that is NaN or
    infinite, which every comparison below would let through."""
    for name in names:
        if not math.isfinite(getattr(record, name)):
            raise ValueError(f"{name} must be finite, got "
                             f"{getattr(record, name)}")


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
        _check_finite(self, ("B", "B_c", "omega", "omega_c", "gamma"))
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
        _check_finite(self, ("t_start", "t_end"))
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
        if not is_hermitian(np.stack([self.h_b, self.h_omega])):
            raise ValueError("generators must be Hermitian")


# ---------------------------------------------------------------------------
# vectorized step machinery: every step propagator is in SU(2), so the
# kernels carry the pair (a, b) that stands for [[a, -b*], [b, a*]], stacked
# on a leading axis of length 2
# ---------------------------------------------------------------------------

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
    # it only runs on a batch with a nonzero triple that needs it (an
    # exactly zero one is the identity as it stands)
    tiny = np.finfo(float).tiny
    if not tiny <= np.min(r2) <= np.max(r2) < np.inf:
        bad = (r2 == np.inf) | ((r2 < tiny)
                                & ((ax != 0.0) | (ay != 0.0) | (az != 0.0)))
        if np.any(bad):
            r = np.where(bad, np.hypot(np.hypot(ax, ay), az), r)
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


def _su2_pow(q: np.ndarray, n) -> np.ndarray:
    """Batched power q**n of SU(2) pairs for integers n >= 0, in closed form.

    q = cos(th) - i sin(th) m.sigma has q**n = cos(n th) - i sin(n th)
    m.sigma, so a_n = cos(n th) + i Im(a) sin(n th)/sin(th) and b_n =
    b sin(n th)/sin(th), with th from atan2 of sin(th) and Re(a). When
    sin(th) is 0, Im(a) and b are too, and the ratio's value is moot.
    """
    a, b = q
    s = np.sqrt(a.imag * a.imag + b.real * b.real + b.imag * b.imag)
    nth = n * np.arctan2(s, a.real)
    ratio = np.sin(nth) / np.where(s > 0.0, s, 1.0)
    out = np.empty((2,) + np.shape(ratio), dtype=complex)
    out.real[0], out.imag[0] = np.cos(nth), a.imag * ratio
    out[1] = b * ratio
    return out


def _su2_matrix(q: np.ndarray) -> np.ndarray:
    """The (..., 2, 2) matrices [[a, -b*], [b, a*]] of SU(2) pairs."""
    a, b = q
    return np.stack([np.stack([a, -np.conj(b)], -1),
                     np.stack([b, np.conj(a)], -1)], -2)


def _prefix_products(q: np.ndarray) -> np.ndarray:
    """Inclusive prefix products q[j] @ ... @ q[0] of SU(2) pairs in time
    order along axis 1; axes after the second are independent batches.

    Pairwise scan: the odd prefixes are the scan of the neighbour products
    q[2k+1] @ q[2k], and each even prefix is its step times the odd prefix
    before it.
    """
    n = q.shape[1]
    out = np.empty_like(q)
    out[:, 0] = q[:, 0]
    if n > 1:
        odd = _prefix_products(_su2_mul(q[:, 1::2], q[:, 0 : n - 1 : 2]))
        out[:, 1::2] = odd
        _su2_mul(q[:, 2::2], odd[:, : (n - 1) // 2], out=out[:, 2::2])
    return out


# steps per _carried_step in propagate and _scan_sums: their memory is
# O(_CHUNK). On a 2-vCPU Xeon (2 MB of L2 per core) the scan ran fastest at
# 2^14 to 2^16 steps; 2^15 stays, as its sums depend on it bit for bit
_CHUNK = 2**15


def _carried_step(h: np.ndarray, carry: np.ndarray) -> tuple:
    """Midpoint propagators V_j = h_j h_(j-1)^2 ... h_0^2 of a chunk of
    half steps h_j from step s, and the pair it carries on: the prefix
    products of q_s = h_s C, q_j = h_j h_(j-1), with C = h_(s-1) V_(s-1)
    carried in (the identity at s = 0), and h_last V_last, which after the
    last chunk is h_(n-1)^2 ... h_0^2, the product of the full steps."""
    v = _prefix_products(
        _su2_mul(h, np.concatenate([carry, h[:, :-1]], axis=1)))
    return v, _su2_mul(h[:, -1:], v[:, -1:])


def propagate(h, grid: TimeGrid) -> np.ndarray:
    """Time-ordered midpoint propagator of a 2x2 Hamiltonian function h.

    h is called once, on the grid's midpoints, and returns a (steps, 2, 2)
    stack, finite and Hermitian within 1e-10; a constant Hamiltonian is
    broadcast to that shape by the caller, so a missing step axis is never
    guessed. Each step contributes exp(-i*h(t_mid)*dt), as two half steps
    _CHUNK at a time by _carried_step; later steps are applied on the left.
    Converges at second order in the step size.
    """
    hs = np.asarray(h(grid.midpoints()), dtype=complex)
    if hs.shape != (grid.steps, 2, 2):
        raise ValueError("propagate requires a (steps, 2, 2) stack of 2x2 "
                         f"Hamiltonians, got shape {hs.shape} for "
                         f"{grid.steps} steps")
    carry, trace = np.array([[1.0], [0.0]], dtype=complex), 0.0
    for s in range(0, grid.steps, _CHUNK):
        hc = hs[s : s + _CHUNK]
        if not is_hermitian(hc):
            raise ValueError("propagate sampled a non-Hermitian or non-finite "
                             "Hamiltonian")
        ax, ay = hc[:, 0, 1].real, -hc[:, 0, 1].imag
        az = 0.5 * (hc[:, 0, 0] - hc[:, 1, 1]).real
        trace += np.sum(0.5 * (hc[:, 0, 0] + hc[:, 1, 1]).real)
        _, carry = _carried_step(_su2_exp(ax, ay, az, 0.5 * grid.dt), carry)
    return np.exp(-1j * trace * grid.dt) * _su2_matrix(carry[:, 0])


# ---------------------------------------------------------------------------
# estimation generators
# ---------------------------------------------------------------------------

# length of the fixed-axis path's phase table: its work is one float
# cos/sin per table entry plus one long-double cos/sin per chunk of _TABLE
# steps. On the same Xeon, under matched control, 2^12 took 0.15 and 0.19
# ms on grids of 4e5 and 1e6 steps, the least over both (2^11: 0.13 and
# 0.22 ms; 2^13: 0.22 and 0.23 ms; 2^15: 1.1 ms each)
_TABLE = 2**12


@lru_cache(maxsize=1)
def _generator_quadrature(p: FieldParams, grid: TimeGrid,
                          control: bool) -> dict[str, np.ndarray]:
    """Midpoint quadratures of V_j^dag dH/dtheta V_j for theta = B and
    omega, dH/dtheta = gamma cos(omega t + phi) sx and -gamma B t
    sin(omega t + phi) sx, with V_j the propagator from t_start to the
    midpoint t_j.

    Fixed axis: without control H(t) is along sx, so V_j^dag sx V_j = sx
    and the generators are plain weighted sums times sx. Under matched
    control, (B_c, omega_c, phi_c) == (B, omega, phi) exactly, the sx
    terms of H(t) cancel bit for bit, H = (omega/2) sz and
    V_j^dag sx V_j = cos x_j sx - sin x_j sy at x_j = omega (t_j - t_start)
    = theta_j - theta_0, theta the target phase. The sums are taken against
    cos theta_j and sin theta_j and turned by theta_0 once at the end.
    _fixed_axis_sums takes them from four moments of one phase table, with
    no trig per step. Every table entry is still summed: only the order of
    the midpoint sum changes, so its discretization error stays.

    Any other control scans the half steps with _carried_step, and
    V^dag sx V has the sx, sy, sz coefficients (Re(a^2 - b^2),
    Im(a^2 - b^2), 2 Re(a* b)) of V = (a, b)."""
    if control and (p.B_c, p.omega_c, p.phi_c) != (p.B, p.omega, p.phi):
        c = _scan_sums(p, grid)
    else:
        c = _fixed_axis_sums(p, grid, control)
    return {theta: x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z
            for theta, (x, y, z) in zip(("B", "omega"), c)}


def _fixed_axis_sums(p: FieldParams, grid: TimeGrid,
                     control: bool) -> np.ndarray:
    """sx, sy, sz coefficients (2, 3) of h_B and h_omega from four moments
    of one phase table, for a field whose H(t) keeps one axis.

    Without control the sums are of cos theta_j and t_j sin theta_j. Under
    control they are of cos^2, sin cos, t sin cos and t sin^2 of theta_j,
    which cos^2 = (1 + cos 2x)/2, sin cos = sin 2x / 2 and sin^2 = (1 -
    cos 2x)/2 turn into sums of 1, t_j and e^(2 i theta_j). So both cases
    sum e^(i m theta_j) and t_j e^(i m theta_j). Chunk c of the grid has
    t_j = t_c + k dt and theta_j = A_c + omega dt k, and its sums are
    e^(i m A_c) times the table's sum_k e^(i m omega dt k) and t_c and dt
    times its sum_k k e^(i m omega dt k). Those moments are the same for
    every full chunk; a ragged last chunk takes its own. The work is
    O(_TABLE + steps / _TABLE), and the chunks combine as vectors."""
    dt, n = grid.dt, grid.steps
    m = 2 if control else 1
    k = np.arange(min(n, _TABLE))
    phase = m * p.omega * (dt * k)
    table = np.cos(phase) + 1j * np.sin(phase)
    starts = np.arange(0, n, k.size)
    counts = np.minimum(n - starts, k.size)
    moments = np.empty((starts.size, 2), dtype=complex)
    moments[:] = table.sum(), table @ k
    if (r := counts[-1]) < k.size:
        moments[-1] = table[:r].sum(), table[:r] @ k[:r]
    # a chunk's first midpoint t_c has phase A_c. Rounded to a float, A_c is
    # off by up to half an ulp of itself, alike for every step of the chunk:
    # on a 1e6-step grid without control at omega*T = 500 that took the sums
    # 2.6e-13 relative off their long-double values, against 3.8e-15 from a
    # long-double phase
    ld = np.longdouble
    a = m * (ld(p.omega) * (ld(grid.t_start) + (starts + ld(0.5)) * ld(dt))
             + ld(p.phi))
    # each chunk's sums of e^(i m theta_j) and of k e^(i m theta_j)
    z = moments * (np.cos(a).astype(float)
                   + 1j * np.sin(a).astype(float))[:, None]
    t_c = grid.t_start + (starts + 0.5) * dt
    plain, timed = z[:, 0].sum(), z[:, 0] @ t_c + dt * z[:, 1].sum()
    # rows: cos theta_j and t_j sin theta_j; columns: summed against
    # cos theta_j and sin theta_j under control, or alone without
    if control:
        t_sum = counts @ t_c + dt * (counts * (counts - 1) // 2).sum()
        sums = 0.5 * np.array([[n + plain.real, plain.imag],
                               [timed.imag, t_sum - timed.real]])
    else:
        sums = np.array([[plain.real, 0.0], [timed.imag, 0.0]])
    c = np.zeros((2, 3))
    c[:, :2] = [[dt * p.gamma], [-dt * p.gamma * p.B]] * sums
    if control:
        th0 = p.omega * grid.t_start + p.phi
        cos0, sin0 = np.cos(th0), np.sin(th0)
        c[:, :2] = c[:, :2] @ [[cos0, sin0], [sin0, -cos0]]
    return c


def _scan_sums(p: FieldParams, grid: TimeGrid) -> np.ndarray:
    """sx, sy, sz coefficients (2, 3) of h_B and h_omega from the chunked
    prefix scan, for a control that is not matched."""
    dt = grid.dt
    own_cos = (p.omega_c, p.phi_c) != (p.omega, p.phi)
    carry, c = np.array([[1.0], [0.0]], dtype=complex), np.zeros((2, 3))
    for s in range(0, grid.steps, _CHUNK):
        mids = grid.t_start + (np.arange(s, min(s + _CHUNK, grid.steps))
                               + 0.5) * dt
        phase = p.omega * mids + p.phi
        cos, sin = np.cos(phase), np.sin(phase)
        w = np.stack([dt * p.gamma * cos, -dt * p.gamma * p.B * mids * sin])
        # H(t) = gamma (B cos theta - B_c cos theta_c) sx + (omega_c/2) sz
        cos_c = np.cos(p.omega_c * mids + p.phi_c) if own_cos else cos
        fx = p.gamma * p.B * cos - p.gamma * p.B_c * cos_c
        (a, b), carry = _carried_step(
            _su2_exp(fx, 0.0, 0.5 * p.omega_c, 0.5 * dt), carry)
        v = a * a - b * b
        c += w @ np.stack([v.real, v.imag, 2.0 * (np.conj(a) * b).real],
                          axis=1)
    return c


def generator_numeric(p: FieldParams, theta: str, grid: TimeGrid,
                      control: bool = True,
                      check_tol: float | None = None) -> np.ndarray:
    """Numerical Heisenberg-picture generator h_theta over [0, T].

    ``control`` selects whether the propagation runs under the total
    (target + control) Hamiltonian or under the bare target field. One pass
    over the grid gives both generators; the last pair is kept for the
    other theta. With ``check_tol`` set, the grid is re-run at half
    resolution and a ConvergenceError, carrying ``discrepancy`` and
    ``tolerance``, is raised if the two results differ by more than the
    tolerance (max absolute entry); a grid of one step has no half and
    raises ValueError.
    """
    if theta not in ("B", "omega"):
        raise ValueError(f"theta must be 'B' or 'omega', got {theta!r}")
    if check_tol is not None and grid.steps < 2:
        raise ValueError("check_tol needs a grid of at least 2 steps to "
                         f"halve, got steps = {grid.steps}")
    g = _generator_quadrature(p, grid, control)[theta].copy()
    if check_tol is not None:
        coarse = TimeGrid(grid.t_start, grid.t_end, grid.steps // 2)
        g2 = _generator_quadrature.__wrapped__(p, coarse, control)[theta]
        if (gap := max_abs(g - g2)) > check_tol:
            err = ConvergenceError(f"step-halving discrepancy {gap:.3e} "
                                   f"exceeds {check_tol:.3e}; refine the grid")
            err.discrepancy, err.tolerance = gap, check_tol
            raise err
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


def _check_phi_zero(p: FieldParams) -> None:
    """Raise ValueError unless phi = 0, which every closed form assumes."""
    if p.phi != 0:
        raise ValueError(f"the closed forms assume phi = 0, got phi = {p.phi}")


def generator_closed_form(p: FieldParams, T: float,
                          mode: str = "exact") -> GeneratorPair:
    """Generators under matched control, exact or in the long-time limit.

    Both modes assume phi = 0 (ValueError otherwise) and matched control.
    The asymptotic mode returns (gamma*T/2) sigma_x and (gamma*B*T^2/4)
    sigma_y. Raises OverflowError when a coefficient overflows a float.
    """
    _check_phi_zero(p)
    with np.errstate(all="ignore"):  # reported below, with the T
        bx, by, wx, wy = _generator_coeffs(p.gamma, p.B, p.omega, T, mode)
    if not np.all(np.isfinite([bx, by, wx, wy])):
        raise OverflowError(f"generator coefficients overflow a float at T = {T}")
    return GeneratorPair(h_b=bx * SIGMA_X + by * SIGMA_Y,
                         h_omega=wx * SIGMA_X + wy * SIGMA_Y)

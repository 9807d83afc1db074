"""Two-qubit NV sensing protocol: rotating-frame dynamics, decoupled
interleaving of target and control fields, Bell-basis readout statistics,
and Jacobian-based uncertainty extraction.

The sensor is the NV electronic qubit, the ancilla the nitrogen nuclear
qubit, restricted to a four-level subspace. In the frame rotating at the
control frequency the drive terms act on the electron only while the
always-on hyperfine coupling contributes

    H_int' = (A/4) * (-sz_e - sz_e sz_n) = -(A/4) * sz_e (I + sz_n),

which the pulse sequence echoes away: each repetition evolves under the
target field for tau, applies an electronic pi pulse, evolves under the
control field for tau, and applies a second pi pulse. The target field is
on during the even windows [2k*tau, (2k+1)*tau], so realizing a sensing
time T = N*tau takes wall-clock 2T.

Every term commutes with the nuclear sz, so a sequence is simulated as
two electron SU(2) problems on the batched kernels of ``dynamics``: sz_e
coefficient -A/2 in the m_n = +1 block, none in the m_n = -1 block. In
the frame that follows the target's phase, the midpoint steps of a target
window are all one step, so each window is a closed-form SU(2) power and
a sequence costs O(N) pair products per point, however many steps its
windows take. A whole study, every N and both sweep axes, runs as one
batch of such sequences. Only the Bell readout works on the four-level
state.

All frequencies in rad/us, times in us, fields in Gauss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (FieldParams, _check_finite, _su2_exp, _su2_matrix,
                       _su2_mul, _su2_pow)
from .fitting import loglog_slope, ols_slope
from .linalg import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, _check_count, as_state,
                     bell_basis, bell_state, expm_hermitian, index_normals,
                     tensor)

TWO_PI = 2.0 * np.pi

SX_E = tensor(SIGMA_X, I2)
SY_E = tensor(SIGMA_Y, I2)

# exp(-i*pi*(sx+sy+sz)/(3*sqrt(3))): equalizes the four Bell populations
# at the operating point while keeping their parameter derivatives finite.
READOUT_ROTATION = expm_hermitian(
    (np.pi / (3.0 * np.sqrt(3.0))) * (SIGMA_X + SIGMA_Y + SIGMA_Z), 1.0)
_BELL_READOUT = np.conj(bell_basis()) @ tensor(READOUT_ROTATION, I2)  # rotated bras
_PROBE = bell_state("phi+")


class JacobianError(RuntimeError):
    """Signal Jacobian too ill-conditioned to invert; ``condition`` holds
    its condition number and ``n_reps`` the N of its sweeps (None when the
    sweeps do not say)."""


def _check_jacobians(j: np.ndarray, what: str, n_reps=None) -> None:
    """Raise JacobianError for the first of the stacked Jacobians j whose
    condition number exceeds 1e8, naming its entry of ``n_reps``."""
    condition = np.linalg.cond(j)
    bad = np.flatnonzero(condition > 1e8)
    if bad.size:
        i = bad[0]
        n = None if n_reps is None else int(n_reps[i])
        at = "" if n is None else f" at N = {n}"
        err = JacobianError(f"{what} Jacobian{at} is singular (condition "
                            f"number {condition[i]:.3e} > 1e8)")
        err.condition, err.n_reps = float(condition[i]), n
        raise err


class SweepError(ValueError):
    """Sweep with non-finite values or zero width, or reaching B < 0 or
    omega <= 0, which FieldParams rejects; ``axis``, ``n_reps`` (its N) and
    its ``low`` and ``high`` ends name it."""

    def __init__(self, axis: str, n_reps: int, low: float, high: float):
        super().__init__(axis, n_reps, low, high)
        self.axis, self.n_reps, self.low, self.high = axis, n_reps, low, high

    def describe(self, scale: float = 1.0, unit: str = "") -> str:
        """The failure, with the ends divided by ``scale`` and in ``unit``."""
        low = f"{self.low / scale:.6g}{unit}"
        what = ("is not finite" if not np.isfinite([self.low, self.high]).all()
                else f"has zero width about {low}" if self.low == self.high
                else f"reaches {low} {'<' if self.axis == 'B' else '<='} 0")
        return f"the {self.axis} sweep at N = {self.n_reps} {what}"

    __str__ = describe


def _check_sweep_ranges(axes, values: np.ndarray, n_reps) -> None:
    """Raise SweepError for the first row of ``values`` that is not finite,
    has zero width or whose low end breaks FieldParams' bound on its axis."""
    low, high = values.min(axis=1), values.max(axis=1)
    bounded = np.where(np.equal(axes, "B"), low >= 0, low > 0)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1) | (low == high)
                         | ~bounded)
    if bad.size:
        i = bad[0]
        raise SweepError(axes[i], int(n_reps[i]), float(low[i]),
                         float(high[i]))


class AdaptiveDivergenceError(RuntimeError):
    """Adaptive estimate left the linear-response window."""

    def __init__(self, round_index: int, message: str):
        super().__init__(message)
        self.round_index = round_index


@dataclass(frozen=True)
class NvParams:
    """NV electronic/nuclear constants (rad/us; static field in Gauss)."""

    D: float = TWO_PI * 2870.0       # zero-field splitting
    A: float = -TWO_PI * 2.16        # hyperfine coupling
    gamma_e: float = TWO_PI * 2.8    # electron gyromagnetic ratio, per Gauss
    B_z0: float = 357.0              # static bias field

    def __post_init__(self):
        _check_finite(self, ("D", "A", "gamma_e", "B_z0"))
        if self.D <= 0:
            raise ValueError("zero-field splitting must be positive")


def control_frequency(nv: NvParams) -> float:
    """Drive frequency that centers the control on the sensing transition."""
    return nv.D - nv.gamma_e * nv.B_z0 - nv.A / 2.0


def sensor_coupling(nv: NvParams) -> float:
    """Effective drive coupling of the two-level sensor, gamma_e / sqrt(2)."""
    return nv.gamma_e / np.sqrt(2.0)


def operating_field(nv: NvParams, B_c: float,
                    phi: float = 0.0) -> FieldParams:
    """Field parameters at the matched operating point.

    The target amplitude and frequency equal the control settings; the
    control phase is locked to -phi so the pulse conjugation aligns it
    with the target field.
    """
    w_c = control_frequency(nv)
    return FieldParams(B=B_c, omega=w_c, phi=phi, B_c=B_c, omega_c=w_c,
                       phi_c=-phi, gamma=sensor_coupling(nv))


def _hyperfine_z(nv: NvParams) -> np.ndarray:
    """sz_e coefficient of the hyperfine term in the m_n = +1, -1 blocks."""
    return np.array([-nv.A / 2.0, 0.0])


def nv_rotating_hamiltonian(nv: NvParams, p: FieldParams, t: float,
                            segment: str) -> np.ndarray:
    """Rotating-frame Hamiltonian of one window, drive plus hyperfine term:
    the target drive is gamma*B*[cos(ph) sx_e - sin(ph) sy_e] with ph =
    (omega-omega_c)t+phi, the control the static -gamma*B_c*[cos(phi_c)
    sx_e - sin(phi_c) sy_e]."""
    if segment == "target":
        gb, ph = p.gamma * p.B, (p.omega - p.omega_c) * t + p.phi
    elif segment == "control":
        gb, ph = -p.gamma * p.B_c, p.phi_c
    else:
        raise ValueError(
            f"segment must be 'target' or 'control', got {segment!r}")
    hyperfine = tensor(SIGMA_Z, np.diag(_hyperfine_z(nv)))  # nuclear sz dropped
    return gb * np.cos(ph) * SX_E - gb * np.sin(ph) * SY_E + hyperfine


@dataclass(frozen=True)
class PiPulseModel:
    """Ideal (instantaneous sx_e) or finite square-Rabi pi pulse.

    Finite pulses drive the electron at ``rabi_freq`` for pi/rabi_freq,
    with the hyperfine term active during the pulse when ``hyperfine_on``.
    """

    kind: str = "ideal"
    rabi_freq: float = TWO_PI * 20.0
    hyperfine_on: bool = True

    def __post_init__(self):
        _check_finite(self, ("rabi_freq",))
        if self.kind not in ("ideal", "finite"):
            raise ValueError(f"pulse kind must be 'ideal' or 'finite', got {self.kind!r}")
        if self.kind == "finite" and self.rabi_freq <= 0:
            raise ValueError("finite pulses require rabi_freq > 0")


@dataclass(frozen=True)
class PulseSequence:
    """Schedule of N repetitions of {target(tau), pi, control(tau), pi};
    repetition k's target window starts at 2 k tau. ``n_reps`` is one N or
    one N per point of a batch.

    Assumes the control phase is locked to -phi (see ``operating_field``);
    with ideal pulses the hyperfine term then cancels at first order per
    repetition and the sequence approximates evolution under the combined
    target + control drive over T = N*tau.
    """

    n_reps: int | np.ndarray
    tau: float
    pulse: PiPulseModel

    def __post_init__(self):
        _check_finite(self, ("tau",))
        _check_count(self.n_reps, "n_reps", 1)
        if self.tau <= 0:
            raise ValueError("tau must be positive")


def _sequence_unitaries(seq: PulseSequence, nv: NvParams, p: FieldParams,
                        B, omega, steps_per_block: int) -> np.ndarray:
    """Propagators (points, 4, 4) of the sequence at target amplitudes B
    and frequencies omega (1-D arrays, or scalars that broadcast, as may
    seq.n_reps), control at p's values.

    Target windows take ``steps_per_block`` midpoint steps of length dt.
    With S(x) = exp(-i x sz / 2) and theta(t) = delta t + phi, delta =
    omega - omega_c, the target drive is S(theta)^dag (gB sx + hz sz)
    S(theta), so each step is a z-conjugate of X = exp(-i (gB sx + hz sz)
    dt) and the window from t0, with t1 = t0 + dt / 2, is

        S(theta(t1) + delta tau)^dag Y^steps_per_block S(theta(t1)),

    Y = S(delta dt) X, a closed-form SU(2) power. Window k is window 0
    conjugated by S(2 k delta tau), which rephases its b. Control windows
    and finite pi pulses are one exact step each, ideal pi pulses an exact
    sx_e, so a sequence costs O(n_reps) pair products per point at any
    ``steps_per_block``. All points and both nuclear blocks run as one
    batch of electron SU(2) problems, placed on the propagators' block
    diagonals. Each repetition's two pair products are written in place
    into preallocated rows, with the conjugates of q and a taken once.
    """
    _check_count(steps_per_block, "steps_per_block", 1)
    tau, pulse = seq.tau, seq.pulse
    n_reps, B, omega = np.broadcast_arrays(np.ravel(seq.n_reps), np.ravel(B),
                                           np.ravel(omega))
    # longest sequences first: the points that run repetition k are then a
    # prefix of the batch
    order = np.argsort(-n_reps, kind="stable")
    n_reps, B, omega = n_reps[order], B[order], omega[order]
    dt = tau / steps_per_block
    delta = (omega - p.omega_c)[:, None]
    # one exponential for every point's X, the control window and a finite
    # pi pulse, each (sx, sy, duration, hyperfine weight); an ideal pulse's
    # row is unused (a unit sx keeps zeros off _su2_exp's hypot path)
    table = np.empty((B.size + 2, 4))
    table[:-2, 0], table[:-2, 1:] = p.gamma * B, (0.0, dt, 1.0)
    table[-2] = (-p.gamma * p.B_c * np.cos(p.phi_c),
                 p.gamma * p.B_c * np.sin(p.phi_c), tau, 1.0)
    table[-1] = ((0.5 * pulse.rabi_freq, 0.0, np.pi / pulse.rabi_freq,
                  float(pulse.hyperfine_on)) if pulse.kind == "finite"
                 else (1.0, 0.0, 0.0, 0.0))
    ax, ay, dts, weight = table.T[..., None]
    steps = _su2_exp(ax, ay, weight * _hyperfine_z(nv), dts)
    x, ctrl, pi = steps[:, :-2], steps[:, -2], steps[:, -1]
    # the repetition's pi, control, pi: sx C sx is the pair (a*, -b*)
    q = (_su2_mul(pi, _su2_mul(ctrl, pi)) if pulse.kind == "finite"
         else np.stack([np.conj(ctrl[0]), -np.conj(ctrl[1])]))
    s = np.exp(-0.5j * delta * dt)
    a, b = _su2_pow(np.stack([x[0] * s, x[1] * np.conj(s)]), steps_per_block)
    a *= np.exp(0.5j * delta * tau)
    theta = p.phi + 0.5 * delta * (dt + tau)
    u = np.stack([a, b * np.exp(-1j * theta)])
    # both nuclear blocks of a point side by side on one axis, so that
    # repetition k runs on a prefix of it. q and its cross factors stand at
    # every entry: each product is of arrays of one shape, which numpy runs
    # in long inner loops where a broadcast q would run pair by pair
    u, q, a = u.reshape(2, -1), np.tile(q, (1, B.size)), a.ravel()
    cross, ca, v, work = (np.conj(q[::-1]), np.conj(a), np.empty_like(u),
                          np.empty_like(a))
    # runs[k - 1]: the points with n_reps > k
    runs = np.searchsorted(-n_reps, -np.arange(1, n_reps[0]))
    for k, m in enumerate(runs.tolist(), 1):
        e = 2 * m  # their entries
        wb = b[:m] * np.exp(-1j * (theta[:m] + 2 * k * tau * delta[:m]))
        wb = wb.ravel()
        _su2_mul(q[:, :e], u[:, :e], out=v[:, :e], cross=cross[:, :e],
                 work=work[:e])
        _su2_mul((a[:e], wb), v[:, :e], out=u[:, :e],
                 cross=(np.conj(wb), ca[:e]), work=work[:e])
    u = _su2_mul(q, u, cross=cross, work=work).reshape(2, -1, 2)[
        :, np.argsort(order)]
    out = np.zeros((B.size, 4, 4), dtype=complex)
    out[:, 0::2, 0::2], out[:, 1::2, 1::2] = _su2_matrix(u).swapaxes(0, 1)
    return out


def sequence_unitary(seq: PulseSequence, nv: NvParams, p: FieldParams,
                     steps_per_block: int = 32) -> np.ndarray:
    """Rotating-frame propagator, ``steps_per_block`` steps per target window."""
    return _sequence_unitaries(seq, nv, p, p.B, p.omega, steps_per_block)[0]


def simulate_sequence(seq: PulseSequence, nv: NvParams, p: FieldParams,
                      probe: np.ndarray,
                      steps_per_block: int = 32) -> np.ndarray:
    """Final state of a normalized two-qubit probe after the sequence."""
    psi = as_state(probe)
    if psi.size != 4:
        raise ValueError("probe must be a two-qubit state")
    return sequence_unitary(seq, nv, p, steps_per_block) @ psi


@dataclass(frozen=True)
class ReadoutModel:
    """Shot-noise and SPAM model for the Bell-basis readout.

    sigma defaults to the binomial deviation sqrt(p(1-p)/n_avg) at
    p = 1/4. ``spam`` is the SPAM map p -> baseline + contrast * p.
    """

    sigma: float | None = None
    n_avg: int = 3_000_000
    contrast: float = 1.0
    baseline: float = 0.0
    signals_used: str = "two"

    def __post_init__(self):
        _check_count(self.n_avg, "n_avg", 1)
        if self.sigma is None:
            object.__setattr__(
                self, "sigma", float(np.sqrt(0.25 * 0.75 / self.n_avg)))
        _check_finite(self, ("sigma", "contrast", "baseline"))
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        # sigma^2 scales the covariance sigma^2 (J^T J)^-1, whose deviations
        # must not underflow
        if self.sigma * self.sigma * np.finfo(float).eps < np.finfo(float).tiny:
            raise ValueError(f"readout.sigma = {self.sigma!r} is too small: "
                             f"its square {self.sigma * self.sigma!r} underflows")
        if self.baseline < 0 or self.baseline + self.contrast > 1.0 + 1e-12:
            raise ValueError("SPAM model requires baseline >= 0 and baseline + contrast <= 1")
        if self.contrast <= 0:
            raise ValueError(f"contrast must be in (0, 1], got {self.contrast!r}")
        if self.signals_used not in ("two", "three"):
            raise ValueError("signals_used must be 'two' or 'three'")

    @property
    def n_signals(self) -> int:
        return 2 if self.signals_used == "two" else 3

    def spam(self, probs):
        return self.baseline + self.contrast * probs


def bell_readout(state: np.ndarray) -> np.ndarray:
    """Bell-basis outcome probabilities, after the electron-only rotation.

    Order: phi+, phi-, psi+, psi-; ReadoutModel.spam maps them to SPAM.
    """
    return np.abs(_BELL_READOUT @ as_state(state)) ** 2


@dataclass(frozen=True)
class SweepResult:
    """Signals versus one swept parameter, with local slope fits."""

    axis: str
    values: np.ndarray
    probs: np.ndarray          # noiseless Bell populations, pre-SPAM, (n, 4)
    signals: np.ndarray        # measured 1 - p_i, (n, n_signals)
    slopes: np.ndarray         # d(signal)/d(theta) at the operating point
    slope_stderr: np.ndarray


def _sweeps(sweeps, p: FieldParams, nv: NvParams, tau: float,
            pulse: PiPulseModel, readout: ReadoutModel, add_noise: bool,
            steps_per_block: int, extra=()) -> tuple[np.ndarray, ...]:
    """Sweeps (axes, values, n_reps, seeds), one row of the (sweeps,
    points) array ``values`` each, from the Bell probe as one batch of
    sequences with the control at p's values and the other axis at p's
    value; signals, noise and slope fits as in sweep_signal, every
    sweep's window and signal fitted in one call. SweepError names the
    first sweep with zero width or reaching B < 0 or omega <= 0.

    The (B, omega) points of ``extra`` run in the same batch, with the
    first sweep's n_reps. Returns the noiseless Bell populations (sweeps,
    points, 4), the signals (sweeps, points, k), the slopes and their
    standard errors (sweeps, k), and the extra points' noiseless ones.
    """
    axes, values, n_reps, seeds = sweeps
    unknown = set(axes) - {"B", "omega"}
    if unknown:
        raise ValueError(f"axis must be 'B' or 'omega', got {unknown.pop()!r}")
    on_b = np.equal(axes, "B")
    values = np.asarray(values, dtype=float)
    m, points = values.shape
    if points < 3:
        raise ValueError("need at least 3 sweep points for slope fitting")
    _check_sweep_ranges(axes, values, n_reps)
    extra = np.reshape(np.asarray(extra, dtype=float), (-1, 2))
    B = np.append(np.where(on_b[:, None], values, p.B), extra[:, 0])
    omega = np.append(np.where(on_b[:, None], p.omega, values), extra[:, 1])
    reps = np.append(np.repeat(n_reps, points),
                     np.full(len(extra), n_reps[0]))
    u = _sequence_unitaries(PulseSequence(reps, tau, pulse), nv, p, B, omega,
                            steps_per_block)
    probs = np.abs(u @ _PROBE @ _BELL_READOUT.T) ** 2
    probs, extra_probs = (probs[:m * points].reshape(m, points, 4),
                          probs[m * points:])
    k = readout.n_signals
    signals = 1.0 - readout.spam(probs[..., :k])
    if add_noise:
        # numpy's normal(0, sigma) is 0.0 + sigma * z, bit for bit
        seeds = np.ravel(seeds).tolist()
        z = {s: index_normals(s, points, k) for s in seeds}
        signals += 0.0 + readout.sigma * np.array([z[s] for s in seeds])
    bad = np.argwhere(~np.isfinite(signals).all(axis=2))
    if bad.size:  # from the sequence, as for an overflowing tau, or the noise
        s, i = bad[0]
        at = f"{axes[s]} = {float(values[s, i])!r}"
        if not np.isfinite(probs[s, i]).all():
            raise FloatingPointError(
                f"non-finite Bell populations in the {axes[s]} sweep at N = "
                f"{int(n_reps[s])}, {at} (protocol.tau = {tau!r})")
        raise FloatingPointError(f"non-finite noisy signal at {at} "
                                 f"(readout.sigma = {readout.sigma!r})")
    # five points about the operating point, fewer on a shorter sweep
    width = min(5, points)
    centre = np.where(on_b, p.B, p.omega)[:, None]
    lo = np.clip(np.argmin(np.abs(values - centre), axis=1) - 2, 0,
                 points - width)
    window = lo[:, None] + np.arange(width)
    slopes, stderr = ols_slope(
        np.take_along_axis(values, window, axis=1)[:, None],
        np.take_along_axis(signals.swapaxes(1, 2), window[:, None], axis=2))
    return probs, signals, slopes, stderr, extra_probs


def sweep_signal(axis: str, values, p: FieldParams, nv: NvParams,
                 n_reps: int, tau: float, pulse: PiPulseModel,
                 readout: ReadoutModel, seed: int = 0,
                 add_noise: bool = False,
                 steps_per_block: int = 32) -> SweepResult:
    """Simulate the measured signals across a parameter sweep.

    All swept values run from the Bell probe as one batch of sequences.
    The first two (or three) signals 1 - p_i are recorded, with optional
    Gaussian shot noise of deviation ``readout.sigma`` seeded per point
    (FloatingPointError if it makes a signal non-finite). Local slopes are
    fitted on a five-point window centered on the operating point.
    SweepError if the values have zero width or reach B < 0 or omega <= 0.
    """
    values = np.asarray(values, dtype=float).reshape(1, -1)
    rows = _sweeps(([axis], values, [n_reps], [seed]), p, nv, tau, pulse,
                   readout, add_noise, steps_per_block)
    return SweepResult(axis, values[0], *(row[0] for row in rows[:4]))


def _pair_specs(centre, n_reps, hb, hw, points: int, seed: int) -> tuple:
    """Sweeps of B over centre[0] +- hb and of omega over centre[1] +- hw,
    seeded ``seed`` and ``seed + 1``, for each entry of n_reps, hb and hw,
    which broadcast: the B and the omega sweep of each N in turn, as
    _sweeps takes and checks them."""
    n_reps, hb, hw = np.broadcast_arrays(np.ravel(n_reps), hb, hw)
    centre = np.tile(centre, n_reps.size)
    half = np.stack([hb, hw], axis=1).ravel()
    values = centre[:, None] + np.linspace(-half, half, points, axis=1)
    return (["B", "omega"] * n_reps.size, values,
            np.repeat(n_reps, 2), np.tile([seed, seed + 1], n_reps.size))


@dataclass(frozen=True)
class UncertaintyResult:
    """Shot-noise-limited parameter uncertainties from two sweeps."""

    delta_b: float
    delta_w: float
    delta_b_err: float
    delta_w_err: float


def _uncertainties(j: np.ndarray, se: np.ndarray, sigma: float,
                   n_reps=None) -> tuple[np.ndarray, np.ndarray]:
    """Uncertainties (m, 2) of (B, omega) and their error bars (m, 2) from
    stacked signal Jacobians j (m, k, 2) and slope standard errors se of
    the same shape.

    Square Jacobians (k = 2) must have condition numbers of at most 1e8
    (JacobianError names the first failing entry of ``n_reps``). The
    covariance sigma^2 (J^T J)^-1 of J and of each Jacobian with one slope
    moved by its nonzero standard error come from one stacked inverse;
    the moves of the uncertainties add in quadrature.
    """
    m, k, _ = j.shape
    if k == 2:
        _check_jacobians(j, "signal", n_reps)
    # moved[:, 0] is J; moved[:, 1 + e] has its entry e = 2 * signal + axis
    # moved by that slope's standard error
    moved = np.repeat(j[:, None], 2 * k + 1, axis=1)
    entry = np.arange(2 * k)
    se = se.reshape(m, 2 * k)
    moved[:, entry + 1, entry // 2, entry % 2] += se
    if sigma * sigma == np.inf:  # where sigma**2 raises an unnamed error
        raise OverflowError(f"readout.sigma = {sigma!r} squared overflows")
    cov = sigma**2 * np.linalg.inv(np.swapaxes(moved, -1, -2) @ moved)
    delta = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    shift = np.where((se != 0.0)[..., None], delta[:, 1:] - delta[:, :1], 0.0)
    return delta[:, 0], np.sqrt(np.sum(shift**2, axis=1))


def parameter_uncertainty(sweep_b: SweepResult, sweep_w: SweepResult,
                          readout: ReadoutModel) -> UncertaintyResult:
    """Propagate signal shot noise through the fitted Jacobian.

    Two-signal mode inverts the square Jacobian (rejected if its condition
    number exceeds 1e8); three-signal mode uses the least-squares
    pseudoinverse. Slope standard errors are propagated to first order
    into error bars on the uncertainties.
    """
    k = readout.n_signals
    j = np.column_stack([sweep_b.slopes[:k], sweep_w.slopes[:k]])
    se = np.column_stack([sweep_b.slope_stderr[:k], sweep_w.slope_stderr[:k]])
    (delta,), (err,) = _uncertainties(j[None], se[None], readout.sigma)
    return UncertaintyResult(delta_b=float(delta[0]), delta_w=float(delta[1]),
                             delta_b_err=float(err[0]), delta_w_err=float(err[1]))


@dataclass(frozen=True)
class ScalingResult:
    """Uncertainties versus repetition number, with power-law fits."""

    n_values: np.ndarray
    delta_b: np.ndarray
    delta_w: np.ndarray
    delta_b_err: np.ndarray
    delta_w_err: np.ndarray
    exponent_b: float
    exponent_b_stderr: float
    exponent_w: float
    exponent_w_stderr: float


def scaling_study(nv: NvParams, readout: ReadoutModel,
                  n_values=tuple(range(1, 9)), tau: float = 0.017,
                  B_c: float = 5.65, phi: float = 0.0,
                  pulse: PiPulseModel = PiPulseModel(),
                  halfwidth_b: float = 0.2, halfwidth_w: float = 2.0,
                  points: int = 5, seed: int = 0, add_noise: bool = False,
                  steps_per_block: int = 32) -> ScalingResult:
    """Uncertainties delta_B, delta_omega as functions of N.

    Sweep windows shrink as 1/N (amplitude) and 1/N^2 (frequency) so the
    five fit points stay inside the linear-response region at every N.
    Every N and both sweep axes run as one batch of sequences, their
    slopes as one fit and the uncertainties of every N as one stacked
    inverse.
    """
    p = operating_field(nv, B_c, phi)
    _check_count(n_values, "n_values", 1)
    n_values = np.asarray(n_values, dtype=int)
    _, _, slopes, stderr, _ = _sweeps(
        _pair_specs((p.B, p.omega), n_values, halfwidth_b / n_values,
                    halfwidth_w / n_values**2, points, seed),
        p, nv, tau, pulse, readout, add_noise, steps_per_block)
    # slopes and their errors, (N, k, 2) each: the B and omega sweeps of
    # each N are its two columns
    j, se = np.stack([slopes, stderr]).reshape(
        2, n_values.size, 2, -1).swapaxes(2, 3)
    delta, err = _uncertainties(j, se, readout.sigma, n_values)
    eb, ebs = loglog_slope(n_values, delta[:, 0])
    ew, ews = loglog_slope(n_values, delta[:, 1])
    return ScalingResult(n_values=n_values, delta_b=delta[:, 0],
                         delta_w=delta[:, 1], delta_b_err=err[:, 0],
                         delta_w_err=err[:, 1],
                         exponent_b=eb, exponent_b_stderr=ebs,
                         exponent_w=ew, exponent_w_stderr=ews)


def adaptive_loop(true_field: tuple[float, float],
                  initial_guess: tuple[float, float],
                  rounds: int, shots: int, nv: NvParams,
                  n_reps: int = 2, tau: float = 0.025, phi: float = 0.0,
                  pulse: PiPulseModel = PiPulseModel(), seed: int = 0,
                  window: tuple[float, float] = (0.5, 5.0),
                  jacobian_halfwidth: tuple[float, float] = (0.05, 0.5),
                  noiseless: bool = False,
                  steps_per_block: int = 16) -> np.ndarray:
    """Iteratively refine (B, omega) estimates by matching the control.

    Each round sets the control to the current estimate, simulates the
    measured signals produced by the true field (with shot noise of
    deviation sqrt(p(1-p)/shots) unless ``noiseless``), and applies a
    Newton update through the locally fitted Jacobian. Returns the
    trajectory of estimates, shape (rounds + 1, 2).

    Each round first checks its Jacobian sweeps, then the window. Round
    0's sweeps are the caller's: SweepError when they have zero width or
    reach B < 0 or omega <= 0. A later round's failing sweeps, or an
    estimate that leaves the linear window around the true values, raise
    AdaptiveDivergenceError.
    """
    _check_count(rounds, "rounds")
    _check_count(shots, "shots", 1)
    b_true, w_true = true_field
    est = np.array(initial_guess, dtype=float)
    traj = [est.copy()]
    gamma = sensor_coupling(nv)
    readout = ReadoutModel(n_avg=shots)
    # numpy's normal(0, sigma) is 0.0 + sigma * z, bit for bit
    noise = (np.zeros((rounds, 2)) if noiseless
             else 0.0 + readout.sigma * index_normals(seed, rounds, 2))
    for r in range(rounds):
        sweeps = _pair_specs(est, n_reps, *jacobian_halfwidth, 5, 0)
        try:  # before est sets the control, which FieldParams checks
            _check_sweep_ranges(*sweeps[:3])
        except SweepError as exc:
            if not r:
                raise
            raise AdaptiveDivergenceError(r, (
                f"the Jacobian sweeps of round {r} reach (B, omega) = "
                f"{(est - jacobian_halfwidth).tolist()}: {exc}")) from exc
        if abs(est[0] - b_true) > window[0] or abs(est[1] - w_true) > window[1]:
            raise AdaptiveDivergenceError(
                r, f"estimate left the linear window at round {r}")
        # the local Jacobian sweeps around the current estimate and the
        # measurement of the true field share the control, set to est
        truth = FieldParams(B=b_true, omega=w_true, phi=phi, B_c=est[0],
                            omega_c=est[1], phi_c=-phi, gamma=gamma)
        at = replace(truth, B=est[0], omega=est[1])
        _, signals, slopes, _, probs = _sweeps(
            sweeps, at, nv, tau, pulse, readout, False, steps_per_block,
            extra=true_field)
        meas = 1.0 - probs[0, :2] + noise[r]
        j = slopes.T
        _check_jacobians(j[None], f"adaptive round {r}", [n_reps])
        # the B sweep's center point holds the noiseless signals at est
        est = est + np.linalg.solve(j, meas - signals[0, 2])
        traj.append(est.copy())
    return np.array(traj)

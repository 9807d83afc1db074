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
coefficient -A/2 in the m_n = +1 block, none in the m_n = -1 block. Only
the Bell readout works on the four-level state.

All frequencies in rad/us, times in us, fields in Gauss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import FieldParams, _product_reduce, _su2_exp, _su2_matrix
from .fitting import loglog_slope, ols_slope
from .linalg import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, as_state, bell_basis,
                     bell_state, expm_hermitian, tensor)

TWO_PI = 2.0 * np.pi

SX_E = tensor(SIGMA_X, I2)
SY_E = tensor(SIGMA_Y, I2)
SZ_E = tensor(SIGMA_Z, I2)
SZ_N = tensor(I2, SIGMA_Z)
SZ_EN = tensor(SIGMA_Z, SIGMA_Z)

# exp(-i*pi*(sx+sy+sz)/(3*sqrt(3))): equalizes the four Bell populations
# at the operating point while keeping their parameter derivatives finite.
READOUT_ROTATION = expm_hermitian(
    (np.pi / (3.0 * np.sqrt(3.0))) * (SIGMA_X + SIGMA_Y + SIGMA_Z), 1.0)
_BELL_BRAS = np.conj(bell_basis())
_BELL_READOUT = _BELL_BRAS @ tensor(READOUT_ROTATION, I2)  # after the rotation
_PROBE = bell_state("phi+")


class JacobianError(RuntimeError):
    """Signal Jacobian too ill-conditioned to invert."""


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
        if self.D <= 0:
            raise ValueError("zero-field splitting must be positive")


def control_frequency(nv: NvParams) -> float:
    """Drive frequency that centers the control on the sensing transition."""
    return nv.D - nv.gamma_e * nv.B_z0 - nv.A / 2.0


def sensor_coupling(nv: NvParams) -> float:
    """Effective drive coupling of the two-level sensor, gamma_e / sqrt(2)."""
    return nv.gamma_e / np.sqrt(2.0)


def operating_field(nv: NvParams, B_c: float, phi: float = 0.0,
                    B: float | None = None,
                    omega: float | None = None) -> FieldParams:
    """Field parameters at (or near) the matched operating point.

    Target amplitude/frequency default to the control settings; the
    control phase is locked to -phi so the pulse conjugation aligns it
    with the target field.
    """
    w_c = control_frequency(nv)
    return FieldParams(
        B=B_c if B is None else B,
        omega=w_c if omega is None else omega,
        phi=phi,
        B_c=B_c,
        omega_c=w_c,
        phi_c=-phi,
        gamma=sensor_coupling(nv),
    )


def _hyperfine_z(nv: NvParams) -> np.ndarray:
    """sz_e coefficient of the hyperfine term in the m_n = +1, -1 blocks."""
    return np.array([-nv.A / 2.0, 0.0])


def interaction_term(nv: NvParams) -> np.ndarray:
    """Residual hyperfine term in the rotating frame (nuclear sz dropped)."""
    return tensor(SIGMA_Z, np.diag(_hyperfine_z(nv)))


def _window_drive(p: FieldParams, B, omega, t, segment: str):
    """sx_e, sy_e coefficients of the drive in one evolution window: target
    gamma*B*[cos((omega-omega_c)t+phi) sx_e - sin(...) sy_e] at the given B
    and omega, control the static -gamma*B_c*[cos(phi_c) sx_e - sin(...) sy_e]."""
    if segment == "target":
        ph = (omega - p.omega_c) * t + p.phi
        return p.gamma * B * np.cos(ph), -p.gamma * B * np.sin(ph)
    if segment == "control":
        return (-p.gamma * p.B_c * np.cos(p.phi_c),
                p.gamma * p.B_c * np.sin(p.phi_c))
    raise ValueError(f"segment must be 'target' or 'control', got {segment!r}")


def nv_rotating_hamiltonian(nv: NvParams, p: FieldParams, t: float,
                            segment: str) -> np.ndarray:
    """Rotating-frame Hamiltonian of one window: drive plus hyperfine term."""
    ax, ay = _window_drive(p, p.B, p.omega, t, segment)
    return ax * SX_E + ay * SY_E + interaction_term(nv)


def conjugate_by_pi(h: np.ndarray) -> np.ndarray:
    """Sandwich an operator between electronic pi pulses: sx_e H sx_e."""
    return SX_E @ h @ SX_E


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
        if self.kind not in ("ideal", "finite"):
            raise ValueError(f"pulse kind must be 'ideal' or 'finite', got {self.kind!r}")
        if self.kind == "finite" and self.rabi_freq <= 0:
            raise ValueError("finite pulses require rabi_freq > 0")


@dataclass(frozen=True)
class PulseSequence:
    """Schedule of N repetitions of {target(tau), pi, control(tau), pi}."""

    n_reps: int
    tau: float
    pulse: PiPulseModel
    blocks: tuple
    total_duration: float


def build_sequence(n_reps: int, tau: float, pulse: PiPulseModel) -> PulseSequence:
    """Lay out the decoupled interleaving schedule.

    Assumes the control phase is locked to -phi (see ``operating_field``);
    with ideal pulses the hyperfine term then cancels at first order per
    repetition and the sequence approximates evolution under the combined
    target + control drive over T = N*tau.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    if tau <= 0:
        raise ValueError("tau must be positive")
    blocks = []
    for k in range(n_reps):
        blocks += [("target", 2 * k * tau), ("pi",),
                   ("control", (2 * k + 1) * tau), ("pi",)]
    return PulseSequence(n_reps=n_reps, tau=tau, pulse=pulse,
                         blocks=tuple(blocks), total_duration=2 * n_reps * tau)


def _sequence_unitaries(seq: PulseSequence, nv: NvParams, p: FieldParams,
                        B, omega, steps_per_block: int) -> np.ndarray:
    """Propagators (points, 4, 4) at target amplitudes B and frequencies
    omega (1-D arrays, or scalars that broadcast), control at p's values.

    Target windows take ``steps_per_block`` midpoint steps, control windows
    and finite pi pulses one exact step each, and ideal pi pulses are an
    exact sx_e. All points and both nuclear blocks run as one batch of
    electron SU(2) problems, placed on the propagators' block diagonals.
    """
    if steps_per_block < 1:
        raise ValueError("steps_per_block must be >= 1")
    B, omega = np.broadcast_arrays(np.ravel(B), np.ravel(omega))
    pulse, tau = seq.pulse, seq.tau
    dt = tau / steps_per_block
    mids = (np.arange(steps_per_block) + 0.5) * dt
    # per point and repetition, as in seq.blocks: target steps, pi,
    # control, pi, each (sx, sy, duration, hyperfine weight); an ideal pi
    # takes no time (a unit sx keeps zeros off _su2_exp's hypot path), and
    # its step becomes the SU(2) pair (0, -i) = -i sx, whose lost factor i
    # multiplies the product
    table = np.empty((B.size, seq.n_reps, steps_per_block + 3, 4))
    times = (2 * np.arange(seq.n_reps))[:, None] * tau + mids
    table[..., :-3, 0], table[..., :-3, 1] = _window_drive(
        p, B[:, None, None], omega[:, None, None], times, "target")
    table[..., :-3, 2:] = dt, 1.0
    if pulse.kind == "ideal":
        table[..., -3, :] = table[..., -1, :] = (1.0, 0.0, 0.0, 0.0)
    else:
        table[..., -3, :] = table[..., -1, :] = (
            0.5 * pulse.rabi_freq, 0.0, np.pi / pulse.rabi_freq,
            float(pulse.hyperfine_on))
    table[..., -2, :] = (*_window_drive(p, p.B, p.omega, 0.0, "control"),
                         tau, 1.0)
    # time order on axis 0, points on axis 1, nuclear blocks last
    ax, ay, dts, weight = table.reshape(B.size, -1, 4).T
    steps = _su2_exp(ax[..., None], ay[..., None],
                     weight[..., None] * _hyperfine_z(nv), dts[..., None])
    ideal = dts[:, 0] == 0.0
    steps[0, ideal], steps[1, ideal] = 0.0, -1j
    phase = 1j ** (np.count_nonzero(ideal) % 4)
    u = np.zeros((B.size, 4, 4), dtype=complex)
    u[:, 0::2, 0::2], u[:, 1::2, 1::2] = (
        phase * _su2_matrix(_product_reduce(steps))).swapaxes(0, 1)
    return u


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
        if self.sigma is None:
            object.__setattr__(
                self, "sigma", float(np.sqrt(0.25 * 0.75 / self.n_avg)))
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.baseline < 0 or self.baseline + self.contrast > 1.0 + 1e-12:
            raise ValueError("SPAM model requires baseline >= 0 and baseline + contrast <= 1")
        if self.contrast <= 0:
            raise ValueError("contrast must be in (0, 1]")
        if self.signals_used not in ("two", "three"):
            raise ValueError("signals_used must be 'two' or 'three'")

    @property
    def n_signals(self) -> int:
        return 2 if self.signals_used == "two" else 3

    def spam(self, probs):
        return self.baseline + self.contrast * probs


def bell_readout(state: np.ndarray, readout: ReadoutModel | None = None,
                 rotate: bool = True) -> np.ndarray:
    """Bell-basis outcome probabilities, after the electron-only rotation.

    Order: phi+, phi-, psi+, psi-. With ``readout`` given, its SPAM map is
    applied; with ``rotate=False`` the basis rotation is skipped.
    """
    psi = as_state(state)
    probs = np.abs((_BELL_READOUT if rotate else _BELL_BRAS) @ psi) ** 2
    return probs if readout is None else readout.spam(probs)


@dataclass(frozen=True)
class SweepResult:
    """Signals versus one swept parameter, with local slope fits."""

    axis: str
    values: np.ndarray
    probs: np.ndarray          # noiseless Bell populations, pre-SPAM, (n, 4)
    signals: np.ndarray        # measured 1 - p_i, (n, n_signals)
    slopes: np.ndarray         # d(signal)/d(theta) at the operating point
    slope_stderr: np.ndarray


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
    """
    if axis not in ("B", "omega"):
        raise ValueError(f"axis must be 'B' or 'omega', got {axis!r}")
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise ValueError("need at least 3 sweep points for slope fitting")
    if values.max() == values.min():
        raise ValueError("sweep range has zero width")
    replace(p, **{axis: values.min()})  # FieldParams' lower bounds hold for all
    k = readout.n_signals
    u = _sequence_unitaries(build_sequence(n_reps, tau, pulse), nv, p,
                            values if axis == "B" else p.B,
                            values if axis == "omega" else p.omega,
                            steps_per_block)
    probs = np.abs(u @ _PROBE @ _BELL_READOUT.T) ** 2
    signals = 1.0 - readout.spam(probs[:, :k])
    if add_noise:
        signals += np.array([np.random.default_rng([seed, i]).normal(
            0.0, readout.sigma, size=k) for i in range(values.size)])
        bad = ~np.isfinite(signals).all(axis=1)
        if np.any(bad):
            raise FloatingPointError(
                f"non-finite noisy signal at {axis} = {float(values[bad][0])!r}"
                f" (readout.sigma = {readout.sigma!r})")

    idx = int(np.argmin(np.abs(values - getattr(p, axis))))
    lo = max(0, min(idx - 2, values.size - 5))
    win = slice(lo, lo + 5)
    slopes, stderr = np.array(
        [ols_slope(values[win], signals[win, j]) for j in range(k)]).T
    return SweepResult(axis=axis, values=values, probs=probs,
                       signals=signals, slopes=slopes, slope_stderr=stderr)


def _sweep_pair(p: FieldParams, nv: NvParams, n_reps: int, tau: float,
                pulse: PiPulseModel, readout: ReadoutModel, hb: float,
                hw: float, points: int, seed: int, add_noise: bool,
                steps_per_block: int) -> tuple[SweepResult, SweepResult]:
    """Sweeps of B over p.B +- hb and of omega over p.omega +- hw."""
    args = (nv, n_reps, tau, pulse, readout)
    kw = dict(add_noise=add_noise, steps_per_block=steps_per_block)
    return (sweep_signal("B", p.B + np.linspace(-hb, hb, points), p, *args,
                         seed=seed, **kw),
            sweep_signal("omega", p.omega + np.linspace(-hw, hw, points), p,
                         *args, seed=seed + 1, **kw))


@dataclass(frozen=True)
class UncertaintyResult:
    """Shot-noise-limited parameter uncertainties from two sweeps."""

    delta_b: float
    delta_w: float
    delta_b_err: float
    delta_w_err: float
    covariance: np.ndarray


def _cov_from_jacobian(j: np.ndarray, sigma: float) -> np.ndarray:
    return sigma**2 * np.linalg.inv(j.T @ j)


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
    if k == 2 and np.linalg.cond(j) > 1e8:
        raise JacobianError("signal Jacobian is singular (condition number > 1e8)")
    cov = _cov_from_jacobian(j, readout.sigma)
    delta = np.sqrt(np.diag(cov))

    # first-order propagation of the slope standard errors
    se = np.column_stack([sweep_b.slope_stderr[:k], sweep_w.slope_stderr[:k]])
    grad_sq = np.zeros(2)
    for r, c in zip(*np.nonzero(se)):
        jp = j.copy()
        jp[r, c] += se[r, c]
        dp = np.sqrt(np.diag(_cov_from_jacobian(jp, readout.sigma)))
        grad_sq += (dp - delta) ** 2
    err = np.sqrt(grad_sq)
    return UncertaintyResult(delta_b=float(delta[0]), delta_w=float(delta[1]),
                             delta_b_err=float(err[0]), delta_w_err=float(err[1]),
                             covariance=cov)


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
    """
    p = operating_field(nv, B_c, phi)
    n_values = np.asarray(n_values, dtype=int)
    db, dw, dbe, dwe = np.empty((4, n_values.size))
    for i, n in enumerate(n_values):
        sweeps = _sweep_pair(p, nv, int(n), tau, pulse, readout,
                             halfwidth_b / n, halfwidth_w / n**2, points,
                             seed, add_noise, steps_per_block)
        res = parameter_uncertainty(*sweeps, readout)
        db[i], dw[i] = res.delta_b, res.delta_w
        dbe[i], dwe[i] = res.delta_b_err, res.delta_w_err
    eb, ebs = loglog_slope(n_values, db)
    ew, ews = loglog_slope(n_values, dw)
    return ScalingResult(n_values=n_values, delta_b=db, delta_w=dw,
                         delta_b_err=dbe, delta_w_err=dwe,
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
    trajectory of estimates, shape (rounds + 1, 2). Raises
    AdaptiveDivergenceError when an estimate leaves the linear window
    around the true values.
    """
    b_true, w_true = true_field
    est = np.array(initial_guess, dtype=float)
    traj = [est.copy()]
    gamma = sensor_coupling(nv)
    sigma = float(np.sqrt(0.25 * 0.75 / shots))
    readout = ReadoutModel(sigma=sigma, signals_used="two")
    seq = build_sequence(n_reps, tau, pulse)
    for r in range(rounds):
        if abs(est[0] - b_true) > window[0] or abs(est[1] - w_true) > window[1]:
            raise AdaptiveDivergenceError(
                r, f"estimate left the linear window at round {r}")
        ctrl = FieldParams(B=b_true, omega=w_true, phi=phi, B_c=est[0],
                           omega_c=est[1], phi_c=-phi, gamma=gamma)
        psi = simulate_sequence(seq, nv, ctrl, _PROBE, steps_per_block)
        meas = 1.0 - bell_readout(psi)[:2]
        if not noiseless:
            rng = np.random.default_rng([seed, r])
            meas = meas + rng.normal(0.0, sigma, size=2)
        # local Jacobian around the current estimate (control matched there)
        at = replace(ctrl, B=est[0], omega=est[1])
        sb, sw = _sweep_pair(at, nv, n_reps, tau, pulse, readout,
                             *jacobian_halfwidth, points=5, seed=0,
                             add_noise=False, steps_per_block=steps_per_block)
        j = np.column_stack([sb.slopes, sw.slopes])
        if np.linalg.cond(j) > 1e8:
            raise JacobianError("adaptive Jacobian is singular")
        # the sweep's center point holds the noiseless signals at est
        est = est + np.linalg.solve(j, meas - sb.signals[2])
        traj.append(est.copy())
    return np.array(traj)

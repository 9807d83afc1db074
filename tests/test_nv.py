"""NV two-qubit protocol: frames, decoupling, readout, uncertainty fits."""

import json
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmag import cli
from acmag import nv as nv_module
from acmag.dynamics import FieldParams
from acmag.fitting import loglog_slope
from acmag.linalg import bell_basis, bell_state, expm_hermitian, haar_state
from acmag.nv import (SX_E, SY_E, AdaptiveDivergenceError, JacobianError,
                      NvParams, PiPulseModel, PulseSequence, ReadoutModel,
                      SweepError, SweepResult, adaptive_loop, bell_readout,
                      control_frequency, nv_rotating_hamiltonian,
                      operating_field, parameter_uncertainty, scaling_study,
                      sensor_coupling, sequence_unitary, simulate_sequence,
                      sweep_signal)

TWO_PI = 2.0 * np.pi
NV = NvParams()
IDEAL = PiPulseModel()

# the four-level operators of the test oracles, built here so that the
# references share no code with the engine
SZ = np.diag([1.0, -1.0])
SZ_E = np.kron(SZ, np.eye(2))
SZ_N = np.kron(np.eye(2), SZ)
SZ_EN = np.kron(SZ, SZ)


def _hyperfine(nv):
    """Rotating-frame hyperfine term (A/4)(-sz_e - sz_e sz_n)."""
    return (nv.A / 4.0) * (-SZ_E - SZ_EN)


def _window_hamiltonian(nv, p, t, segment):
    """Rotating-frame Hamiltonian of a target or control window: the drive
    gB (cos sx_e - sin sy_e) at phase (omega - omega_c) t + phi, or the
    static control -gB_c (cos sx_e - sin sy_e) at phase phi_c, plus the
    hyperfine term."""
    if segment == "target":
        b, ph = p.B, (p.omega - p.omega_c) * t + p.phi
    else:
        b, ph = -p.B_c, p.phi_c
    return (p.gamma * b * (np.cos(ph) * SX_E - np.sin(ph) * SY_E)
            + _hyperfine(nv))


def _conjugate_by_pi(h):
    """Sandwich an operator between electronic pi pulses: sx_e H sx_e."""
    return SX_E @ h @ SX_E


def _package_interaction(nv):
    """The package's hyperfine term: its Hamiltonian with both drives off."""
    return nv_rotating_hamiltonian(nv, operating_field(nv, 0.0), 0.0,
                                   "target")


def _global_phase_distance(u, v):
    tr = np.trace(v.conj().T @ u)
    phase = tr / abs(tr) if abs(tr) > 1e-300 else 1.0
    return np.linalg.norm(u / phase - v, 2)


class TestNvParams:
    def test_control_frequency_near_quoted_value(self):
        # formula value 1871.48 MHz sits within 0.1% of the quoted 1870 MHz
        w_c_mhz = control_frequency(NV) / TWO_PI
        assert w_c_mhz == pytest.approx(1871.48, abs=0.01)
        assert abs(w_c_mhz - 1870.0) / 1870.0 < 1e-3

    def test_positive_splitting_required(self):
        with pytest.raises(ValueError):
            NvParams(D=-1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["D", "A", "gamma_e", "B_z0"])
    def test_non_finite_entry_is_named(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, got {value}$"):
            NvParams(**{name: value})

    def test_sensor_coupling(self):
        assert sensor_coupling(NV) == pytest.approx(NV.gamma_e / np.sqrt(2))


class TestRotatingHamiltonian:
    def test_zero_detuning_target_is_static(self):
        p = operating_field(NV, 5.65)
        h0 = nv_rotating_hamiltonian(NV, p, 0.0, "target")
        h1 = nv_rotating_hamiltonian(NV, p, 3.7, "target")
        np.testing.assert_allclose(h0, h1, atol=1e-12)
        drive = h0 - _package_interaction(NV)
        np.testing.assert_allclose(drive, p.gamma * p.B * SX_E, atol=1e-12)

    def test_zero_amplitudes_leave_interaction_only(self):
        p = replace(operating_field(NV, 5.65), B=0.0, B_c=0.0)
        np.testing.assert_allclose(nv_rotating_hamiltonian(NV, p, 1.0, "target"),
                                   _hyperfine(NV), atol=1e-15)

    def test_interaction_has_no_nuclear_z_term(self):
        h = _package_interaction(NV)
        assert abs(np.trace(SZ_N @ h)) < 1e-12
        assert np.trace(SZ_E @ h) != 0


class TestConjugateByPi:
    @pytest.mark.parametrize("op,sign", [(SZ_E, -1), (SZ_EN, -1), (SX_E, +1)])
    def test_sign_flips(self, op, sign):
        np.testing.assert_allclose(_conjugate_by_pi(op), sign * op, atol=1e-15)


class TestPulseSequence:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_reps must be >= 1"):
            PulseSequence(0, 0.02, IDEAL)
        with pytest.raises(ValueError, match="tau must be positive"):
            PulseSequence(1, -0.1, IDEAL)
        # a batch holds one N per point
        with pytest.raises(ValueError, match="n_reps must be >= 1"):
            PulseSequence(np.array([3, 0, 2]), 0.02, IDEAL)
        assert PulseSequence(np.array([3, 1, 2]), 0.02, IDEAL).tau == 0.02

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tau_is_named(self, value):
        with pytest.raises(ValueError,
                           match=f"^tau must be finite, got {value}$"):
            PulseSequence(8, value, IDEAL)

    # an ideal pulse ignores rabi_freq, but the record holds no NaN either
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["ideal", "finite"])
    def test_non_finite_rabi_frequency_is_named(self, kind, value):
        with pytest.raises(ValueError,
                           match=f"^rabi_freq must be finite, got {value}$"):
            PiPulseModel(kind, value)


class TestSimulateSequence:
    def test_interaction_echoes_out_without_drive(self):
        p = replace(operating_field(NV, 5.65), B=0.0, B_c=0.0)
        for n in (1, 3, 7):
            seq = PulseSequence(n, 0.03, IDEAL)
            u = sequence_unitary(seq, NV, p)
            assert _global_phase_distance(u, np.eye(4)) < 1e-8

    def test_matched_operating_point_is_identity(self):
        for phi in (0.0, 0.4):
            p = operating_field(NV, 5.65, phi=phi)
            for n in (1, 4):
                seq = PulseSequence(n, 0.03, IDEAL)
                u = sequence_unitary(seq, NV, p)
                assert _global_phase_distance(u, np.eye(4)) < 1e-10

    def test_single_block_matches_average_drive_at_second_order(self):
        # one repetition approximates exp(-i*(H_target+H_control)*tau)
        # = exp(-i * mean * 2 tau); the defect shrinks ~4x per tau halving
        from acmag.linalg import expm_hermitian
        p = replace(operating_field(NV, 5.65), B=6.15)
        errs = []
        h_int = _package_interaction(NV)
        # keep gamma*B_c*tau well below 1 so the block defect is quadratic
        for tau in (0.004, 0.002, 0.001):
            seq = PulseSequence(1, tau, IDEAL)
            u = sequence_unitary(seq, NV, p)
            h_t = nv_rotating_hamiltonian(NV, p, 0.0, "target") - h_int
            h_c = _conjugate_by_pi(
                nv_rotating_hamiltonian(NV, p, 0.0, "control") - h_int)
            ideal = expm_hermitian(0.5 * (h_t + h_c), 2 * tau)
            errs.append(np.linalg.norm(u - ideal, 2))
        assert 3.0 <= errs[0] / errs[1] <= 5.0
        assert 3.0 <= errs[1] / errs[2] <= 5.0

    def test_finite_pulse_converges_to_ideal(self):
        p = replace(operating_field(NV, 5.65), B=5.7)
        seq_i = PulseSequence(2, 0.02, IDEAL)
        u_ideal = sequence_unitary(seq_i, NV, p)
        fast = PiPulseModel(kind="finite", rabi_freq=1000.0 * abs(NV.A))
        seq_f = PulseSequence(2, 0.02, fast)
        u_fast = sequence_unitary(seq_f, NV, p)
        slow = PiPulseModel(kind="finite", rabi_freq=10.0 * abs(NV.A))
        seq_s = PulseSequence(2, 0.02, slow)
        u_slow = sequence_unitary(seq_s, NV, p)
        assert (_global_phase_distance(u_fast, u_ideal)
                < 0.1 * _global_phase_distance(u_slow, u_ideal))
        assert _global_phase_distance(u_fast, u_ideal) < 5e-3

    def test_requires_normalized_two_qubit_probe(self):
        p = operating_field(NV, 5.65)
        seq = PulseSequence(1, 0.02, IDEAL)
        with pytest.raises(ValueError):
            simulate_sequence(seq, NV, p, np.array([1.0, 1.0, 0, 0]))

    def test_residual_interaction_error_is_quadrature_limited(self):
        # with the hyperfine term switched off, the simulator must agree
        # with itself at any resolution up to midpoint quadrature error
        p = replace(operating_field(NV, 5.65), omega=control_frequency(NV) + 2.0)
        seq = PulseSequence(4, 0.05, IDEAL)
        ref = sequence_unitary(seq, NV, p, steps_per_block=2048)
        errs = [np.linalg.norm(sequence_unitary(seq, NV, p, steps_per_block=s)
                               - ref, 2) for s in (8, 16, 32)]
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5


def _reference_sequence_unitary(seq, nv, p, steps_per_block):
    """Four-level reference: a product of per-step 4x4 exponentials.

    Repetition k is a target window from 2 k tau, a pi pulse, a control
    window and a second pi pulse. Target windows take ``steps_per_block``
    midpoint steps of the full rotating-frame Hamiltonian, control windows
    one exact step, and pi pulses are sx_e or the exact finite-pulse
    exponential.
    """
    u_pi, u_ctrl = _pi_and_control(seq, nv, p)
    dt = seq.tau / steps_per_block
    u = np.eye(4, dtype=complex)
    for k in range(seq.n_reps):
        for j in range(steps_per_block):
            h = _window_hamiltonian(nv, p, 2 * k * seq.tau + (j + 0.5) * dt,
                                    "target")
            u = expm_hermitian(h, dt) @ u
        u = u_pi @ u_ctrl @ u_pi @ u
    return u


def _pi_and_control(seq, nv, p):
    """The oracles' pi pulse (sx_e, or the exact finite-pulse exponential)
    and exact control-window propagator."""
    pulse = seq.pulse
    if pulse.kind == "ideal":
        u_pi = SX_E
    else:
        h_pi = 0.5 * pulse.rabi_freq * SX_E
        if pulse.hyperfine_on:
            h_pi = h_pi + _hyperfine(nv)
        u_pi = expm_hermitian(h_pi, np.pi / pulse.rabi_freq)
    return u_pi, expm_hermitian(_window_hamiltonian(nv, p, 0.0, "control"),
                                seq.tau)


class TestTwoBlockEngine:
    def test_builders_match_the_operator_form(self):
        np.testing.assert_allclose(_package_interaction(NV), _hyperfine(NV),
                                   atol=1e-15)
        p = replace(operating_field(NV, 5.65, phi=0.4), B=5.9,
                    omega=control_frequency(NV) + 2.0)
        t = 0.013
        for segment in ("target", "control"):
            np.testing.assert_allclose(
                nv_rotating_hamiltonian(NV, p, t, segment),
                _window_hamiltonian(NV, p, t, segment), atol=1e-12)

    # a one-step target window is the window power's edge case; the
    # 16-step cases keep their plain n_reps ids
    @pytest.mark.parametrize("n_reps,steps_per_block", [
        (1, 16), (3, 16), (8, 16), (1, 1), (3, 1), (8, 1),
    ], ids=["1", "3", "8", "1-one-step", "3-one-step", "8-one-step"])
    @pytest.mark.parametrize("detuning", [0.0, 2.0])
    @pytest.mark.parametrize("pulse", [
        IDEAL,
        PiPulseModel(kind="ideal", hyperfine_on=False),
        PiPulseModel(kind="finite", rabi_freq=TWO_PI * 20.0),
        PiPulseModel(kind="finite", rabi_freq=TWO_PI * 20.0,
                     hyperfine_on=False),
    ], ids=["ideal", "ideal-no-hyperfine", "finite", "finite-no-hyperfine"])
    def test_matches_four_level_reference(self, pulse, detuning, n_reps,
                                          steps_per_block):
        p = replace(operating_field(NV, 5.65, phi=0.4), B=5.9,
                    omega=control_frequency(NV) + detuning)
        seq = PulseSequence(n_reps, 0.017, pulse)
        u = sequence_unitary(seq, NV, p, steps_per_block=steps_per_block)
        ref = _reference_sequence_unitary(seq, NV, p, steps_per_block)
        assert np.max(np.abs(u - ref)) <= 1e-12
        # the propagator never couples the two nuclear blocks
        assert np.all(u[0::2, 1::2] == 0.0)
        assert np.all(u[1::2, 0::2] == 0.0)

    # zero rotation in the hz = 0 block (B = 0 on resonance), one step and
    # a whole window of half turns, and turns just short of them; on
    # resonance the drive is static, so the exact windows are the reference
    @pytest.mark.parametrize("steps_per_block", [1, 4096])
    @pytest.mark.parametrize("turn,B_c", [(0.0, 5.65), (0.0, 0.0),
                                          (np.pi, 5.65), (np.pi - 1e-7, 5.65)],
                             ids=["zero", "zero-no-control", "half",
                                  "near-half"])
    def test_window_power_edge_cases(self, turn, B_c, steps_per_block):
        p = replace(operating_field(NV, B_c), B=0.0)
        seq = PulseSequence(2, 0.017, IDEAL)
        # gamma B dt = turn makes each step of the hz = 0 block that turn
        p = replace(p, B=turn * steps_per_block / (p.gamma * seq.tau))
        u = sequence_unitary(seq, NV, p, steps_per_block=steps_per_block)
        # a window turns by up to 4096 pi, which no float holds to better
        # than 4096 pi eps
        tol = 1e-12 + 1e-15 * seq.n_reps * steps_per_block
        assert np.max(np.abs(u - _exact_sequence_unitary(seq, NV, p))) <= tol
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12

    def test_rejects_empty_target_windows(self):
        p = operating_field(NV, 5.65)
        seq = PulseSequence(1, 0.017, IDEAL)
        with pytest.raises(ValueError, match="steps_per_block"):
            sequence_unitary(seq, NV, p, steps_per_block=0)


def _pair_product(p, q):
    """SU(2) pair product p @ q, as the engine formed it one repetition at
    a time."""
    (a1, b1), (a2, b2) = p, q
    out = np.empty((2,) + np.broadcast(a1, a2).shape, dtype=complex)
    np.multiply(a1, a2, out=out[0])
    out[0] -= np.conj(b1) * b2
    np.multiply(b1, a2, out=out[1])
    out[1] += np.conj(a1) * b2
    return out


def _per_repetition_unitaries(seq, nv, p, B, omega, steps_per_block):
    """_sequence_unitaries with two fresh pair products per repetition, as
    the engine ran before it wrote them in place: the byte-for-byte oracle
    of the in-place loop."""
    tau, pulse = seq.tau, seq.pulse
    n_reps, B, omega = np.broadcast_arrays(np.ravel(seq.n_reps), np.ravel(B),
                                           np.ravel(omega))
    order = np.argsort(-n_reps, kind="stable")
    n_reps, B, omega = n_reps[order], B[order], omega[order]
    dt = tau / steps_per_block
    delta = (omega - p.omega_c)[:, None]
    table = np.empty((B.size + 2, 4))
    table[:-2, 0], table[:-2, 1:] = p.gamma * B, (0.0, dt, 1.0)
    table[-2] = (-p.gamma * p.B_c * np.cos(p.phi_c),
                 p.gamma * p.B_c * np.sin(p.phi_c), tau, 1.0)
    table[-1] = ((0.5 * pulse.rabi_freq, 0.0, np.pi / pulse.rabi_freq,
                  float(pulse.hyperfine_on)) if pulse.kind == "finite"
                 else (1.0, 0.0, 0.0, 0.0))
    ax, ay, dts, weight = table.T[..., None]
    steps = nv_module._su2_exp(ax, ay, weight * nv_module._hyperfine_z(nv),
                               dts)
    x, ctrl, pi = steps[:, :-2], steps[:, -2], steps[:, -1]
    q = (_pair_product(pi, _pair_product(ctrl, pi)) if pulse.kind == "finite"
         else np.stack([np.conj(ctrl[0]), -np.conj(ctrl[1])]))
    s = np.exp(-0.5j * delta * dt)
    a, b = nv_module._su2_pow(np.stack([x[0] * s, x[1] * np.conj(s)]),
                              steps_per_block)
    a *= np.exp(0.5j * delta * tau)
    theta = p.phi + 0.5 * delta * (dt + tau)
    u = np.stack([a, b * np.exp(-1j * theta)])
    for k in range(1, n_reps[0]):
        m = np.searchsorted(-n_reps, -k)  # points with n_reps > k
        window = np.stack([a[:m], b[:m] * np.exp(
            -1j * (theta[:m] + 2 * k * tau * delta[:m]))])
        u[:, :m] = _pair_product(window, _pair_product(q, u[:, :m]))
    u = _pair_product(q, u)[:, np.argsort(order)]
    out = np.zeros((B.size, 4, 4), dtype=complex)
    out[:, 0::2, 0::2], out[:, 1::2, 1::2] = nv_module._su2_matrix(
        u).swapaxes(0, 1)
    return out


class TestRepetitionLoop:
    """The in-place products of _sequence_unitaries give the propagators
    of fresh per-repetition products byte for byte."""

    PULSES = [IDEAL, PiPulseModel(kind="ideal", hyperfine_on=False),
              PiPulseModel(kind="finite", rabi_freq=TWO_PI * 20.0),
              PiPulseModel(kind="finite", rabi_freq=TWO_PI * 20.0,
                           hyperfine_on=False)]

    @staticmethod
    def _check(seq, p, B, omega, steps_per_block):
        got = nv_module._sequence_unitaries(seq, NV, p, B, omega,
                                            steps_per_block)
        ref = _per_repetition_unitaries(seq, NV, p, B, omega, steps_per_block)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_reps", [
        [1, 1, 1, 1], 6, [3, 7, 1, 7, 2, 3, 7], [12, 1, 5, 5, 9, 2, 12]],
        ids=["all-one", "scalar", "tied-unsorted", "tied-unsorted-long"])
    @pytest.mark.parametrize("steps_per_block", [1, 16])
    @pytest.mark.parametrize("pulse", PULSES, ids=[
        "ideal", "ideal-no-hyperfine", "finite", "finite-no-hyperfine"])
    def test_matches_the_per_repetition_loop(self, pulse, steps_per_block,
                                             n_reps):
        p = operating_field(NV, 5.65, phi=0.4)
        size = np.size(n_reps) if np.ndim(n_reps) else 5
        B = np.linspace(0.0, 9.0, size)  # B = 0 included
        omega = p.omega + np.linspace(-30.0, 45.0, size)
        self._check(PulseSequence(n_reps, 0.017, pulse), p, B, omega,
                    steps_per_block)

    @pytest.mark.parametrize("command,config", [
        ("nv-scaling", {}),
        ("nv-scaling", {"scaling": {"n_max": 40},
                        "protocol": {"pulse": {"kind": "finite"}}}),
        ("nv-sweep", {}),
        ("nv-sweep", {"protocol": {"pulse": {"kind": "finite",
                                             "hyperfine_on": False}}}),
        ("adaptive", {})],
        ids=["nv-scaling", "nv-scaling-finite", "nv-sweep",
             "nv-sweep-finite-no-hyperfine", "adaptive"])
    def test_matches_on_the_cli_batches(self, tmp_path, monkeypatch, command,
                                        config):
        batches = []
        engine = nv_module._sequence_unitaries

        def record(seq, nv, p, B, omega, steps_per_block):
            batches.append((seq, p, B, omega, steps_per_block))
            return engine(seq, nv, p, B, omega, steps_per_block)

        monkeypatch.setattr(nv_module, "_sequence_unitaries", record)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        cli.run(command, path, None, tmp_path)
        monkeypatch.undo()
        assert batches
        for seq, p, B, omega, steps_per_block in batches:
            self._check(seq, p, B, omega, steps_per_block)

    def test_memory_does_not_grow_as_n_max_squared(self):
        # one point per N = 1..n_max: a table of every repetition's window
        # at every point would take n_max^2 / 2 complex pairs, 64 MB at
        # n_max = 2000, where the batch itself grows as n_max
        p = operating_field(NV, 5.65)
        peaks = {}
        for n_max in (500, 2000):
            seq = PulseSequence(np.arange(1, n_max + 1), 0.017, IDEAL)
            tracemalloc.start()
            try:
                nv_module._sequence_unitaries(seq, NV, p, p.B, p.omega, 32)
                peaks[n_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # a peak linear in n_max grows at most 4-fold, a quadratic one 16-fold
        assert peaks[2000] < 8 * peaks[500]
        assert peaks[2000] < 8e6


def _exact_sequence_unitary(seq, nv, p):
    """Four-level propagator with exact target windows.

    In the frame of S(x) = exp(-i x sz_e / 2) at theta(t) = delta t + phi,
    delta = omega - omega_c, the target drive gB (cos(theta) sx_e -
    sin(theta) sy_e) is the static gB sx_e and the frame adds (delta/2)
    sz_e, so a window from t0 is S(theta(t0 + tau))^dag exp(-i (gB sx_e +
    H_int + (delta/2) sz_e) tau) S(theta(t0)). Control windows and pi
    pulses are as in the four-level reference.
    """
    u_pi, u_ctrl = _pi_and_control(seq, nv, p)
    delta = p.omega - p.omega_c
    u_win = expm_hermitian(p.gamma * p.B * SX_E + _hyperfine(nv)
                           + 0.5 * delta * SZ_E, seq.tau)

    def s(x):
        return np.diag(np.exp(-0.5j * x * np.diag(SZ_E)))

    u = np.eye(4, dtype=complex)
    for k in range(seq.n_reps):
        t0 = 2 * k * seq.tau
        u = (s(delta * (t0 + seq.tau) + p.phi).conj().T @ u_win
             @ s(delta * t0 + p.phi) @ u)
        u = u_pi @ u_ctrl @ u_pi @ u
    return u


class TestExactWindows:
    def test_constant_drive_is_exact(self):
        # on resonance the drive is static and a midpoint step is exact
        p = replace(operating_field(NV, 5.65, phi=0.4), B=5.9)
        seq = PulseSequence(3, 0.017, IDEAL)
        u = sequence_unitary(seq, NV, p, steps_per_block=1)
        assert np.max(np.abs(u - _exact_sequence_unitary(seq, NV, p))) <= 1e-13

    @pytest.mark.parametrize("pulse", [IDEAL, PiPulseModel(kind="finite")],
                             ids=["ideal", "finite"])
    @pytest.mark.parametrize("detuning", [2.0, -40.0])
    def test_midpoint_windows_converge_at_second_order(self, pulse, detuning):
        p = replace(operating_field(NV, 5.65, phi=0.4), B=5.9,
                    omega=control_frequency(NV) + detuning)
        seq = PulseSequence(4, 0.05, pulse)
        exact = _exact_sequence_unitary(seq, NV, p)
        errs = [np.linalg.norm(sequence_unitary(seq, NV, p, steps_per_block=s)
                               - exact, 2) for s in (8, 16, 32, 64, 4096)]
        for a, b in zip(errs, errs[1:4]):
            assert 3.9 <= a / b <= 4.1
        assert errs[4] <= 1e-3 * errs[3]

    # in the target's frame a midpoint step is the Strang splitting
    # S(delta dt / 2) X S(delta dt / 2) of exp(-i (H0 + (delta/2) sz) dt),
    # H0 = gB sx + hz sz, whose error per step is at most dt^3 times
    # |[B,[B,A]]| / 12 + |[A,[A,B]]| / 24; so a sequence is off by at most
    # N tau dt^2 |delta| gB (|H0| / 6 + |delta| / 24) per nuclear block
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n_reps=st.integers(1, 64), steps_per_block=st.integers(1, 4096),
           # omega stays positive: delta tau > -omega_c tau, about -200
           delta_tau=st.one_of(st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
                               st.floats(-3.0, 2.0).map(lambda e: -10.0**e)),
           B=st.floats(0.0, 20.0), phi=st.floats(-np.pi, np.pi),
           pulse=st.sampled_from([IDEAL, PiPulseModel(kind="finite")]))
    def test_window_powers_stay_within_the_splitting_bound(
            self, n_reps, steps_per_block, delta_tau, B, phi, pulse):
        tau = 0.017
        p = replace(operating_field(NV, 5.65, phi=phi), B=B,
                    omega=control_frequency(NV) + delta_tau / tau)
        seq = PulseSequence(n_reps, tau, pulse)
        u = sequence_unitary(seq, NV, p, steps_per_block=steps_per_block)
        exact = _exact_sequence_unitary(seq, NV, p)
        delta, gb = abs(delta_tau / tau), p.gamma * B
        dt = tau / steps_per_block
        bound = (n_reps * tau * dt * dt * delta * gb
                 * (np.hypot(gb, NV.A / 2) / 6 + delta / 24))
        # rounding of the window phases, which reach delta * 2 N tau
        slack = 1e-12 + 1e-15 * n_reps * (1 + abs(delta_tau))
        assert np.max(np.abs(u - exact)) <= bound + slack
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12


class TestBellReadout:
    def test_operating_point_distribution_is_flat(self):
        p = operating_field(NV, 5.65)
        seq = PulseSequence(8, 0.017, IDEAL)
        psi = simulate_sequence(seq, NV, p, bell_state("phi+"))
        probs = bell_readout(psi)
        np.testing.assert_allclose(probs, 0.25, atol=1e-3)

    def test_readout_rotation_is_the_stated_rotation(self):
        # exp(-i pi n.sigma / 3) about n = (1, 1, 1)/sqrt(3): cos(pi/3) = 1/2
        # and sin(pi/3)/sqrt(3) = 1/2, so it is (I - i(sx + sy + sz)) / 2
        sx = np.array([[0, 1], [1, 0]])
        sy = np.array([[0, -1j], [1j, 0]])
        stated = (np.eye(2) - 1j * (sx + sy + SZ)) / 2
        np.testing.assert_allclose(nv_module.READOUT_ROTATION, stated,
                                   rtol=0, atol=1e-15)

    def test_projects_onto_the_bell_basis_after_the_electron_rotation(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            psi = haar_state(4, rng)
            rotated = np.kron(nv_module.READOUT_ROTATION, np.eye(2)) @ psi
            np.testing.assert_allclose(
                bell_readout(psi), np.abs(np.conj(bell_basis()) @ rotated)**2,
                rtol=0, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            probs = bell_readout(haar_state(4, rng))
            assert np.sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_spam_map_shifts_total(self):
        ro = ReadoutModel(contrast=0.8, baseline=0.03)
        rng = np.random.default_rng(16)
        probs = ro.spam(bell_readout(haar_state(4, rng)))
        assert np.sum(probs) == pytest.approx(4 * 0.03 + 0.8, abs=1e-9)

    def test_spam_validation(self):
        with pytest.raises(ValueError):
            ReadoutModel(contrast=0.9, baseline=0.2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["sigma", "contrast", "baseline"])
    def test_non_finite_entry_is_named(self, name, value):
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, got {value}$"):
            ReadoutModel(**{name: value})

    @pytest.mark.parametrize("sigma,square", [(1e-300, "0.0"),
                                              (1e-150, "1e-300")])
    def test_underflowing_sigma_rejected(self, sigma, square):
        # sigma^2 scales every covariance; below this floor the
        # uncertainties would read 0
        with pytest.raises(ValueError) as info:
            ReadoutModel(sigma=sigma)
        assert str(info.value) == (f"readout.sigma = {sigma!r} is too small: "
                                   f"its square {square} underflows")


class TestSweepSignal:
    def _sweep(self, axis, n_reps, **kw):
        p = operating_field(NV, 5.65)
        ro = ReadoutModel()
        if axis == "B":
            values = p.B + np.linspace(-0.2 / n_reps, 0.2 / n_reps, 5)
        else:
            values = p.omega + np.linspace(-2.0 / n_reps**2, 2.0 / n_reps**2, 5)
        return sweep_signal(axis, values, p, NV, n_reps, 0.017, IDEAL, ro, **kw)

    def test_more_repetitions_steepen_slopes(self):
        for axis in ("B", "omega"):
            s1 = self._sweep(axis, 1)
            s8 = self._sweep(axis, 8)
            assert np.all(np.abs(s8.slopes) > np.abs(s1.slopes))

    def test_signals_are_one_minus_probabilities(self):
        res = self._sweep("B", 2)
        np.testing.assert_allclose(res.signals, 1.0 - res.probs[:, :2],
                                   atol=1e-12)
        # stored populations are pre-SPAM and conserve probability
        np.testing.assert_allclose(res.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_unrotated_population_extremal_at_operating_point(self):
        # without the readout rotation the matched point is a fidelity
        # maximum, so the first Bell population peaks there
        p = operating_field(NV, 5.65)
        values = p.omega + np.linspace(-3.0, 3.0, 21)
        pops = []
        for v in values:
            pv = replace(p, omega=v)
            seq = PulseSequence(2, 0.017, IDEAL)
            psi = simulate_sequence(seq, NV, pv, bell_state("phi+"))
            pops.append(abs(np.conj(bell_basis()) @ psi)[0] ** 2)
        assert np.argmax(pops) == 10  # center of the grid

    # a one-step target window is the window power's edge case
    @pytest.mark.parametrize("steps_per_block", [1, 16])
    @pytest.mark.parametrize("pulse", [IDEAL, PiPulseModel(kind="finite")],
                             ids=["ideal", "finite"])
    @pytest.mark.parametrize("axis,halfwidth", [("B", 0.1), ("omega", 1.0)])
    def test_one_batch_matches_per_point_readout(self, monkeypatch, axis,
                                                 halfwidth, pulse,
                                                 steps_per_block):
        p = operating_field(NV, 5.65)
        values = getattr(p, axis) + np.linspace(-halfwidth, halfwidth, 7)
        seq = PulseSequence(3, 0.017, pulse)
        ref = [bell_readout(simulate_sequence(
            seq, NV, replace(p, **{axis: v}), bell_state("phi+"),
            steps_per_block)) for v in values]
        calls = []
        kernel = nv_module._su2_exp
        monkeypatch.setattr(nv_module, "_su2_exp",
                            lambda *a: calls.append(a) or kernel(*a))
        res = sweep_signal(axis, values, p, NV, 3, 0.017, pulse,
                           ReadoutModel(), steps_per_block=steps_per_block)
        # the whole sweep is one SU(2) exponential of every point's steps
        assert len(calls) == 1
        assert np.max(np.abs(res.probs - ref)) <= 1e-14

    def test_zero_width_range_rejected(self):
        p = operating_field(NV, 5.65)
        ro = ReadoutModel()
        with pytest.raises(SweepError) as info:
            sweep_signal("B", [5.6, 5.6, 5.6], p, NV, 1, 0.017, IDEAL, ro)
        err = info.value
        assert (err.axis, err.n_reps, err.low, err.high) == ("B", 1, 5.6, 5.6)
        assert str(err) == "the B sweep at N = 1 has zero width about 5.6"
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is SweepError and str(back) == str(err)
        assert (back.axis, back.n_reps, back.low, back.high) == (
            "B", 1, 5.6, 5.6)
        with pytest.raises(ValueError):  # too few points for a slope fit
            sweep_signal("B", [5.6, 5.7], p, NV, 1, 0.017, IDEAL, ro)

    @pytest.mark.parametrize("low", [1e-9, 0.5, 1.0])
    def test_omega_sweep_reaching_down_to_one_is_accepted(self, low):
        # FieldParams' bound is omega > 0: a low end in (0, 1] rad/us passes
        values = low + np.array([0.0, 0.5, 1.0])
        res = sweep_signal("omega", values, operating_field(NV, 5.65), NV, 1,
                           0.017, IDEAL, ReadoutModel())
        assert res.values.tolist() == values.tolist()
        assert np.isfinite(res.probs).all()

    @pytest.mark.parametrize("values", [[5.6, np.nan, 5.7],
                                        [-np.inf, 5.6, np.inf]])
    def test_non_finite_range_rejected(self, values):
        with pytest.raises(SweepError,
                           match="^the B sweep at N = 1 is not finite$"):
            sweep_signal("B", values, operating_field(NV, 5.65), NV, 1,
                         0.017, IDEAL, ReadoutModel())

    @pytest.mark.parametrize("add_noise", [False, True],
                             ids=["noiseless", "noisy"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_populations_name_tau(self, add_noise):
        # a window of 1e308 us takes every phase to inf: the Bell
        # populations are NaN before any noise is added, and it is tau
        # that is named, not the noise
        p = operating_field(NV, 5.65)
        with pytest.raises(FloatingPointError, match=(
                r"^non-finite Bell populations in the omega sweep at N = 3, "
                r"omega = .* \(protocol\.tau = 1e\+308\)$")):
            sweep_signal("omega", p.omega + np.linspace(-0.1, 0.1, 5), p, NV,
                         3, 1e308, IDEAL, ReadoutModel(), add_noise=add_noise)

    class _Reached(Exception):
        """The sweeps passed their check and reached the engine."""

    # through _pair_specs and _sweeps, the swept axis fails exactly when
    # its half-width rounds away at its centre or its low end breaks
    # FieldParams' bound (B >= 0, omega > 0); the other axis stays valid
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(axis=st.sampled_from(["B", "omega"]),
           centre=st.floats(-1e300, 1e300),
           half=st.floats(1e-300, 1e300),
           n_reps=st.integers(1, 64))
    def test_sweep_check_is_its_rule(self, axis, centre, half, n_reps):
        p = operating_field(NV, 5.65)
        sweeps = {"B": (p.B, 0.2), "omega": (p.omega, 2.0),
                  axis: (centre, half)}
        (b, hb), (w, hw) = sweeps["B"], sweeps["omega"]
        low, high = centre - half, centre + half
        fails = low == high or not (low >= 0 if axis == "B" else low > 0)

        def engine(*args):
            raise self._Reached

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nv_module, "_sequence_unitaries", engine)
            specs = nv_module._pair_specs((b, w), n_reps, hb, hw, 5, 0)
            with pytest.raises(SweepError if fails else self._Reached) as info:
                nv_module._sweeps(specs, p, NV, 0.017, IDEAL, ReadoutModel(),
                                  False, 32)
        if fails:
            err = info.value
            assert (err.axis, err.n_reps, err.low, err.high) == (
                axis, n_reps, low, high)

    def test_noise_is_seed_deterministic(self):
        a = self._sweep("B", 1, seed=5, add_noise=True)
        b = self._sweep("B", 1, seed=5, add_noise=True)
        c = self._sweep("B", 1, seed=6, add_noise=True)
        np.testing.assert_array_equal(a.signals, b.signals)
        assert np.any(a.signals != c.signals)

    @pytest.mark.parametrize("seed", [0, 7919, 2**64 - 1])
    def test_noise_is_numpys_normal_of_each_seed_and_point(self, seed):
        # the shot noise of point i is default_rng([seed, i]).normal(0,
        # sigma), bit for bit
        noisy = self._sweep("omega", 2, seed=seed, add_noise=True)
        quiet = self._sweep("omega", 2, seed=seed)
        sigma = ReadoutModel().sigma
        noise = np.array([np.random.default_rng([seed, i]).normal(
            0.0, sigma, size=2) for i in range(5)])
        assert noisy.signals.tobytes() == (quiet.signals + noise).tobytes()


class TestSweepRecords:
    """Only sweep_signal builds SweepResults; the studies read the arrays
    of _sweeps."""

    def test_study_paths_build_no_records(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a SweepResult was built")

        monkeypatch.setattr(nv_module, "SweepResult", refuse)
        scaling_study(NV, ReadoutModel(), n_values=(1, 2, 3))
        w_c = control_frequency(NV)
        adaptive_loop((5.7, w_c + 0.3), (5.65, w_c), 2, 10**6, NV)
        path = tmp_path / "c.json"
        path.write_text("{}")
        cli.run("nv-sweep", path, None, tmp_path)
        with pytest.raises(AssertionError, match="SweepResult was built"):
            sweep_signal("B", _VALUES, _AT, NV, 1, 0.017, IDEAL,
                         ReadoutModel())

    @pytest.mark.parametrize("signals_used", ["two", "three"])
    @pytest.mark.parametrize("pulse", [IDEAL, PiPulseModel(kind="finite")],
                             ids=["ideal", "finite"])
    def test_record_is_its_row_of_the_batch(self, pulse, signals_used):
        p = operating_field(NV, 5.65)
        ro = ReadoutModel(signals_used=signals_used)
        specs = nv_module._pair_specs((p.B, p.omega), 3, 0.05, 0.5, 7, 11)
        rows = nv_module._sweeps(specs, p, NV, 0.017, pulse, ro, True, 16)
        for i, axis in enumerate(specs[0]):
            res = sweep_signal(axis, specs[1][i], p, NV, 3, 0.017, pulse, ro,
                               seed=int(specs[3][i]), add_noise=True,
                               steps_per_block=16)
            assert res.axis == axis
            fields = (res.values, res.probs, res.signals, res.slopes,
                      res.slope_stderr)
            for got, want in zip(fields, (specs[1], *rows[:4])):
                assert got.shape == want[i].shape
                assert got.tobytes() == want[i].tobytes()


class TestParameterUncertainty:
    def _fake_sweeps(self, j11, j22, j12=0.0, j21=0.0, stderr=0.0):
        mk = lambda axis, col: SweepResult(
            axis=axis, values=np.zeros(5), probs=np.zeros((5, 4)),
            signals=np.zeros((5, 2)), slopes=np.array(col),
            slope_stderr=np.full(2, stderr))
        return mk("B", [j11, j21]), mk("omega", [j12, j22])

    def test_diagonal_jacobian(self):
        ro = ReadoutModel(sigma=1e-3)
        sb, sw = self._fake_sweeps(2.0, 4.0)
        res = parameter_uncertainty(sb, sw, ro)
        assert res.delta_b == pytest.approx(1e-3 / 2.0)
        assert res.delta_w == pytest.approx(1e-3 / 4.0)

    def test_noise_scale_linearity(self):
        sb, sw = self._fake_sweeps(2.0, 4.0, 0.3, -0.2)
        r1 = parameter_uncertainty(sb, sw, ReadoutModel(sigma=1e-3))
        r2 = parameter_uncertainty(sb, sw, ReadoutModel(sigma=2e-3))
        assert r2.delta_b == pytest.approx(2 * r1.delta_b)
        assert r2.delta_w == pytest.approx(2 * r1.delta_w)

    def test_singular_jacobian_raises(self):
        sb, sw = self._fake_sweeps(1.0, 1e-12, 1.0, 1e-12)
        with pytest.raises(JacobianError) as info:
            parameter_uncertainty(sb, sw, ReadoutModel())
        err = info.value
        assert err.condition > 1e8
        assert f"{err.condition:.3e}" in str(err)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is JacobianError and str(back) == str(err)
        assert back.condition == err.condition
        assert err.n_reps is None and back.n_reps is None

    @staticmethod
    def _loop_reference(sb, sw, ro):
        """One inverse per Jacobian with a nonzero slope error moved."""
        k = ro.n_signals
        j = np.column_stack([sb.slopes[:k], sw.slopes[:k]])
        se = np.column_stack([sb.slope_stderr[:k], sw.slope_stderr[:k]])
        cov = lambda m: ro.sigma**2 * np.linalg.inv(m.T @ m)
        delta = np.sqrt(np.diag(cov(j)))
        grad_sq = np.zeros(2)
        for r, c in zip(*np.nonzero(se)):
            moved = j.copy()
            moved[r, c] += se[r, c]
            grad_sq += (np.sqrt(np.diag(cov(moved))) - delta) ** 2
        return delta, np.sqrt(grad_sq)

    def test_mixed_zero_stderrs_match_the_per_pair_loop(self):
        ro = ReadoutModel(sigma=1e-3)
        sb, sw = self._fake_sweeps(2.0, 4.0, 0.3, -0.2)
        mixed = (replace(sb, slope_stderr=np.array([0.0, 0.02])),
                 replace(sw, slope_stderr=np.array([0.01, 0.0])))
        zero = self._fake_sweeps(1.5, -3.0, 0.7, 0.1)
        for pair in (mixed, zero):
            res = parameter_uncertainty(*pair, ro)
            delta, err = self._loop_reference(*pair, ro)
            assert [res.delta_b, res.delta_w] == pytest.approx(delta,
                                                               rel=1e-12)
            assert [res.delta_b_err, res.delta_w_err] == pytest.approx(
                err, rel=1e-9)
        assert res.delta_b_err == res.delta_w_err == 0.0
        # the two pairs stacked give each pair's result
        stack = lambda name: np.array([np.column_stack(
            [getattr(s, name) for s in pair]) for pair in (mixed, zero)])
        delta, err = nv_module._uncertainties(
            stack("slopes"), stack("slope_stderr"), ro.sigma)
        for i, pair in enumerate((mixed, zero)):
            res = parameter_uncertainty(*pair, ro)
            assert [res.delta_b, res.delta_w] == delta[i].tolist()
            assert [res.delta_b_err, res.delta_w_err] == err[i].tolist()

    def test_three_signals_never_worse(self):
        p = operating_field(NV, 5.65)
        ro2 = ReadoutModel(signals_used="two")
        ro3 = ReadoutModel(signals_used="three")
        vb = p.B + np.linspace(-0.1, 0.1, 5)
        vw = p.omega + np.linspace(-1.0, 1.0, 5)
        args = (p, NV, 2, 0.017, IDEAL)
        sb3 = sweep_signal("B", vb, *args, ro3)
        sw3 = sweep_signal("omega", vw, *args, ro3)
        r3 = parameter_uncertainty(sb3, sw3, ro3)
        sb2 = sweep_signal("B", vb, *args, ro2)
        sw2 = sweep_signal("omega", vw, *args, ro2)
        r2 = parameter_uncertainty(sb2, sw2, ro2)
        assert r3.delta_b <= r2.delta_b * (1 + 1e-9)
        assert r3.delta_w <= r2.delta_w * (1 + 1e-9)
        # and the two- and three-signal figures stay close
        assert r3.delta_w == pytest.approx(r2.delta_w, rel=0.5)

    def test_sigma_whose_square_overflows_is_named(self):
        # sigma**2 of a Python float raises a bare (34, 'Numerical result
        # out of range') there
        sb, sw = self._fake_sweeps(2.0, 4.0)
        with pytest.raises(OverflowError, match=(
                r"^readout\.sigma = 1e\+200 squared overflows$")):
            parameter_uncertainty(sb, sw, ReadoutModel(sigma=1e200))
        res = parameter_uncertainty(sb, sw, ReadoutModel(sigma=1e150))
        assert res.delta_b == pytest.approx(1e150 / 2.0)

    def test_stderr_propagates_to_error_bars(self):
        sb, sw = self._fake_sweeps(2.0, 4.0, stderr=0.0)
        assert parameter_uncertainty(sb, sw, ReadoutModel()).delta_b_err == 0.0
        sb, sw = self._fake_sweeps(2.0, 4.0, stderr=0.01)
        assert parameter_uncertainty(sb, sw, ReadoutModel()).delta_b_err > 0.0


class TestScaling:
    def test_exact_power_law_recovered(self):
        n = np.arange(1, 9)
        exponent, stderr = loglog_slope(n, 3.7 / n)
        assert exponent == pytest.approx(-1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_requires_positive_data(self):
        with pytest.raises(ValueError):
            loglog_slope([1, 2, 3], [1.0, -1.0, 0.5])
        with pytest.raises(ValueError):
            loglog_slope([1, 2], [1.0, 0.5])

    def test_ideal_pulse_exponents(self):
        res = scaling_study(NV, ReadoutModel())
        assert res.exponent_b == pytest.approx(-1.0, abs=0.05)
        assert res.exponent_w == pytest.approx(-2.0, abs=0.05)

    @pytest.mark.parametrize("add_noise", [False, True],
                             ids=["noiseless", "noisy"])
    @pytest.mark.parametrize("pulse", [IDEAL, PiPulseModel(kind="finite")],
                             ids=["ideal", "finite"])
    def test_one_batch_matches_per_n_sweeps(self, monkeypatch, pulse,
                                            add_noise):
        n_values = (3, 4, 6, 9)
        kernel = nv_module._su2_exp
        p = operating_field(NV, 5.65)
        for ro in (ReadoutModel(), ReadoutModel(signals_used="three")):
            calls = []
            monkeypatch.setattr(nv_module, "_su2_exp",
                                lambda *a: calls.append(a) or kernel(*a))
            res = scaling_study(NV, ro, n_values=n_values, pulse=pulse,
                                points=7, seed=11, add_noise=add_noise)
            # every N and both axes are one SU(2) exponential
            assert len(calls) == 1
            monkeypatch.undo()
            for i, n in enumerate(n_values):
                args = (p, NV, n, 0.017, pulse, ro)
                sb = sweep_signal("B", p.B + np.linspace(-0.2 / n, 0.2 / n, 7),
                                  *args, seed=11, add_noise=add_noise)
                sw = sweep_signal(
                    "omega", p.omega + np.linspace(-2.0 / n**2, 2.0 / n**2, 7),
                    *args, seed=12, add_noise=add_noise)
                ref = parameter_uncertainty(sb, sw, ro)
                assert res.delta_b[i] == pytest.approx(ref.delta_b, rel=1e-12)
                assert res.delta_w[i] == pytest.approx(ref.delta_w, rel=1e-12)
                assert res.delta_b_err[i] == pytest.approx(ref.delta_b_err,
                                                           rel=1e-9)
                assert res.delta_w_err[i] == pytest.approx(ref.delta_w_err,
                                                           rel=1e-9)

    def test_singular_jacobian_names_its_n(self, monkeypatch):
        fit = nv_module.ols_slope

        def collinear_at_n4(x, y):
            # the omega sweep of N = 4, the fourth sweep, copies the slopes
            # of its B sweep, so that N's Jacobian has equal columns
            slopes, stderr = fit(x, y)
            slopes[3] = slopes[2]
            return slopes, stderr

        monkeypatch.setattr(nv_module, "ols_slope", collinear_at_n4)
        with pytest.raises(JacobianError) as info:
            scaling_study(NV, ReadoutModel(), n_values=(3, 4, 6))
        err = info.value
        assert err.n_reps == 4 and err.condition > 1e8
        assert str(err).startswith("signal Jacobian at N = 4 is singular")
        back = pickle.loads(pickle.dumps(err))
        assert back.n_reps == 4 and str(back) == str(err)

    def test_singular_nv_sweep_jacobian_names_its_n(self, monkeypatch,
                                                     tmp_path, capsys):
        fit = nv_module.ols_slope

        def collinear(x, y):
            # the omega sweep copies the slopes of the B sweep
            slopes, stderr = fit(x, y)
            slopes[1] = slopes[0]
            return slopes, stderr

        monkeypatch.setattr(nv_module, "ols_slope", collinear)
        path = tmp_path / "c.json"
        path.write_text("{}")  # protocol.n_reps defaults to 8
        assert cli.main(["nv-sweep", "--config", str(path), "--out",
                         str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "numerical error in nv-sweep: signal Jacobian at N = 8 is "
            "singular (condition number ")

    def test_finite_pulses_oscillate_about_power_law(self):
        ro = ReadoutModel()
        ideal = scaling_study(NV, ro)
        finite = scaling_study(NV, ro, pulse=PiPulseModel(kind="finite"))

        def max_log_residual(res):
            fit = np.polyfit(np.log(res.n_values), np.log(res.delta_w), 1)
            model = np.polyval(fit, np.log(res.n_values))
            return np.max(np.abs(np.log(res.delta_w) - model))

        assert max_log_residual(finite) > max_log_residual(ideal)


class TestAdaptiveLoop:
    W_C = control_frequency(NV)

    def test_zero_rounds_returns_initial(self):
        traj = adaptive_loop((5.7, self.W_C + 0.3), (5.65, self.W_C), 0,
                             10**6, NV)
        assert traj.shape == (1, 2)
        np.testing.assert_allclose(traj[0], [5.65, self.W_C])

    def test_noiseless_newton_step_converges(self):
        truth = (5.70, self.W_C + 0.3)
        traj = adaptive_loop(truth, (5.65, self.W_C), 1, 10**6, NV,
                             noiseless=True)
        assert abs(traj[-1, 0] - truth[0]) < 0.05 * abs(traj[0, 0] - truth[0])
        assert abs(traj[-1, 1] - truth[1]) < 0.05 * abs(traj[0, 1] - truth[1])

    def test_each_round_is_one_batch(self, monkeypatch):
        # the measurement at the true field shares its round's Jacobian
        # batch; computed alone, it gives the same first step
        truth, start = (5.70, self.W_C + 0.3), (5.65, self.W_C)
        calls = []
        kernel = nv_module._su2_exp
        monkeypatch.setattr(nv_module, "_su2_exp",
                            lambda *a: calls.append(a) or kernel(*a))
        traj = adaptive_loop(truth, start, 3, 10**6, NV, noiseless=True)
        assert len(calls) == 3
        monkeypatch.undo()
        ctrl = FieldParams(B=truth[0], omega=truth[1], B_c=start[0],
                           omega_c=start[1], gamma=sensor_coupling(NV))
        psi = simulate_sequence(PulseSequence(2, 0.025, IDEAL), NV, ctrl,
                                bell_state("phi+"), 16)
        at = replace(ctrl, B=start[0], omega=start[1])
        ro = ReadoutModel(sigma=1e-3)
        sb = sweep_signal("B", at.B + np.linspace(-0.05, 0.05, 5), at, NV, 2,
                          0.025, IDEAL, ro, steps_per_block=16)
        sw = sweep_signal("omega", at.omega + np.linspace(-0.5, 0.5, 5), at,
                          NV, 2, 0.025, IDEAL, ro, steps_per_block=16)
        j = np.column_stack([sb.slopes, sw.slopes])
        step = np.linalg.solve(j, 1.0 - bell_readout(psi)[:2] - sb.signals[2])
        np.testing.assert_allclose(traj[1], np.array(start) + step,
                                   rtol=1e-13)

    def test_round_noise_is_numpys_normal_of_each_round(self, monkeypatch):
        # round r's shot noise is default_rng([seed, r]).normal(0, sigma),
        # drawn for every round at once
        truth, start = (5.70, self.W_C + 0.3), (5.65, self.W_C)
        draws = {}
        real = nv_module.index_normals
        monkeypatch.setattr(nv_module, "index_normals",
                            lambda *a: draws.setdefault(a, real(*a)))
        noisy = adaptive_loop(truth, start, 3, 10**6, NV, seed=9)
        assert list(draws) == [(9, 3, 2)]
        sigma = ReadoutModel(n_avg=10**6).sigma
        ref = np.array([np.random.default_rng([9, r]).normal(0.0, sigma, 2)
                        for r in range(3)])
        assert (0.0 + sigma * draws[9, 3, 2]).tobytes() == ref.tobytes()
        quiet = adaptive_loop(truth, start, 3, 10**6, NV, noiseless=True)
        assert np.all(noisy[1:] != quiet[1:])

    def test_divergence_reports_round_index(self):
        truth = (5.7, self.W_C)
        with pytest.raises(AdaptiveDivergenceError) as err:
            adaptive_loop(truth, (9.0, self.W_C), 3, 10**6, NV,
                          window=(0.5, 5.0))
        assert err.value.round_index == 0

    def test_shot_noise_monte_carlo_improves_frequency(self):
        truth = (5.70, self.W_C + 0.3)
        wins = 0
        for trial in range(100):
            traj = adaptive_loop(truth, (5.65, self.W_C), 5, 10**5, NV,
                                 seed=trial)
            if abs(traj[-1, 1] - truth[1]) < abs(traj[0, 1] - truth[1]):
                wins += 1
        assert wins >= 95


_AT = operating_field(NV, 5.65)
_VALUES = _AT.B + np.linspace(-0.1, 0.1, 5)


@pytest.mark.parametrize("call,match", [
    (lambda: sweep_signal("B", _VALUES, _AT, NV, 0, 0.017, IDEAL,
                          ReadoutModel()), "n_reps must be >= 1"),
    (lambda: sweep_signal("B", _VALUES, _AT, NV, 1, 0.0, IDEAL,
                          ReadoutModel()), "tau must be positive"),
    (lambda: sweep_signal("phi", _VALUES, _AT, NV, 1, 0.017, IDEAL,
                          ReadoutModel()),
     "axis must be 'B' or 'omega', got 'phi'"),
    (lambda: PiPulseModel("finite", rabi_freq=0.0),
     "finite pulses require rabi_freq > 0"),
    (lambda: ReadoutModel(sigma=-1.0), "sigma must be positive"),
    (lambda: PiPulseModel("square"),
     "^pulse kind must be 'ideal' or 'finite', got 'square'$"),
    (lambda: ReadoutModel(contrast=0.0),
     r"^contrast must be in \(0, 1\], got 0.0$"),
    (lambda: ReadoutModel(contrast=-0.5),
     r"^contrast must be in \(0, 1\], got -0.5$"),
    (lambda: simulate_sequence(PulseSequence(1, 0.02, IDEAL), NV, _AT,
                               np.array([1.0, 0.0])),
     "probe must be a two-qubit state"),
    (lambda: nv_rotating_hamiltonian(NV, _AT, 0.0, "pulse"),
     "segment must be 'target' or 'control', got 'pulse'"),
    # counts are integers, and a bad count is named
    (lambda: PulseSequence(2.5, 0.02, IDEAL),
     "^n_reps must be an integer, got 2.5$"),
    (lambda: PulseSequence(True, 0.02, IDEAL),
     "^n_reps must be an integer, got True$"),
    (lambda: PulseSequence(np.array([3.0, 1.0]), 0.02, IDEAL),
     "^n_reps must be an integer, got array"),
    (lambda: sequence_unitary(PulseSequence(2, 0.02, IDEAL), NV, _AT,
                              steps_per_block=2.5),
     "^steps_per_block must be an integer, got 2.5$"),
    (lambda: sequence_unitary(PulseSequence(2, 0.02, IDEAL), NV, _AT,
                              steps_per_block=0),
     "^steps_per_block must be >= 1, got 0$"),
    (lambda: scaling_study(NV, ReadoutModel(), n_values=(1, 2.5, 3)),
     "^n_values must be an integer, got \\(1, 2.5, 3\\)$"),
    (lambda: scaling_study(NV, ReadoutModel(), n_values=(0, 1, 2)),
     "^n_values must be >= 1, got \\(0, 1, 2\\)$"),
    (lambda: ReadoutModel(n_avg=0), "^n_avg must be >= 1, got 0$"),
    (lambda: ReadoutModel(n_avg=-4), "^n_avg must be >= 1, got -4$"),
    (lambda: ReadoutModel(n_avg=2.5), "^n_avg must be an integer, got 2.5$"),
    (lambda: adaptive_loop((5.7, 1.0), (5.65, 1.0), 2.5, 10**5, NV),
     "^rounds must be an integer, got 2.5$"),
    (lambda: adaptive_loop((5.7, 1.0), (5.65, 1.0), 2, 1e5, NV),
     "^shots must be an integer, got 100000.0$"),
], ids=["n_reps", "tau", "axis", "rabi", "sigma", "pulse-kind",
        "contrast-zero", "contrast-negative", "probe", "segment",
        "n_reps-float", "n_reps-bool", "n_reps-float-batch",
        "steps_per_block-float", "steps_per_block-zero", "n_values-float",
        "n_values-zero", "n_avg-zero", "n_avg-negative", "n_avg-float",
        "rounds-float", "shots-float"])
def test_rejections(call, match):
    with pytest.raises(ValueError, match=match):
        call()

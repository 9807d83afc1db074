"""NV two-qubit protocol: frames, decoupling, readout, uncertainty fits."""

from dataclasses import replace

import numpy as np
import pytest

from acmag import nv as nv_module
from acmag.fitting import loglog_slope
from acmag.linalg import bell_state, expm_hermitian, haar_state
from acmag.nv import (SX_E, SY_E, SZ_E, SZ_EN, SZ_N, AdaptiveDivergenceError,
                      JacobianError, NvParams, PiPulseModel, ReadoutModel,
                      SweepResult, adaptive_loop, bell_readout, build_sequence,
                      conjugate_by_pi, control_frequency, interaction_term,
                      nv_rotating_hamiltonian, operating_field,
                      parameter_uncertainty, scaling_study, sensor_coupling,
                      sequence_unitary, simulate_sequence, sweep_signal)

TWO_PI = 2.0 * np.pi
NV = NvParams()
IDEAL = PiPulseModel()


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

    def test_sensor_coupling(self):
        assert sensor_coupling(NV) == pytest.approx(NV.gamma_e / np.sqrt(2))


class TestRotatingHamiltonian:
    def test_zero_detuning_target_is_static(self):
        p = operating_field(NV, 5.65)
        h0 = nv_rotating_hamiltonian(NV, p, 0.0, "target")
        h1 = nv_rotating_hamiltonian(NV, p, 3.7, "target")
        np.testing.assert_allclose(h0, h1, atol=1e-12)
        drive = h0 - interaction_term(NV)
        np.testing.assert_allclose(drive, p.gamma * p.B * SX_E, atol=1e-12)

    def test_zero_amplitudes_leave_interaction_only(self):
        p = replace(operating_field(NV, 5.65), B=0.0, B_c=0.0)
        np.testing.assert_allclose(nv_rotating_hamiltonian(NV, p, 1.0, "target"),
                                   interaction_term(NV), atol=1e-15)

    def test_interaction_has_no_nuclear_z_term(self):
        h = interaction_term(NV)
        assert abs(np.trace(SZ_N @ h)) < 1e-12
        assert np.trace(SZ_E @ h) != 0


class TestConjugateByPi:
    @pytest.mark.parametrize("op,sign", [(SZ_E, -1), (SZ_EN, -1), (SX_E, +1)])
    def test_sign_flips(self, op, sign):
        np.testing.assert_allclose(conjugate_by_pi(op), sign * op, atol=1e-15)


class TestBuildSequence:
    def test_block_structure(self):
        seq = build_sequence(1, 0.02, IDEAL)
        assert len(seq.blocks) == 4
        assert seq.total_duration == pytest.approx(0.04)
        kinds = [b[0] for b in seq.blocks]
        assert kinds == ["target", "pi", "control", "pi"]

    def test_target_windows_are_even_intervals(self):
        seq = build_sequence(3, 0.02, IDEAL)
        starts = [b[1] for b in seq.blocks if b[0] == "target"]
        np.testing.assert_allclose(starts, [0.0, 0.04, 0.08])

    def test_validation(self):
        with pytest.raises(ValueError):
            build_sequence(0, 0.02, IDEAL)
        with pytest.raises(ValueError):
            build_sequence(1, -0.1, IDEAL)


class TestSimulateSequence:
    def test_interaction_echoes_out_without_drive(self):
        p = replace(operating_field(NV, 5.65), B=0.0, B_c=0.0)
        for n in (1, 3, 7):
            seq = build_sequence(n, 0.03, IDEAL)
            u = sequence_unitary(seq, NV, p)
            assert _global_phase_distance(u, np.eye(4)) < 1e-8

    def test_matched_operating_point_is_identity(self):
        for phi in (0.0, 0.4):
            p = operating_field(NV, 5.65, phi=phi)
            for n in (1, 4):
                seq = build_sequence(n, 0.03, IDEAL)
                u = sequence_unitary(seq, NV, p)
                assert _global_phase_distance(u, np.eye(4)) < 1e-10

    def test_single_block_matches_average_drive_at_second_order(self):
        # one repetition approximates exp(-i*(H_target+H_control)*tau)
        # = exp(-i * mean * 2 tau); the defect shrinks ~4x per tau halving
        from acmag.linalg import expm_hermitian
        p = replace(operating_field(NV, 5.65), B=6.15)
        errs = []
        # keep gamma*B_c*tau well below 1 so the block defect is quadratic
        for tau in (0.004, 0.002, 0.001):
            seq = build_sequence(1, tau, IDEAL)
            u = sequence_unitary(seq, NV, p)
            h_t = nv_rotating_hamiltonian(NV, p, 0.0, "target") - interaction_term(NV)
            h_c = conjugate_by_pi(
                nv_rotating_hamiltonian(NV, p, 0.0, "control") - interaction_term(NV))
            ideal = expm_hermitian(0.5 * (h_t + h_c), 2 * tau)
            errs.append(np.linalg.norm(u - ideal, 2))
        assert 3.0 <= errs[0] / errs[1] <= 5.0
        assert 3.0 <= errs[1] / errs[2] <= 5.0

    def test_finite_pulse_converges_to_ideal(self):
        p = replace(operating_field(NV, 5.65), B=5.7)
        seq_i = build_sequence(2, 0.02, IDEAL)
        u_ideal = sequence_unitary(seq_i, NV, p)
        fast = PiPulseModel(kind="finite", rabi_freq=1000.0 * abs(NV.A))
        seq_f = build_sequence(2, 0.02, fast)
        u_fast = sequence_unitary(seq_f, NV, p)
        slow = PiPulseModel(kind="finite", rabi_freq=10.0 * abs(NV.A))
        seq_s = build_sequence(2, 0.02, slow)
        u_slow = sequence_unitary(seq_s, NV, p)
        assert (_global_phase_distance(u_fast, u_ideal)
                < 0.1 * _global_phase_distance(u_slow, u_ideal))
        assert _global_phase_distance(u_fast, u_ideal) < 5e-3

    def test_requires_normalized_two_qubit_probe(self):
        p = operating_field(NV, 5.65)
        seq = build_sequence(1, 0.02, IDEAL)
        with pytest.raises(ValueError):
            simulate_sequence(seq, NV, p, np.array([1.0, 1.0, 0, 0]))

    def test_residual_interaction_error_is_quadrature_limited(self):
        # with the hyperfine term switched off, the simulator must agree
        # with itself at any resolution up to midpoint quadrature error
        p = replace(operating_field(NV, 5.65), omega=control_frequency(NV) + 2.0)
        seq = build_sequence(4, 0.05, IDEAL)
        ref = sequence_unitary(seq, NV, p, steps_per_block=2048)
        errs = [np.linalg.norm(sequence_unitary(seq, NV, p, steps_per_block=s)
                               - ref, 2) for s in (8, 16, 32)]
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5


def _reference_sequence_unitary(seq, nv, p, steps_per_block):
    """Four-level reference: a product of per-step 4x4 exponentials.

    Target windows take ``steps_per_block`` midpoint steps of the full
    rotating-frame Hamiltonian, control windows one exact step, and pi
    pulses are sx_e or the exact finite-pulse exponential.
    """
    pulse = seq.pulse
    if pulse.kind == "ideal":
        u_pi = SX_E
    else:
        h_pi = 0.5 * pulse.rabi_freq * SX_E
        if pulse.hyperfine_on:
            h_pi = h_pi + interaction_term(nv)
        u_pi = expm_hermitian(h_pi, np.pi / pulse.rabi_freq)
    u_ctrl = expm_hermitian(nv_rotating_hamiltonian(nv, p, 0.0, "control"),
                            seq.tau)
    dt = seq.tau / steps_per_block
    u = np.eye(4, dtype=complex)
    for block in seq.blocks:
        if block[0] == "pi":
            u = u_pi @ u
        elif block[0] == "control":
            u = u_ctrl @ u
        else:
            for j in range(steps_per_block):
                h = nv_rotating_hamiltonian(nv, p, block[1] + (j + 0.5) * dt,
                                            "target")
                u = expm_hermitian(h, dt) @ u
    return u


class TestTwoBlockEngine:
    def test_builders_match_the_operator_form(self):
        np.testing.assert_allclose(interaction_term(NV),
                                   (NV.A / 4.0) * (-SZ_E - SZ_EN), atol=1e-15)
        p = replace(operating_field(NV, 5.65, phi=0.4), B=5.9,
                    omega=control_frequency(NV) + 2.0)
        t = 0.013
        ph = (p.omega - p.omega_c) * t + p.phi
        drive = p.gamma * p.B * (np.cos(ph) * SX_E - np.sin(ph) * SY_E)
        np.testing.assert_allclose(nv_rotating_hamiltonian(NV, p, t, "target"),
                                   drive + interaction_term(NV), atol=1e-12)
        ctrl = -p.gamma * p.B_c * (np.cos(p.phi_c) * SX_E
                                   - np.sin(p.phi_c) * SY_E)
        np.testing.assert_allclose(nv_rotating_hamiltonian(NV, p, t, "control"),
                                   ctrl + interaction_term(NV), atol=1e-12)

    # a one-step target window is the edge case of the step table; the
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
        seq = build_sequence(n_reps, 0.017, pulse)
        u = sequence_unitary(seq, NV, p, steps_per_block=steps_per_block)
        ref = _reference_sequence_unitary(seq, NV, p, steps_per_block)
        assert np.max(np.abs(u - ref)) <= 1e-12
        # the propagator never couples the two nuclear blocks
        assert np.all(u[0::2, 1::2] == 0.0)
        assert np.all(u[1::2, 0::2] == 0.0)

    def test_rejects_empty_target_windows(self):
        p = operating_field(NV, 5.65)
        seq = build_sequence(1, 0.017, IDEAL)
        with pytest.raises(ValueError, match="steps_per_block"):
            sequence_unitary(seq, NV, p, steps_per_block=0)


class TestBellReadout:
    def test_operating_point_distribution_is_flat(self):
        p = operating_field(NV, 5.65)
        seq = build_sequence(8, 0.017, IDEAL)
        psi = simulate_sequence(seq, NV, p, bell_state("phi+"))
        probs = bell_readout(psi)
        np.testing.assert_allclose(probs, 0.25, atol=1e-3)

    def test_unrotated_projection_onto_itself(self):
        probs = bell_readout(bell_state("phi+"), rotate=False)
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            probs = bell_readout(haar_state(4, rng))
            assert np.sum(probs) == pytest.approx(1.0, abs=1e-9)

    def test_spam_map_shifts_total(self):
        ro = ReadoutModel(contrast=0.8, baseline=0.03)
        rng = np.random.default_rng(16)
        probs = bell_readout(haar_state(4, rng), readout=ro)
        assert np.sum(probs) == pytest.approx(4 * 0.03 + 0.8, abs=1e-9)

    def test_spam_validation(self):
        with pytest.raises(ValueError):
            ReadoutModel(contrast=0.9, baseline=0.2)


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
            seq = build_sequence(2, 0.017, IDEAL)
            psi = simulate_sequence(seq, NV, pv, bell_state("phi+"))
            pops.append(bell_readout(psi, rotate=False)[0])
        assert np.argmax(pops) == 10  # center of the grid

    # a one-step target window is the edge case of the step table
    @pytest.mark.parametrize("steps_per_block", [1, 16])
    @pytest.mark.parametrize("pulse", [IDEAL, PiPulseModel(kind="finite")],
                             ids=["ideal", "finite"])
    @pytest.mark.parametrize("axis,halfwidth", [("B", 0.1), ("omega", 1.0)])
    def test_one_batch_matches_per_point_readout(self, monkeypatch, axis,
                                                 halfwidth, pulse,
                                                 steps_per_block):
        p = operating_field(NV, 5.65)
        values = getattr(p, axis) + np.linspace(-halfwidth, halfwidth, 7)
        seq = build_sequence(3, 0.017, pulse)
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
        with pytest.raises(ValueError):
            sweep_signal("B", [5.6, 5.6, 5.6], p, NV, 1, 0.017, IDEAL, ro)
        with pytest.raises(ValueError):
            sweep_signal("B", [5.6, 5.7], p, NV, 1, 0.017, IDEAL, ro)

    def test_noise_is_seed_deterministic(self):
        a = self._sweep("B", 1, seed=5, add_noise=True)
        b = self._sweep("B", 1, seed=5, add_noise=True)
        c = self._sweep("B", 1, seed=6, add_noise=True)
        np.testing.assert_array_equal(a.signals, b.signals)
        assert np.any(a.signals != c.signals)


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
        with pytest.raises(JacobianError):
            parameter_uncertainty(sb, sw, ReadoutModel())

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

"""Hamiltonian evaluation, midpoint propagation, and generator quadrature."""

import numpy as np
import pytest

from acmag.dynamics import (ConvergenceError, FieldParams, TimeGrid,
                            generator_closed_form, generator_numeric,
                            hamiltonian_eval, propagate)
from acmag.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, expm_hermitian, max_abs

# frozen from the closed-form expressions at gamma=1, B=1, omega=1, T=1,
# cross-checked against the midpoint quadrature in test_matches_quadrature
HB_X_111 = 0.7273243567064204
HB_Y_111 = -0.3540367091367856


class TestFieldParams:
    def test_matched_factory(self):
        p = FieldParams.matched(2.0, 3.0, phi=0.1)
        assert p.B_c == 2.0 and p.omega_c == 3.0 and p.phi_c == 0.1

    def test_omega_c_defaults_to_omega(self):
        assert FieldParams(B=1.0, omega=2.0).omega_c == 2.0

    @pytest.mark.parametrize("kwargs", [
        dict(B=-1.0, omega=1.0),
        dict(B=1.0, omega=0.0),
        dict(B=1.0, omega=1.0, B_c=-0.5),
        dict(B=1.0, omega=1.0, gamma=0.0),
    ])
    def test_invariants_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FieldParams(**kwargs)


class TestHamiltonianEval:
    def test_target_at_zero_phase(self):
        p = FieldParams(B=2.0, omega=5.0, gamma=3.0)
        np.testing.assert_allclose(hamiltonian_eval(p, "target", 0.0),
                                   6.0 * SIGMA_X, atol=1e-15)

    def test_matched_total_is_pure_z_rotation(self):
        p = FieldParams.matched(1.3, 2.7, phi=0.4)
        for t in (0.0, 0.31, 2.9, 17.0):
            np.testing.assert_allclose(hamiltonian_eval(p, "total", t),
                                       0.5 * p.omega_c * SIGMA_Z, atol=1e-12)

    def test_control_without_drive(self):
        p = FieldParams(B=1.0, omega=2.0, B_c=0.0)
        np.testing.assert_allclose(hamiltonian_eval(p, "control", 1.1),
                                   SIGMA_Z, atol=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            hamiltonian_eval(FieldParams(B=1, omega=1), "target", -0.1)


class TestPropagate:
    def test_constant_commuting_case(self):
        omega = 3.1
        u = propagate(lambda t: 0.5 * omega * SIGMA_Z, TimeGrid(0, 2.0, 7))
        np.testing.assert_allclose(u, expm_hermitian(0.5 * omega * SIGMA_Z, 2.0),
                                   atol=1e-12)

    def test_matched_control_total(self):
        p = FieldParams.matched(1.0, 4.0)
        T = 2.5
        u = propagate(lambda t: hamiltonian_eval(p, "total", t),
                      TimeGrid(0, T, 200))
        expected = np.diag([np.exp(-1j * p.omega_c * T / 2),
                            np.exp(1j * p.omega_c * T / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-10)

    def test_unitary_output(self):
        u = propagate(lambda t: np.cos(t) * SIGMA_X + t * SIGMA_Z,
                      TimeGrid(0, 1.0, 500))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_second_order_self_convergence(self):
        h = lambda t: np.cos(t) * SIGMA_X
        ref = propagate(h, TimeGrid(0, 1.0, 1_000_000))
        errs = [max_abs(propagate(h, TimeGrid(0, 1.0, n)) - ref)
                for n in (100, 200, 400)]
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_rejects_4x4_hamiltonian(self):
        h4 = np.kron(SIGMA_X, SIGMA_Z) * 0.3
        with pytest.raises(ValueError, match="2x2"):
            propagate(lambda t: h4, TimeGrid(0, 1.0, 3))

    def test_rejects_non_hermitian_sample(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            propagate(lambda t: bad, TimeGrid(0, 1.0, 3))


class TestGeneratorClosedForm:
    def test_exact_at_reference_point(self):
        g = generator_closed_form(FieldParams.matched(1.0, 1.0), 1.0)
        np.testing.assert_allclose(
            g.h_b, HB_X_111 * SIGMA_X + HB_Y_111 * SIGMA_Y, atol=1e-12)

    def test_asymptotic_plugin(self):
        g = generator_closed_form(FieldParams.matched(2.0, 1.0), 3.0,
                                  mode="asymptotic")
        np.testing.assert_allclose(g.h_b, 1.5 * SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(g.h_omega, 4.5 * SIGMA_Y, atol=1e-15)

    def test_frequency_generator_vanishes_at_t0(self):
        g = generator_closed_form(FieldParams.matched(1.0, 2.0), 0.0)
        np.testing.assert_allclose(g.h_omega, np.zeros((2, 2)), atol=1e-15)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            generator_closed_form(FieldParams.matched(1.0, 1.0), 1.0, "series")


class TestGeneratorNumeric:
    def test_zero_amplitude_kills_frequency_generator(self):
        p = FieldParams(B=0.0, omega=1.0, B_c=0.0)
        h = generator_numeric(p, "omega", TimeGrid(0, 1.0, 100))
        np.testing.assert_allclose(h, np.zeros((2, 2)), atol=1e-15)

    def test_matches_quadrature(self):
        # the numeric path is the independent oracle for the closed form
        p = FieldParams.matched(1.0, 1.0)
        grid = TimeGrid(0, 1.0, 20_000)
        hb = generator_numeric(p, "B", grid)
        hw = generator_numeric(p, "omega", grid)
        g = generator_closed_form(p, 1.0)
        assert max_abs(hb - g.h_b) < 1e-8
        assert max_abs(hw - g.h_omega) < 1e-8

    def test_agreement_across_parameter_subgrid(self):
        for B in (0.5, 2.0):
            for omega in (1.0, 20.0):
                for T in (1.0, 10.0):
                    p = FieldParams.matched(B, omega)
                    steps = int(10_000 * max(omega * T, 1.0))
                    g = generator_closed_form(p, T)
                    for theta, href in (("B", g.h_b), ("omega", g.h_omega)):
                        h = generator_numeric(p, theta, TimeGrid(0, T, steps))
                        assert max_abs(h - href) < 1e-6

    def test_long_time_limit_bound(self):
        p = FieldParams.matched(1.0, 20.0)
        T = 10.0
        h = generator_numeric(p, "B", TimeGrid(0, T, 400_000))
        limit = 0.5 * p.gamma * T * SIGMA_X
        rel = np.linalg.norm(h - limit, 2) / np.linalg.norm(limit, 2)
        assert rel <= 1.1 / (p.omega * T)

    def test_uncontrolled_generators_commute(self):
        p = FieldParams(B=1.5, omega=3.0, B_c=0.0)
        grid = TimeGrid(0, 2.0, 60_000)
        hb = generator_numeric(p, "B", grid, control=False)
        hw = generator_numeric(p, "omega", grid, control=False)
        assert max_abs(hb @ hw - hw @ hb) <= 1e-8

    def test_coarse_grid_flagged(self):
        p = FieldParams.matched(1.0, 30.0)
        with pytest.raises(ConvergenceError):
            generator_numeric(p, "B", TimeGrid(0, 5.0, 40), check_tol=1e-10)

    def test_orthogonality_emerges_at_long_times(self):
        p = FieldParams.matched(1.0, 1000.0)
        g = generator_closed_form(p, 1.0)  # omega*T = 1e3
        num = abs(np.trace(g.h_b @ g.h_omega).real)
        den = np.linalg.norm(g.h_b) * np.linalg.norm(g.h_omega)
        assert num / den <= 5e-3


class TestTimeGrid:
    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)

    def test_midpoints(self):
        grid = TimeGrid(0.0, 1.0, 4)
        np.testing.assert_allclose(grid.midpoints(), [0.125, 0.375, 0.625, 0.875])

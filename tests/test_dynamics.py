"""Hamiltonian evaluation, midpoint propagation, and generator quadrature."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmag.dynamics import (_SCAN_BLOCK, ConvergenceError, FieldParams,
                            TimeGrid, _generator_coeffs, _prefix_products,
                            _product_reduce, _su2_exp, _su2_matrix,
                            generator_closed_form, generator_numeric,
                            hamiltonian_eval, propagate)
from acmag.linalg import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, expm_hermitian,
                          max_abs)

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

    def test_trace_part_is_a_global_phase(self):
        h = lambda t: ((0.7 + t) * I2 + np.cos(t) * SIGMA_X - 0.3 * SIGMA_Y
                       + 0.2 * t * SIGMA_Z)
        grid = TimeGrid(0, 1.5, 9)
        ref = np.eye(2)
        for t in grid.midpoints():
            ref = expm_hermitian(h(t), grid.dt) @ ref
        assert max_abs(propagate(h, grid) - ref) <= 1e-14


def _random_pairs(rng, *shape):
    z = rng.standard_normal((2, 2) + shape)
    z = z[0] + 1j * z[1]
    return z / np.sqrt(np.sum(np.abs(z) ** 2, axis=0))


def _sequential_prefixes(mats):
    out, acc = np.empty_like(mats), np.eye(2)
    for j, m in enumerate(mats):
        acc = np.matmul(m, acc)
        out[j] = acc
    return out


class TestSu2Kernels:
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-100, 1.0])
    @pytest.mark.parametrize("axes", [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                                      (1, 1, 1), (1, -1, 0)])
    def test_steps_stay_unitary_for_tiny_coefficients(self, scale, axes):
        ax, ay, az = scale * np.array(axes, dtype=float)
        norm = scale * np.sqrt(np.dot(axes, axes))
        for dt in (1.0, 0.5 * np.pi / norm):
            a, b = _su2_exp(ax, ay, az, dt)
            assert abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-14
        # a quarter turn: exp(-i (pi/2) n.sigma) = -i n.sigma
        n = np.array(axes) / np.sqrt(np.dot(axes, axes))
        u = _su2_matrix(_su2_exp(ax, ay, az, 0.5 * np.pi / norm))
        turn = -1j * (n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)
        assert max_abs(u - turn) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 65])
    def test_product_reduce_matches_sequential_matmul(self, n):
        q = _random_pairs(np.random.default_rng(n), n, 3)
        ref = [_sequential_prefixes(_su2_matrix(q[:, :, k]))[-1]
               for k in range(3)]
        assert max_abs(_su2_matrix(_product_reduce(q)) - ref) <= 1e-13

    # padding of the last block, one block exactly, and the recursion on
    # the block totals
    @pytest.mark.parametrize("n", [1, _SCAN_BLOCK - 1, _SCAN_BLOCK,
                                   _SCAN_BLOCK + 1, _SCAN_BLOCK**2 + 1])
    def test_prefix_products_match_sequential_matmul(self, n):
        q = _random_pairs(np.random.default_rng(n), n)
        ref = _sequential_prefixes(_su2_matrix(q))
        assert max_abs(_su2_matrix(_prefix_products(q)) - ref) <= 1e-13


def _mp_generator_coeffs(g, B, w, T):
    """(b_x, b_y, w_x, w_y) of the closed form, evaluated with 60 digits."""
    with mp.workdps(60):
        g, B, w, T = map(mp.mpf, (g, B, w, T))
        s, c = mp.sin(2 * w * T), mp.cos(2 * w * T)
        return (g / 2 * (T + s / (2 * w)), -g / 2 * (1 - c) / (2 * w),
                -g * B / 2 * (-T * c / (2 * w) + s / (4 * w * w)),
                g * B / 2 * (T * T / 2 - T * s / (2 * w)
                             - (c - 1) / (4 * w * w)))


class TestGeneratorCoefficients:
    # omega*T from 1e-6 to 10, across the series crossover at 0.5
    @pytest.mark.parametrize("g,B,T", [(1.3, 0.7, 2.0), (0.01, 1e3, 1e-3)])
    def test_match_high_precision_oracle(self, g, B, T):
        xs = np.concatenate([np.logspace(-6, 1, 29),
                             0.5 * (1 + np.array([-1e-12, 0.0, 1e-12]))])
        got = _generator_coeffs(g, B, xs / T, T)
        for i, x in enumerate(xs):
            exact = _mp_generator_coeffs(g, B, x / T, T)
            for coeff, want in zip(got, exact):
                assert abs(coeff[i] / want - 1) <= 1e-13


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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(B=st.floats(0.0, 5.0), B_c=st.floats(0.0, 5.0),
           omega=st.floats(0.05, 50.0), phi=st.floats(-np.pi, np.pi),
           T=st.floats(0.01, 10.0), steps=st.integers(1, 3 * _SCAN_BLOCK + 5),
           theta=st.sampled_from(["B", "omega"]), control=st.booleans())
    def test_hermitian_and_traceless(self, B, B_c, omega, phi, T, steps,
                                     theta, control):
        p = FieldParams(B=B, omega=omega, phi=phi, B_c=B_c, phi_c=phi)
        h = generator_numeric(p, theta, TimeGrid(0, T, steps), control)
        assert h.shape == (2, 2) and np.all(np.isfinite(h))
        assert np.array_equal(h, h.conj().T)
        assert h[0, 0] + h[1, 1] == 0.0

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

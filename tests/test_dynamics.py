"""Hamiltonian evaluation, midpoint propagation, and generator quadrature."""

import pickle
import re
import tracemalloc
from math import isqrt
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmag import dynamics
from acmag.dynamics import (_CHUNK, _TABLE, ConvergenceError, FieldParams,
                            GeneratorPair, TimeGrid, _generator_coeffs,
                            _generator_quadrature, _prefix_products,
                            _su2_exp, _su2_matrix, _su2_mul, _su2_pow,
                            generator_closed_form, generator_numeric,
                            propagate)
from acmag.linalg import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, bell_state,
                          expm_hermitian, max_abs)
from acmag.qfim import qfim_from_generators

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["B", "B_c", "omega", "omega_c", "phi",
                                      "phi_c", "gamma"])
    def test_non_finite_entry_is_named(self, name, value):
        kwargs = dict(B=1.0, omega=1.0, phi=0.0, B_c=1.0, omega_c=1.0,
                      phi_c=0.0, gamma=1.0)
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, got {value}$"):
            FieldParams(**{**kwargs, name: value})


def _detuned_h(t):
    """A (steps, 2, 2) stack of Hamiltonians whose steps do not commute."""
    return (np.cos(3.0 * t)[:, None, None] * SIGMA_X - 0.4 * SIGMA_Y
            + (0.5 + t)[:, None, None] * SIGMA_Z)


class TestPropagate:
    # one and two steps, and one step short of, at and past one and two of
    # the chunks that the walk carries its pair across
    CHUNK_STEPS = [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]

    @pytest.mark.parametrize("steps", CHUNK_STEPS)
    def test_constant_commuting_case(self, steps):
        omega = 3.1
        u = propagate(lambda t: np.broadcast_to(0.5 * omega * SIGMA_Z,
                                                (t.size, 2, 2)),
                      TimeGrid(0, 2.0, steps))
        np.testing.assert_allclose(u, expm_hermitian(0.5 * omega * SIGMA_Z, 2.0),
                                   atol=1e-12)

    @pytest.mark.parametrize("steps", CHUNK_STEPS)
    def test_matched_control_total(self, steps):
        p = FieldParams.matched(1.0, 4.0)
        T = 2.5

        def h(t):
            fx = (p.gamma * p.B * np.cos(p.omega * t + p.phi)
                  - p.gamma * p.B_c * np.cos(p.omega_c * t + p.phi_c))
            return fx[:, None, None] * SIGMA_X + 0.5 * p.omega_c * SIGMA_Z

        u = propagate(h, TimeGrid(0, T, steps))
        expected = np.diag([np.exp(-1j * p.omega_c * T / 2),
                            np.exp(1j * p.omega_c * T / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-10)

    def test_unitary_output(self):
        u = propagate(lambda t: (np.cos(t)[:, None, None] * SIGMA_X
                                 + t[:, None, None] * SIGMA_Z),
                      TimeGrid(0, 1.0, 500))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_second_order_self_convergence(self):
        h = lambda t: np.cos(t)[:, None, None] * SIGMA_X
        ref = propagate(h, TimeGrid(0, 1.0, 1_000_000))
        errs = [max_abs(propagate(h, TimeGrid(0, 1.0, n)) - ref)
                for n in (100, 200, 400)]
        for a, b in zip(errs, errs[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_chunks_compose(self):
        # the split at step _CHUNK + 1 falls one step into the second chunk
        n, dt = 2 * _CHUNK + 1, 1e-4
        split = (_CHUNK + 1) * dt
        u = propagate(_detuned_h, TimeGrid(0.0, n * dt, n))
        first = propagate(_detuned_h, TimeGrid(0.0, split, _CHUNK + 1))
        second = propagate(_detuned_h, TimeGrid(split, n * dt, _CHUNK))
        assert max_abs(u - second @ first) <= 1e-12

    def test_rejects_4x4_hamiltonian(self):
        h4 = np.kron(SIGMA_X, SIGMA_Z) * 0.3
        with pytest.raises(ValueError, match="2x2"):
            propagate(lambda t: h4, TimeGrid(0, 1.0, 3))

    def test_rejects_non_hermitian_sample(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="non-Hermitian"):
            propagate(lambda t: np.broadcast_to(bad, (t.size, 2, 2)),
                      TimeGrid(0, 1.0, 3))

    def test_rejects_a_non_hermitian_sample_in_the_last_chunk(self):
        def h(t):
            hs = _detuned_h(t)
            hs[-1, 0, 1] += 1e-6
            return hs

        with pytest.raises(ValueError, match="non-Hermitian"):
            propagate(h, TimeGrid(0, 1.0, 2 * _CHUNK + 1))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_rejects_a_non_finite_sample(self, value):
        # NaN fails every comparison, so a check written as "> 1e-10 is
        # non-Hermitian" would pass it on and return an all-NaN propagator
        with pytest.raises(ValueError, match="non-Hermitian or non-finite"):
            propagate(lambda t: np.where(t > 0.5, value, 1.0)[:, None, None]
                      * SIGMA_X, TimeGrid(0, 1.0, 4))

    def test_rejects_a_missing_step_axis(self):
        # a forgotten [:, None, None] on a 2-step grid gives diag(cos t0,
        # -cos t1), which is Hermitian and 2x2 but not one matrix per step
        with pytest.raises(ValueError, match=r"\(steps, 2, 2\).*\(2, 2\)"):
            propagate(lambda t: np.cos(t) * SIGMA_Z, TimeGrid(0, 1.0, 2))

    def test_trace_part_is_a_global_phase(self):
        # scalar times for the per-step reference, an array for propagate
        h = lambda t: (np.multiply.outer(0.7 + t, I2)
                       + np.multiply.outer(np.cos(t), SIGMA_X) - 0.3 * SIGMA_Y
                       + np.multiply.outer(0.2 * t, SIGMA_Z))
        grid = TimeGrid(0, 1.5, 9)
        ref = np.eye(2)
        for t in grid.midpoints():
            ref = expm_hermitian(h(t), grid.dt) @ ref
        assert max_abs(propagate(h, grid) - ref) <= 1e-14

    def test_calls_h_once_on_the_midpoints(self):
        grid = TimeGrid(0, 1.0, 5)
        calls = []

        def h(t):
            calls.append(np.copy(t))
            return np.cos(t)[:, None, None] * SIGMA_X

        propagate(h, grid)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], grid.midpoints())

    def test_propagate_memory_does_not_grow_with_the_grid(self):
        # a broadcast stack costs no memory, so what is left is the 8 MB of
        # midpoints and one chunk's work; one whole-grid product of 1e6
        # steps peaks near 128 MB
        h = lambda t: np.broadcast_to(0.3 * SIGMA_X - 0.2 * SIGMA_Z,
                                      (t.size, 2, 2))
        tracemalloc.start()
        try:
            propagate(h, TimeGrid(0.0, 1.0, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestPropagateUnitarity:
    # coefficient scales whose squares underflow or overflow and exactly
    # zero Hamiltonians (all of them, or every `zero_every`-th midpoint),
    # on grids of 1 to 1e5 steps; T = 1 / scale keeps each r*dt O(1)
    @settings(max_examples=40, deadline=None)
    @given(scale=st.one_of(st.just(0.0),
                           st.floats(-156.0, -152.0).map(lambda e: 10.0**e),
                           st.floats(152.0, 156.0).map(lambda e: 10.0**e)),
           direction=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
           zero_every=st.sampled_from([None, 1, 2, 7]),
           steps=st.sampled_from([1, 2, 3, 64, 100_000]))
    def test_propagators_stay_unitary_at_the_extremes(self, scale, direction,
                                                      zero_every, steps):
        c0, cx, cy, cz = scale * np.array(direction)
        paulis = np.array([I2, SIGMA_X, SIGMA_Y, SIGMA_Z])

        def h(t):
            coeffs = np.zeros((t.size, 4))
            coeffs[:] = c0, cx, cy, cz
            coeffs[:, 1] *= np.cos(scale * t if scale else t)
            if zero_every:
                coeffs[::zero_every] = 0.0
            return np.tensordot(coeffs, paulis, 1)

        grid = TimeGrid(0.0, 1.0 / scale if scale else 1.0, steps)
        u = propagate(h, grid)
        assert np.all(np.isfinite(u))
        # each step's rounding moves the norm by a few eps, and the moves
        # compound along the grid
        assert (max_abs(u.conj().T @ u - np.eye(2))
                <= 4 * np.finfo(float).eps * (steps + 1))


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
    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-100, 1.0,
                                       1e160, 1e300])
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

    def test_zero_steps_are_exact_identities(self):
        a, b = _su2_exp(np.zeros(5), 0.0, np.zeros(5), 0.3)
        assert np.array_equal(a, np.ones(5)) and np.array_equal(b, np.zeros(5))

    def test_zero_steps_beside_underflowing_ones(self):
        # a zero triple needs no hypot; an underflowing one in the same
        # batch still gets it
        ax = np.array([0.0, 1e-170, 0.0])
        a, b = _su2_exp(ax, 0.0, 0.0, 0.5 * np.pi / 1e-170)
        assert np.array_equal(a[[0, 2]], [1.0, 1.0])
        assert np.array_equal(b[[0, 2]], [0.0, 0.0])
        assert max_abs(_su2_matrix(np.array([a[1], b[1]])) + 1j * SIGMA_X
                       ) <= 1e-15

    # zero rotation, turns near and at a half turn (q = -1), exponent 0 and
    # the 4095 of a 4096-step window; q**n of exp(-i th m.sigma) is the
    # exponential over n times the step
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4095])
    @pytest.mark.parametrize("th", [0.0, 1e-9, 0.3, np.pi - 1e-9, np.pi])
    def test_power_matches_the_exponential_of_n_steps(self, th, n):
        m = np.array([0.48, -0.6, 0.64])
        q = _su2_exp(*(th * m), 1.0)
        got = _su2_pow(q, n)
        assert max_abs(_su2_matrix(got) - _su2_matrix(_su2_exp(*(th * m), n))
                       ) <= 1e-15 * (n + 1)
        assert abs(np.sum(np.abs(got) ** 2) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4095])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_power_of_plus_or_minus_identity(self, sign, n):
        q = np.array([[sign], [0.0]], dtype=complex)
        assert max_abs(_su2_pow(q, n) - [[sign**n], [0.0]]) <= 1e-15

    @pytest.mark.parametrize("n", [0, 1, 5, 64])
    def test_power_of_a_batch_matches_matrix_power(self, n):
        q = _random_pairs(np.random.default_rng(n), 8)
        ref = [np.linalg.matrix_power(_su2_matrix(q[:, j]), n)
               for j in range(8)]
        assert max_abs(_su2_matrix(_su2_pow(q, n)) - ref) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 65])
    def test_batched_prefix_products_match_sequential_matmul(self, n):
        q = _random_pairs(np.random.default_rng(n), n, 3)
        got = _su2_matrix(_prefix_products(q))
        for k in range(3):
            ref = _sequential_prefixes(_su2_matrix(q[:, :, k]))
            assert max_abs(got[:, k] - ref) <= 1e-13

    # one step, and odd and even lengths on both sides of powers of two,
    # whose halvings reach one step through only even or mixed lengths
    @pytest.mark.parametrize("n", [1, 4, 5, 7, 8, 9, 63, 64, 65, 1023, 1024,
                                   1025, 4097])
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

    # a scalar T gives what _generator_coeffs gives on 1-D arrays of the
    # same inputs, bit for bit: below, at and above the series threshold
    # omega*T = 0.5, far above it, and in the asymptotic mode
    @pytest.mark.parametrize("omega_t,mode", [
        (0.1, "exact"), (0.5 * (1 - 1e-15), "exact"), (0.5, "exact"),
        (0.5 * (1 + 1e-15), "exact"), (1e3, "exact"), (2.0, "asymptotic")])
    def test_is_the_one_formula(self, omega_t, mode):
        g, B, w = 1.7, 1.3, 3.0
        T = omega_t / w
        got = generator_closed_form(FieldParams.matched(B, w, gamma=g), T,
                                    mode)
        want = [float(np.broadcast_to(c, (1,))[0]) for c in _generator_coeffs(
            *(np.array([v]) for v in (g, B, w, T)), mode)]
        assert [got.h_b[1, 0].real, got.h_b[1, 0].imag,
                got.h_omega[1, 0].real, got.h_omega[1, 0].imag] == want
        for h in (got.h_b, got.h_omega):
            assert h[0, 0] == h[1, 1] == 0 and h[0, 1] == np.conj(h[1, 0])


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
        grid = TimeGrid(0, 5.0, 40)
        with pytest.raises(ConvergenceError) as info:
            generator_numeric(p, "B", grid, check_tol=1e-10)
        err = info.value
        gap = max_abs(generator_numeric(p, "B", grid)
                      - generator_numeric(p, "B", TimeGrid(0, 5.0, 20)))
        assert err.discrepancy == gap and err.tolerance == 1e-10
        assert str(err) == (f"step-halving discrepancy {gap:.3e} exceeds "
                            "1.000e-10; refine the grid")
        # the message-only constructor of a RuntimeError still holds, so the
        # error and its numbers survive a pickle round trip
        back = pickle.loads(pickle.dumps(err))
        assert (str(back), back.discrepancy, back.tolerance) == (
            str(err), gap, 1e-10)

    def test_check_needs_a_grid_to_halve(self):
        # a one-step grid's coarse grid would be itself, and the check
        # would pass at any tolerance; omega*T = 150 here
        p = FieldParams.matched(1.0, 30.0)
        with mock.patch.object(dynamics, "_generator_quadrature") as quad:
            with pytest.raises(ValueError, match="steps = 1$"):
                generator_numeric(p, "B", TimeGrid(0, 5.0, 1),
                                  check_tol=1e-300)
        assert not quad.called
        with pytest.raises(ConvergenceError):
            generator_numeric(p, "B", TimeGrid(0, 5.0, 2), check_tol=1e-300)
        assert generator_numeric(p, "B", TimeGrid(0, 5.0, 1)).shape == (2, 2)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(B=st.floats(0.0, 5.0), B_c=st.floats(0.0, 5.0),
           omega=st.floats(0.05, 50.0), phi=st.floats(-np.pi, np.pi),
           T=st.floats(0.01, 10.0), steps=st.integers(1, 197),
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


def _loop_generators(p, grid, control):
    """(h_B, h_omega) from a Python loop over per-step half-step matrices:
    V advances by exp(-i H(t_j) dt/2) to each midpoint t_j, which adds
    w_j V^dag sx V, and by another half step to the end of the step."""
    hb, hw, v = np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)
    for t in grid.midpoints():
        cos, sin = np.cos(p.omega * t + p.phi), np.sin(p.omega * t + p.phi)
        h = p.gamma * p.B * cos * SIGMA_X
        if control:
            h = (h - p.gamma * p.B_c * np.cos(p.omega_c * t + p.phi_c)
                 * SIGMA_X + 0.5 * p.omega_c * SIGMA_Z)
        half = expm_hermitian(h, 0.5 * grid.dt)
        v = half @ v
        sx_t = v.conj().T @ SIGMA_X @ v
        hb = hb + grid.dt * p.gamma * cos * sx_t
        hw = hw - grid.dt * p.gamma * p.B * t * sin * sx_t
        v = half @ v
    return hb, hw


class TestGeneratorScan:
    # a detuned, partly controlled field: the steps do not commute
    P = FieldParams(B=1.3, omega=7.0, phi=0.4, B_c=0.6, omega_c=5.5,
                    phi_c=-0.9, gamma=1.7)

    # one and two steps, odd and even lengths around a power of two, and
    # a longer odd grid
    @pytest.mark.parametrize("steps", [1, 2, 63, 64, 65, 129])
    @pytest.mark.parametrize("control", [True, False])
    def test_matches_per_step_loop(self, steps, control):
        grid = TimeGrid(0.2, 2.3, steps)
        for theta, ref in zip(("B", "omega"),
                              _loop_generators(self.P, grid, control)):
            h = generator_numeric(self.P, theta, grid, control)
            assert max_abs(h - ref) <= 1e-12 * max_abs(ref)


def _whole_grid_generators(p, grid, control):
    """(h_B, h_omega) from one unchunked prefix scan of the neighbour
    products q_j = h_j h_(j-1) over the whole grid."""
    mids = grid.midpoints()
    cos, sin = np.cos(p.omega * mids + p.phi), np.sin(p.omega * mids + p.phi)
    fx, fz = p.gamma * p.B * cos, 0.0
    if control:
        fx = fx - p.gamma * p.B_c * np.cos(p.omega_c * mids + p.phi_c)
        fz = 0.5 * p.omega_c
    q = _su2_exp(fx, 0.0, fz, 0.5 * grid.dt)
    q[:, 1:] = _su2_mul(q[:, 1:], q[:, :-1])
    a, b = _prefix_products(q)
    v = a * a - b * b
    sx_t = np.stack([v.real, v.imag, 2.0 * (np.conj(a) * b).real])
    return tuple(x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z for x, y, z in (
        sx_t @ (grid.dt * p.gamma * cos),
        sx_t @ (-grid.dt * p.gamma * p.B * mids * sin)))


def _fixed_axis_generators(p, grid, control):
    """(h_B, h_omega) as long-double sums over the grid's midpoints t_j,
    for the fields whose H(t) keeps one axis: V_j^dag sx V_j is sx without
    control and cos x_j sx - sin x_j sy, x_j = omega_c (j + 1/2) dt, under
    matched control."""
    ld = np.longdouble
    mids, dt = grid.midpoints().astype(ld), ld(grid.dt)
    phase = ld(p.omega) * mids + ld(p.phi)
    angle = (ld(p.omega_c) * (np.arange(grid.steps, dtype=ld) + ld(0.5)) * dt
             if control else np.zeros(grid.steps, dtype=ld))
    sx_t = np.stack([np.cos(angle), -np.sin(angle)])
    return tuple(x * SIGMA_X + y * SIGMA_Y for x, y in (
        sx_t @ (dt * ld(p.gamma) * np.cos(phase)),
        sx_t @ (-dt * ld(p.gamma) * ld(p.B) * mids * np.sin(phase))))


class TestGeneratorChunks:
    MATCHED = FieldParams.matched(1.3, 7.0, phi=0.4, gamma=1.7)

    # one and two steps, one step short of a chunk, one chunk, and one step
    # past one and two chunks. The mismatched control is the one case that
    # still scans, and the whole-grid scan is its oracle. The other rows
    # keep one axis, and their oracle is the long-double sum: against it
    # the scan's own rounding reaches 6e-12 relative at 32,767 steps.
    @pytest.mark.parametrize("steps", [1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                       2 * _CHUNK + 1])
    @pytest.mark.parametrize("p,control", [
        (MATCHED, True), (MATCHED, False),
        (TestGeneratorScan.P, True), (TestGeneratorScan.P, False)],
        ids=["matched", "matched-free", "mismatched", "mismatched-free"])
    def test_match_one_whole_grid_scan(self, p, control, steps):
        grid = TimeGrid(0.2, 2.3, steps)
        got = _generator_quadrature.__wrapped__(p, grid, control)
        oracle = (_whole_grid_generators if control and p is not self.MATCHED
                  else _fixed_axis_generators)
        for theta, ref in zip(("B", "omega"), oracle(p, grid, control)):
            assert max_abs(got[theta] - ref) <= 1e-13 * max_abs(ref)

    # ragged over several chunks with phases past 400 rad, where each
    # chunk's phases come from one table by angle addition; and the
    # generator_quadrature workload's largest grid without control, where a
    # chunk's first phase rounded to a float would shift every phase of the
    # chunk alike and took these sums 2.6e-13 relative off the oracle
    LONG = FieldParams.matched(1.3, 50.0, phi=2.9, gamma=1.7)
    RAGGED = TimeGrid(1.7, 1.7 + 7.3, 3 * _CHUNK + 17)

    @pytest.mark.parametrize("p,grid,control", [
        (LONG, RAGGED, True), (LONG, RAGGED, False),
        (FieldParams.matched(2.0, 50.0), TimeGrid(0.0, 10.0, 10**6), False),
        (FieldParams.matched(1.0, 20.0), TimeGrid(0.0, 10.0, 400_000), True),
        (FieldParams.matched(2.0, 50.0), TimeGrid(0.0, 10.0, 10**6), True)],
        ids=["matched", "matched-free", "workload-free", "workload-4e5",
             "workload-1e6"])
    def test_long_phases_match_the_long_double_sums(self, p, grid, control,
                                                    ledger):
        got = _generator_quadrature.__wrapped__(p, grid, control)
        refs = list(zip(("B", "omega"), _fixed_axis_generators(p, grid,
                                                               control)))
        ledger("worst gap / max|ref|", max(max_abs(got[theta] - ref)
                                           / max_abs(ref)
                                           for theta, ref in refs), 1e-13)
        for theta, ref in refs:
            assert max_abs(got[theta] - ref) <= 1e-13 * max_abs(ref)

    # step counts around whole tables: one step, one short of a table, one
    # table, one past it, and k tables and r steps. A sum cancels where it is
    # small (without control over a near-whole number of periods, under
    # control over a short run of phases near a zero of sin), and rounding
    # then reaches 5e-11 of it, for per-chunk sums of a rotated table as for
    # moments; so the error is held against the sum of the weights' sizes,
    # |dt gamma| n for h_B and |dt gamma B| sum |t_j| for h_omega
    TABLE_STEPS = st.one_of(
        st.sampled_from([1, _TABLE - 1, _TABLE, _TABLE + 1]),
        st.builds(lambda k, r: k * _TABLE + r, st.integers(1, 3),
                  st.integers(0, _TABLE - 1)))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(omega=st.floats(0.05, 50.0), phi=st.floats(-np.pi, np.pi),
           t0=st.floats(0.0, 3.0), T=st.floats(0.01, 10.0),
           steps=TABLE_STEPS, control=st.booleans())
    def test_table_multiples_match_the_long_double_sums(self, omega, phi, t0,
                                                        T, steps, control):
        p = FieldParams.matched(1.3, omega, phi, gamma=1.7)
        grid = TimeGrid(t0, t0 + T, steps)
        got = _generator_quadrature.__wrapped__(p, grid, control)
        size = grid.dt * p.gamma * np.array(
            [steps, p.B * np.abs(grid.midpoints()).sum()])
        for theta, ref, s in zip(("B", "omega"),
                                 _fixed_axis_generators(p, grid, control),
                                 size):
            assert max_abs(got[theta] - ref) <= 1e-13 * s

    @pytest.mark.parametrize("control", [True, False],
                             ids=["matched", "matched-free"])
    def test_fixed_axis_trig_is_one_table(self, control):
        # one cold call evaluates cos and sin on two rows of about
        # sqrt(_TABLE) phases for the table, two of about sqrt(chunks) for
        # the chunks of _TABLE steps and on theta_0: never once per step,
        # per table entry or per chunk
        p = FieldParams.matched(1.3, 7.0, phi=0.4)
        grid = TimeGrid(0.2, 2.3, 3 * _CHUNK + 17)
        _generator_quadrature.cache_clear()
        with mock.patch.object(np, "cos", wraps=np.cos) as cos, \
                mock.patch.object(np, "sin", wraps=np.sin) as sin:
            generator_numeric(p, "B", grid, control)
        elements = sum(np.size(call.args[0])
                       for f in (cos, sin) for call in f.call_args_list)
        chunks = -(-grid.steps // _TABLE)
        assert elements <= 4 * (isqrt(_TABLE) + isqrt(chunks)) + 10

    # counts around whole squares, where the rows of _expi's outer product
    # run out: each entry against cos and sin of its own phase, taken
    # directly, within a few ulps of the larger of 1 and the phase
    @pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 4095, 4096, 4097])
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    @pytest.mark.parametrize("step,start", [(0.7, 0.0), (-0.013, 2.9),
                                            (0.11, 400.0)])
    def test_expi_matches_the_direct_phases(self, count, dtype, step, start):
        got = dynamics._expi(dtype(step), count, dtype, dtype(start))
        x = dtype(start) + np.arange(count, dtype=dtype) * dtype(step)
        assert got.dtype == np.result_type(dtype, 1j) and got.shape == (count,)
        ulp = np.finfo(dtype).eps * np.maximum(1.0, np.abs(x))
        assert np.all(np.abs(got.real - np.cos(x)) <= 4 * ulp)
        assert np.all(np.abs(got.imag - np.sin(x)) <= 4 * ulp)

    def test_memory_does_not_grow_with_the_grid(self):
        # the generator_quadrature workload's largest point: the table, the
        # chunks' phase factors and a few short arrays, about 0.23 MB
        p, grid = FieldParams.matched(2.0, 50.0), TimeGrid(0.0, 10.0, 10**6)
        assert self._peak_bytes(p, grid) < 1e6

    def test_scan_memory_does_not_grow_with_the_grid(self):
        # a whole-grid scan of 1e6 steps peaks near 144 MB
        grid = TimeGrid(0.0, 10.0, 10**6)
        assert self._peak_bytes(TestGeneratorScan.P, grid) < 32e6

    @staticmethod
    def _peak_bytes(p, grid):
        _generator_quadrature.cache_clear()
        tracemalloc.start()
        try:
            generator_numeric(p, "B", grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestFixedAxisPath:
    # the paper's two cases: without control the generators are parallel
    # and the QFIM is singular; under matched control they lie in the
    # sx-sy plane. The path is chosen by exact parameter equality, so a
    # control one ulp off the target scans and must land on the same sums.
    FIELDS = dict(B=st.floats(0.0, 5.0), omega=st.floats(0.05, 50.0),
                  phi=st.floats(-np.pi, np.pi), t0=st.floats(0.0, 3.0),
                  T=st.floats(0.01, 10.0), steps=st.integers(1, 197))

    @staticmethod
    def _generators(p, grid, control):
        with mock.patch.object(dynamics, "_prefix_products",
                               wraps=dynamics._prefix_products) as scan:
            g = GeneratorPair(*(generator_numeric(p, theta, grid, control)
                                for theta in ("B", "omega")))
        return g, scan.called

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(B_c=st.floats(0.0, 5.0), omega_c=st.floats(0.05, 50.0), **FIELDS)
    def test_free_generators_are_parallel(self, B, omega, phi, t0, T, steps,
                                          B_c, omega_c):
        p = FieldParams(B=B, omega=omega, phi=phi, B_c=B_c, omega_c=omega_c)
        g, scanned = self._generators(p, TimeGrid(t0, t0 + T, steps), False)
        assert not scanned
        for h in (g.h_b, g.h_omega):
            assert np.array_equal(h, h[0, 1].real * SIGMA_X)
        f = qfim_from_generators(bell_state("phi+"), g)
        # det = f_bb f_ww - f_bw^2 is zero but for the rounding of its terms
        assert f.is_singular()
        assert abs(f.det()) <= 8 * np.finfo(float).eps * f.f_bb * f.f_ww

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**FIELDS)
    def test_matched_generators_have_no_sz_part(self, B, omega, phi, t0, T,
                                                steps):
        p = FieldParams.matched(B, omega, phi)
        g, scanned = self._generators(p, TimeGrid(t0, t0 + T, steps), True)
        assert not scanned
        for h in (g.h_b, g.h_omega):
            assert h[0, 0] == 0.0 and h[1, 1] == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(**FIELDS)
    def test_one_ulp_off_matched_scans_to_the_same_sums(self, B, omega, phi,
                                                       t0, T, steps):
        grid = TimeGrid(t0, t0 + T, steps)
        matched, _ = self._generators(FieldParams.matched(B, omega, phi),
                                      grid, True)
        p = FieldParams(B=B, omega=omega, phi=phi,
                        B_c=np.nextafter(B, np.inf), phi_c=phi)
        off, scanned = self._generators(p, grid, True)
        assert scanned
        for h, ref in ((off.h_b, matched.h_b),
                       (off.h_omega, matched.h_omega)):
            assert max_abs(h - ref) <= 1e-9 * max_abs(ref)


class TestGeneratorMemo:
    P = FieldParams(B=1.3, omega=7.0, phi=0.4, B_c=0.6, phi_c=-0.9)
    GRID = TimeGrid(0.0, 2.0, 199)

    def _cold(self, theta, control=True):
        _generator_quadrature.cache_clear()
        return generator_numeric(self.P, theta, self.GRID, control)

    def test_returned_generator_is_a_copy(self):
        first = self._cold("B")
        first[0, 1] = 99.0
        assert np.array_equal(generator_numeric(self.P, "B", self.GRID),
                              self._cold("B"))

    @pytest.mark.parametrize("order", [("B", "omega"), ("omega", "B")])
    def test_either_order_matches_cold_calls(self, order):
        _generator_quadrature.cache_clear()
        warm = {theta: generator_numeric(self.P, theta, self.GRID)
                for theta in order}
        assert _generator_quadrature.cache_info().hits == 1
        for theta in order:
            assert np.array_equal(warm[theta], self._cold(theta))

    def test_control_is_part_of_the_key(self):
        controlled = self._cold("B", control=True)
        free = generator_numeric(self.P, "B", self.GRID, control=False)
        assert np.array_equal(free, self._cold("B", control=False))
        assert max_abs(free - controlled) > 1e-3

    def test_check_runs_with_the_fine_pair_cached(self):
        p, grid = FieldParams.matched(1.0, 30.0), TimeGrid(0, 5.0, 40)
        _generator_quadrature.cache_clear()
        generator_numeric(p, "omega", grid)
        with pytest.raises(ConvergenceError):
            generator_numeric(p, "B", grid, check_tol=1e-10)
        # the uncached coarse re-run left the fine pair in place
        hits = _generator_quadrature.cache_info().hits
        generator_numeric(p, "omega", grid)
        assert _generator_quadrature.cache_info().hits == hits + 1


class TestTimeGrid:
    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["t_start", "t_end"])
    def test_non_finite_end_is_named(self, name, value):
        ends = {"t_start": 0.0, "t_end": 1.0, name: value}
        with pytest.raises(ValueError,
                           match=f"^{name} must be finite, got {value}$"):
            TimeGrid(ends["t_start"], ends["t_end"], 4)

    @pytest.mark.parametrize("steps", [2.5, 4.0, True, np.float64(4)])
    def test_non_integer_steps_are_named(self, steps):
        # 2.5 steps would lay midpoints past t_end
        with pytest.raises(ValueError, match="^" + re.escape(
                f"steps must be an integer, got {steps!r}") + "$"):
            TimeGrid(0.0, 1.0, steps)

    def test_integer_steps_of_any_width_are_accepted(self):
        assert TimeGrid(0.0, 1.0, np.int32(4)).dt == 0.25

    def test_midpoints(self):
        grid = TimeGrid(0.0, 1.0, 4)
        np.testing.assert_allclose(grid.midpoints(), [0.125, 0.375, 0.625, 0.875])


@pytest.mark.parametrize("call,match", [
    (lambda: generator_numeric(FieldParams.matched(1.0, 1.0), "phi",
                               TimeGrid(0.0, 1.0, 8)),
     "theta must be 'B' or 'omega', got 'phi'"),
    (lambda: GeneratorPair(h_b=SIGMA_X, h_omega=SIGMA_X + 1j * SIGMA_X),
     "generators must be Hermitian"),
    (lambda: GeneratorPair(h_b=np.nan * SIGMA_X, h_omega=SIGMA_Y),
     "generators must be Hermitian"),
    (lambda: generator_closed_form(FieldParams.matched(1.0, 5.0, phi=0.3),
                                   2.0),
     "the closed forms assume phi = 0, got phi = 0.3"),
    # a NaN phi is named by FieldParams before it reaches a closed form
    (lambda: generator_closed_form(FieldParams.matched(1.0, 5.0,
                                                       phi=np.nan),
                                   2.0, mode="asymptotic"),
     "^phi must be finite, got nan$"),
], ids=["theta", "non-hermitian", "nan-generator", "phi",
        "phi-nan-asymptotic"])
def test_rejections(call, match):
    with pytest.raises(ValueError, match=match):
        call()

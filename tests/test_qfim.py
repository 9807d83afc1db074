"""QFIM assembly, closed forms, bounds, probe search, measurement FIM."""

import re
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acmag.bounds import strategy_comparison
from acmag.dynamics import (FieldParams, GeneratorPair, TimeGrid,
                            _generator_coeffs, generator_closed_form,
                            generator_numeric)
from acmag.fitting import envelope_slope, upper_envelope
from acmag.linalg import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, bell_state,
                          expm_hermitian, haar_state, ket, tensor)
from acmag.qfim import (CovBound, Qfim2, SingularQfimError, _closed_form,
                        bell_probe_determinant, classical_fim, probe_overlap,
                        probe_overlap_closed_form, qcrb, qfim_closed_form,
                        qfim_determinant, qfim_from_generators,
                        relative_error_curves, sample_probe_determinants)

# frozen from the closed-form expression at gamma=B=omega=T=1, verified
# against the generator-built matrix in test_closed_form_matches_generators
F_BB_1111 = 2.617370845099253
# det at gamma=B=omega=1, T=pi (sin term vanishes): pi^6 / 4
DET_AT_T_PI = 240.34729839382604


def _random_tuples(n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield (rng.uniform(0.1, 5.0), rng.uniform(0.5, 50.0),
               rng.uniform(0.5, 20.0))


class TestQfimFromGenerators:
    def test_bell_with_asymptotic_generators_is_diagonal(self):
        g, B, T = 1.0, 1.0, 2.0
        p = FieldParams.matched(B, 1.0, gamma=g)
        gen = generator_closed_form(p, T, mode="asymptotic")
        f = qfim_from_generators(bell_state("phi+"), gen)
        assert f.f_bb == pytest.approx(g**2 * T**2, rel=1e-12)
        assert f.f_ww == pytest.approx(g**2 * B**2 * T**4 / 4, rel=1e-12)
        assert f.f_bw == pytest.approx(0.0, abs=1e-12)

    def test_commuting_generators_give_singular_qfim(self):
        # without control both generators are along sigma_x
        gen = GeneratorPair(h_b=0.8 * SIGMA_X, h_omega=-2.3 * SIGMA_X)
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = qfim_from_generators(haar_state(4, rng), gen)
            assert f.det() <= 1e-9

    def test_single_qubit_probe(self):
        gen = GeneratorPair(h_b=1.5 * SIGMA_X, h_omega=0.5 * SIGMA_Y)
        f = qfim_from_generators(ket(2, 0), gen, ancilla=False)
        assert f.f_bb == pytest.approx(9.0)  # 4 * Var = 4 * (gT/2)^2

    def test_dimension_mismatch(self):
        gen = GeneratorPair(h_b=SIGMA_X, h_omega=SIGMA_Y)
        with pytest.raises(ValueError):
            qfim_from_generators(ket(2, 0), gen, ancilla=True)


class TestClosedForm:
    def test_reference_value(self):
        f = qfim_closed_form(FieldParams.matched(1.0, 1.0), 1.0)
        assert f.f_bb == pytest.approx(F_BB_1111, rel=1e-14)

    def test_zero_amplitude(self):
        f = qfim_closed_form(FieldParams.matched(0.0, 1.0), 1.0)
        assert f.f_ww == 0.0 and f.f_bw == 0.0

    def test_closed_form_matches_generators(self):
        # acceptance-grade equivalence on random tuples
        for B, w, T in _random_tuples(50, seed=21):
            p = FieldParams.matched(B, w)
            f1 = qfim_closed_form(p, T).matrix()
            f2 = qfim_from_generators(bell_state("phi+"),
                                      generator_closed_form(p, T)).matrix()
            assert np.max(np.abs(f1 - f2)) / np.max(np.abs(f1)) < 1e-9

    def test_off_diagonal_suppressed_at_long_times(self):
        f = qfim_closed_form(FieldParams.matched(1.0, 1000.0), 1.0)
        assert abs(f.f_bw) / np.sqrt(f.f_bb * f.f_ww) <= 2e-3


class TestDeterminant:
    def test_zero_at_t0(self):
        assert qfim_determinant(FieldParams.matched(1.0, 1.0), 0.0) == 0.0

    def test_reference_value_at_t_pi(self):
        d = qfim_determinant(FieldParams.matched(1.0, 1.0), np.pi)
        assert d == pytest.approx(DET_AT_T_PI, rel=1e-12)

    def test_identity_with_matrix_determinant(self):
        for B, w, T in _random_tuples(50, seed=22):
            p = FieldParams.matched(B, w)
            d1 = qfim_determinant(p, T)
            d2 = qfim_closed_form(p, T).det()
            assert abs(d1 - d2) / abs(d1) < 1e-6
            assert d1 > 0.0


def _mp_qfim(g, B, w, T):
    """Closed-form entries and determinant evaluated with 60 digits."""
    with mp.workdps(60):
        g, B, w, T = map(mp.mpf, (g, B, w, T))
        x = w * T
        s, c = mp.sin(2 * x), mp.cos(2 * x)
        f_bb = g**2 * (1 + 2 * x**2 - c + 2 * x * s) / (2 * w**2)
        f_bw = g**2 * B * (-1 - x**2 + (1 + 3 * x**2) * c) / (4 * w**3)
        f_ww = g**2 * B**2 * (1 + 4 * x**2 + 2 * x**4
                              - (1 + 2 * x**2) * (c + 2 * x * s)) / (8 * w**4)
        det = g**4 * B**2 * T**4 / (16 * w**2) * (2 * x - mp.sin(2 * x))**2
        return f_bb, f_bw, f_ww, det


class TestSmallOmegaT:
    @pytest.mark.parametrize("omega_t", [1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
                                         10.0])
    def test_matches_high_precision_oracle(self, omega_t):
        g, B, T = 1.3, 0.7, 2.0
        p = FieldParams.matched(B, omega_t / T, gamma=g)
        f = qfim_closed_form(p, T)
        d = qfim_determinant(p, T)
        assert f.f_ww > 0.0
        exact = _mp_qfim(g, B, p.omega, T)
        for got, want in zip((f.f_bb, f.f_bw, f.f_ww, d), exact):
            assert abs(got / want - 1) <= 1e-9
        # f_bb*f_ww - f_bw^2 cancels down to (omega*T)^2/16 of f_bb*f_ww, so
        # rounded entries fix it only to a few ulp of f_bb*f_ww; that bound
        # is the tighter one below omega*T ~ 2.4e-3
        eps = np.finfo(float).eps
        tol = max(1e-8 * d, 8 * eps * (f.f_bb * f.f_ww + f.f_bw**2))
        assert abs(f.det() - d) <= tol


class TestArrayClosedForms:
    # one call spans both branches: below, at and above omega*T = 0.5
    OMEGA_T = np.array([1e-3, 0.49, 0.5 * (1 - 1e-12), 0.5, 0.5 * (1 + 1e-12),
                        0.51, 7.0, 1e4])

    def test_qfim_matches_scalar_functions_and_oracle(self):
        g, B, T = 1.3, 0.7, 2.0
        got = _closed_form(g, B, self.OMEGA_T / T, T)
        for i, x in enumerate(self.OMEGA_T):
            p = FieldParams.matched(B, x / T, gamma=g)
            f = qfim_closed_form(p, T)
            scalar = (f.f_bb, f.f_bw, f.f_ww, qfim_determinant(p, T))
            np.testing.assert_allclose([v[i] for v in got], scalar,
                                       rtol=4 * np.finfo(float).eps)
            exact = _mp_qfim(g, B, p.omega, T)
            for value, want in zip(scalar, exact):
                assert abs(value / want - 1) <= 1e-13

    def test_unselected_branch_raises_no_floating_point_error(self):
        # the series would overflow at omega*T = 1e30
        with np.errstate(all="raise"):
            entries = _closed_form(1.3, 0.7, np.array([1e-6, 0.7, 1e30]), 1.0)
        assert np.all(np.isfinite(entries))

    @pytest.mark.parametrize("omega_t", [1e78, 1e100, 1e200, 1e300])
    def test_entries_stay_finite_at_huge_omega_t(self, omega_t):
        # (omega*T)^4 overflows above ~1e77, so no entry may be formed from it
        g, B = 1.3, 0.7
        entries = _closed_form(g, B, omega_t, 1.0)
        assert np.all(np.isfinite(entries))
        eps = np.finfo(float).eps
        assert abs(entries[0] / g**2 - 1) <= 4 * eps
        assert abs(entries[2] / (g**2 * B**2 / 4) - 1) <= 4 * eps

    def test_generator_coefficients_match_scalar_generators(self):
        g, B, T = 1.3, 0.7, 2.0
        for mode in ("exact", "asymptotic"):
            bx, by, wx, wy = (
                np.broadcast_to(c, self.OMEGA_T.shape)
                for c in _generator_coeffs(g, B, self.OMEGA_T / T, T, mode))
            for i, x in enumerate(self.OMEGA_T):
                gen = generator_closed_form(
                    FieldParams.matched(B, x / T, gamma=g), T, mode)
                np.testing.assert_allclose(
                    bx[i] * SIGMA_X + by[i] * SIGMA_Y, gen.h_b,
                    rtol=0, atol=4 * np.finfo(float).eps * np.abs(gen.h_b).max())
                np.testing.assert_allclose(
                    wx[i] * SIGMA_X + wy[i] * SIGMA_Y, gen.h_omega, rtol=0,
                    atol=4 * np.finfo(float).eps * np.abs(gen.h_omega).max())


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


class TestClosedFormProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(omega_t=st.lists(st.floats(-6.0, 8.0), min_size=1, max_size=16)
           .map(lambda e: 10.0 ** np.array(e)),
           g=_log_uniform(1e-2, 1e2), B=_log_uniform(1e-3, 1e3),
           T=_log_uniform(1e-3, 1e3))
    def test_positive_with_determinant_identity(self, omega_t, g, B, T):
        f_bb, f_bw, f_ww, det = _closed_form(g, B, omega_t / T, T)
        assert np.all(f_bb > 0) and np.all(f_ww > 0) and np.all(det > 0)
        # the bound of TestSmallOmegaT: 1e-8 relative, or a few ulp of
        # f_bb*f_ww where the difference cancels at small omega*T
        eps = np.finfo(float).eps
        tol = np.maximum(1e-8 * det, 8 * eps * (f_bb * f_ww + f_bw**2))
        assert np.all(np.abs(f_bb * f_ww - f_bw**2 - det) <= tol)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(omega_t=_log_uniform(1e-6, 1e8), g=_log_uniform(1e-2, 1e2),
           B=_log_uniform(1e-3, 1e3), T=_log_uniform(1e-3, 1e3),
           z=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
           .map(np.array).filter(lambda z: np.linalg.norm(z) > 1e-3))
    def test_bell_probe_is_optimal(self, omega_t, g, B, T, z):
        gen = generator_closed_form(
            FieldParams.matched(B, omega_t / T, gamma=g), T)
        f_bb, f_bw, f_ww, det = _closed_form(g, B, omega_t / T, T)
        eps = np.finfo(float).eps
        tol = max(1e-8 * det, 8 * eps * (f_bb * f_ww + f_bw**2))
        probe = (z[:4] + 1j * z[4:]) / np.linalg.norm(z)
        assert qfim_from_generators(probe, gen).det() <= det + tol
        bell = qfim_from_generators(bell_state("phi+"), gen)
        diag = np.sqrt([f_bb, f_ww])
        assert np.all(np.abs(bell.matrix() - [[f_bb, f_bw], [f_bw, f_ww]])
                      <= 8 * eps * np.outer(diag, diag))
        assert abs(bell.det() - det) <= tol

    # over the whole range FieldParams accepts, each closed form gives finite
    # values or one OverflowError that names the T, never inf, nan or a bare
    # error from a float power
    FLOATS = dict(allow_nan=False, allow_infinity=False)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(B=st.floats(0.0, None, **FLOATS),
           omega=st.floats(0.0, None, exclude_min=True, **FLOATS),
           g=st.floats(0.0, None, exclude_min=True, **FLOATS),
           T=st.floats(0.0, None, exclude_min=True, **FLOATS))
    def test_finite_or_a_named_overflow(self, B, omega, g, T):
        p = FieldParams.matched(B, omega, gamma=g)
        for form, values in (
                (qfim_closed_form, lambda f: (f.f_bb, f.f_bw, f.f_ww)),
                (qfim_determinant, lambda d: (d,)),
                (generator_closed_form, lambda h: (h.h_b, h.h_omega))):
            try:
                out = form(p, T)
            except OverflowError as err:
                at_t = f"a float at T = {re.escape(str(T))}$"
                assert re.search("overflows? " + at_t, str(err)), form.__name__
            else:
                assert np.all(np.isfinite(values(out))), form.__name__

    def test_overflowing_entries_are_named(self):
        for p, T in ((FieldParams.matched(1e200, 1.0), 1.0),
                     (FieldParams.matched(1.0, 1.0), 1e100)):
            with pytest.raises(OverflowError, match="QFIM entries overflow "
                               f"a float at T = {re.escape(str(T))}$"):
                qfim_closed_form(p, T)


class TestQcrb:
    def test_diagonal_inverse(self):
        bound = qcrb(Qfim2(4.0, 0.0, 16.0), 1)
        assert bound.var_b == pytest.approx(0.25)
        assert bound.var_w == pytest.approx(0.0625)

    def test_linear_in_repetitions(self):
        f = Qfim2(3.0, 0.5, 7.0)
        one = qcrb(f, 1)
        ten = qcrb(f, 10)
        assert ten.var_b == pytest.approx(one.var_b / 10)
        assert ten.var_w == pytest.approx(one.var_w / 10)
        assert ten.cov_bw == pytest.approx(one.cov_bw / 10)

    def test_singular_matrix_raises(self):
        with pytest.raises(SingularQfimError, match="unattainable"):
            qcrb(Qfim2(1.0, 2.0, 4.0), 1)

    @pytest.mark.parametrize("entries", [
        (np.nan, 0.0, 1.0), (1.0, np.nan, 1.0), (1.0, 0.0, np.nan)])
    def test_nan_entry_is_singular(self, entries):
        # NaN fails every comparison: the rule must read it as singular
        # rather than hand qcrb NaN variances
        assert Qfim2(*entries).is_singular()
        with pytest.raises(SingularQfimError):
            qcrb(Qfim2(*entries), 1)

    def test_is_covbound(self):
        assert isinstance(qcrb(Qfim2(4.0, 0.0, 16.0), 2), CovBound)

    def test_small_regular_matrix_is_inverted(self):
        # det 1e-14, far below 1 in absolute terms, of 1e-7 times I
        f = Qfim2(1e-7, 0.0, 1e-7)
        assert not f.is_singular()
        bound = qcrb(f, 1)
        assert (bound.var_b, bound.var_w, bound.cov_bw) == pytest.approx(
            (1e7, 1e7, 0.0))

    def test_matched_control_at_short_times_is_regular(self):
        # det / max|F_ij|^2 = 4.8e-8, 480 times above the rule; det itself
        # is about 5e-16
        f = qfim_closed_form(FieldParams.matched(1.0, 50.0), 0.01)
        assert f.det() / max(f.f_bb, f.f_ww) ** 2 == pytest.approx(4.8e-8,
                                                                   rel=0.01)
        assert not f.is_singular()
        assert qcrb(f, 1).var_w > 0

    def test_zero_and_rounded_parallel_matrices_are_singular(self):
        assert Qfim2(0.0, 0.0, 0.0).is_singular()
        # the Bell-probe QFIM of parallel generators 0.1 sx and 1.7 sx: its
        # det is rounding, here below 0
        f = Qfim2(4 * 0.1 * 0.1, 4 * 0.1 * 1.7, 4 * 1.7 * 1.7)
        assert f.det() < 0 and f.is_singular()

    @pytest.mark.parametrize("entries", [
        (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (4.0, 2.0, 1.0 + 1e-9),
        (1e-7, 0.0, 1e-7), (3.0, -0.5, 7.0), (0.0, 0.0, 0.0)])
    @pytest.mark.parametrize("power", [-40, 40])
    def test_verdict_is_scale_free(self, entries, power):
        scaled = Qfim2(*(x * 2.0**power for x in entries))
        assert scaled.is_singular() == Qfim2(*entries).is_singular()

    # every power of two 2^j at which c F is exact: finite and with no entry
    # rounded into the subnormal range
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(entries=st.tuples(*3 * [st.floats(-1e10, 1e10,
                                             allow_subnormal=False)]))
    def test_verdict_holds_at_every_exact_power_of_two(self, entries):
        verdict = Qfim2(*entries).is_singular()
        js = np.arange(-1100, 1100)
        with np.errstate(over="ignore"):
            scaled = np.ldexp(np.array(entries)[:, None], js)
        exact = (np.isfinite(scaled).all(0)
                 & (np.ldexp(scaled, -js) == np.array(entries)[:, None]).all(0)
                 & ((scaled == 0) | (np.abs(scaled)
                                     >= np.finfo(float).tiny)).all(0))
        assert exact.sum() > 100
        for f in scaled.T[exact]:
            assert Qfim2(*map(float, f)).is_singular() == verdict

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(f_bb=st.floats(1e-3, 1e3), f_ww=st.floats(1e-3, 1e3),
           f_bw=st.one_of(st.just(0.0), st.floats(1e-3, 1e3),
                          st.floats(-1e3, -1e-3)),
           j=st.integers(-900, 900), repetitions=st.integers(1, 1000))
    def test_bound_scales_as_the_inverse(self, f_bb, f_bw, f_ww, j,
                                         repetitions):
        f = Qfim2(f_bb, f_bw, f_ww)
        assume(not f.is_singular())
        c = 2.0**j
        bound = qcrb(f, repetitions)
        scaled = qcrb(Qfim2(c * f_bb, c * f_bw, c * f_ww), repetitions)
        for name in ("var_b", "var_w", "cov_bw"):
            assert getattr(scaled, name) == getattr(bound, name) / c

    def test_entries_past_a_float_square(self):
        # det of these overflows a float, and their squares did too
        big = Qfim2(1e160, 0.0, 1e160)
        assert big.det() == np.inf and not big.is_singular()
        bound = qcrb(big, 1)
        assert (bound.var_b, bound.var_w) == pytest.approx((1e-160, 1e-160),
                                                           rel=1e-15)
        assert qcrb(Qfim2(1e150, 0.0, 1e152), 1).var_b == pytest.approx(
            1e-150, rel=1e-15)
        # det / max|F_ij|^2 = 1e-20: singular under the scale-free rule
        with pytest.raises(SingularQfimError):
            qcrb(Qfim2(1e150, 0.0, 1e170), 1)

    def test_entries_whose_det_underflows(self):
        # det = 1e-400 is 0 in a float, but 1e-200 I is as regular as I
        f = Qfim2(1e-200, 0.0, 1e-200)
        assert not f.is_singular()
        assert qcrb(f, 1).var_b == pytest.approx(1e200, rel=1e-15)


class TestRelativeErrorCurves:
    def test_frequency_generator_error_near_inverse_omega_t(self):
        c = relative_error_curves(FieldParams.matched(1.0, 1.0), [100.0])
        assert c["dh_omega"][0] == pytest.approx(0.01, rel=0.05)

    def test_envelope_slopes_minus_one(self):
        xs = np.logspace(2, 5, 1500)
        c = relative_error_curves(FieldParams.matched(1.0, 1.0), xs)
        for key in ("dh_b", "dh_omega", "df_bb", "df_ww", "df_bw"):
            slope, _ = envelope_slope(xs, c[key])
            assert -1.1 <= slope <= -0.9, key

    def test_envelope_decreases_toward_zero(self):
        xs = np.logspace(2, 5, 1500)
        c = relative_error_curves(FieldParams.matched(1.0, 1.0), xs)
        ex, ey = upper_envelope(xs, c["df_ww"], bins_per_decade=2)
        assert np.all(np.diff(ey) < 0)
        assert ey[-1] < 1e-4

    def test_matches_spectral_norm_reference(self):
        p = FieldParams.matched(1.3, 1.0, gamma=0.8)
        xs = np.geomspace(7.0, 1e6, 120)
        got = relative_error_curves(p, xs)
        ref = {k: [] for k in ("dh_b", "dh_omega", "df_bb", "df_ww", "df_bw")}
        for x in xs:
            q = FieldParams.matched(B=p.B, omega=x, gamma=p.gamma)
            exact = generator_closed_form(q, 1.0, "exact")
            limit = generator_closed_form(q, 1.0, "asymptotic")
            for key, h, h_inf in (("dh_b", exact.h_b, limit.h_b),
                                  ("dh_omega", exact.h_omega, limit.h_omega)):
                ref[key].append(np.linalg.norm(h - h_inf, 2)
                                / np.linalg.norm(h_inf, 2))
            f = qfim_closed_form(q, 1.0)
            fbb_inf, fww_inf = q.gamma**2, q.gamma**2 * q.B**2 / 4
            ref["df_bb"].append(abs(f.f_bb - fbb_inf) / fbb_inf)
            ref["df_ww"].append(abs(f.f_ww - fww_inf) / fww_inf)
            ref["df_bw"].append(abs(f.f_bw) / np.sqrt(fbb_inf * fww_inf))
        # hypot against an SVD, on differences of O(1) coefficients
        eps = np.finfo(float).eps
        for key, values in ref.items():
            np.testing.assert_allclose(got[key], values, rtol=16 * eps,
                                       atol=16 * eps, err_msg=key)

    def test_requires_long_time_regime(self):
        with pytest.raises(ValueError):
            relative_error_curves(FieldParams.matched(1.0, 1.0), [1.0])


class TestProbeOverlap:
    def test_identity_rotation(self):
        rng = np.random.default_rng(5)
        psi = haar_state(4, rng)
        assert probe_overlap(psi, np.eye(2)) == pytest.approx(1.0)

    def test_closed_form_of_the_identity_is_one(self):
        # no rotation axis: the closed form answers |cos a| = 1 directly
        rng = np.random.default_rng(5)
        for psi in (haar_state(4, rng), bell_state("phi+"), ket(4, 0)):
            assert probe_overlap_closed_form(psi, I2) == 1.0
            assert probe_overlap_closed_form(psi, -1j * I2) == 1.0

    def test_bell_probe_gives_cos(self):
        rng = np.random.default_rng(6)
        for _ in range(15):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            a = rng.uniform(0, np.pi)
            u = expm_hermitian(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z, a)
            val = probe_overlap(bell_state("phi+"), u)
            assert val == pytest.approx(abs(np.cos(a)), abs=1e-12)

    def test_product_probe_is_insensitive_to_z_rotations(self):
        psi = ket(4, 0)  # |00>
        u = expm_hermitian(SIGMA_Z, 0.9)
        assert probe_overlap(psi, u) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_agrees_with_trace_form(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = haar_state(4, rng)
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            a = rng.uniform(0, np.pi)
            u = np.exp(1j * rng.uniform(0, 2 * np.pi)) * expm_hermitian(
                n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z, a)
            assert probe_overlap(psi, u) == pytest.approx(
                probe_overlap_closed_form(psi, u), abs=1e-10)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            probe_overlap(bell_state("phi+"), np.diag([1.0, 0.5]))


class TestProbeSearch:
    def test_bell_probe_maximizes_determinant(self):
        p = FieldParams.matched(1.0, 1.0)
        gen = generator_closed_form(p, 2.0, mode="asymptotic")
        dets = sample_probe_determinants(gen, 200, seed=42)
        bell = bell_probe_determinant(gen)
        assert dets.max() <= bell + 1e-9

    def test_sampling_is_deterministic_per_index(self):
        p = FieldParams.matched(1.0, 1.0)
        gen = generator_closed_form(p, 2.0, mode="asymptotic")
        a = sample_probe_determinants(gen, 10, seed=1)
        b = sample_probe_determinants(gen, 10, seed=1)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_batch_matches_per_sample_loop(self, seed):
        p = FieldParams.matched(1.3, 1.0)
        gen = generator_closed_form(p, 2.0)
        got = sample_probe_determinants(gen, 300, seed)
        want = np.array([
            qfim_from_generators(haar_state(4, np.random.default_rng([seed, i])),
                                 gen).det() for i in range(300)])
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
        # any prefix of the index range reproduces bit for bit
        for n in (1, 7, 64, 299):
            np.testing.assert_array_equal(
                sample_probe_determinants(gen, n, seed), got[:n])

    def test_qcrb_ordering_against_bell(self):
        p = FieldParams.matched(1.0, 1.0)
        gen = generator_closed_form(p, 2.0, mode="asymptotic")
        bell_bound = qcrb(qfim_from_generators(bell_state("phi+"), gen), 1)
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = qfim_from_generators(haar_state(4, rng), gen)
            if f.is_singular():
                continue
            bound = qcrb(f, 1)
            assert bound.var_b >= bell_bound.var_b - 1e-12
            assert bound.var_w >= bell_bound.var_w - 1e-12


class TestClassicalFim:
    def test_constant_distribution_carries_no_information(self):
        f = classical_fim(lambda b, w: np.array([0.25] * 4),
                          FieldParams.matched(1.0, 1.0))
        assert f.f_bb == 0.0 and f.f_ww == 0.0 and f.f_bw == 0.0

    def test_nonpositive_probability_names_outcome(self):
        def bad(b, w):
            return np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="outcome 2"):
            classical_fim(bad, FieldParams.matched(1.0, 1.0))

    def test_gaussian_family_matches_analytic_fim(self):
        # binary outcome p = (s, 1-s) with s = 0.5 + a*(B-1) + c*(w-1):
        # analytic FIM is outer([a, c]) / (s (1-s)) summed over outcomes
        a, c = 0.04, -0.07
        def fn(b, w):
            s = 0.5 + a * (b - 1.0) + c * (w - 1.0)
            return np.array([s, 1.0 - s])
        f = classical_fim(fn, FieldParams.matched(1.0, 1.0))
        scale = 1.0 / 0.25
        assert f.f_bb == pytest.approx(a * a * scale, rel=1e-6)
        assert f.f_ww == pytest.approx(c * c * scale, rel=1e-6)
        assert f.f_bw == pytest.approx(a * c * scale, rel=1e-6)

    def test_rotated_bell_readout_fim_is_psd_and_invertible(self):
        # probabilities from the rotated Bell-basis readout of the full
        # two-qubit sequence, swept through the target parameters
        from acmag.nv import (NvParams, PiPulseModel, PulseSequence,
                              bell_readout, operating_field,
                              simulate_sequence)
        nv = NvParams()
        p = operating_field(nv, 5.65)
        pulse = PiPulseModel()
        probe = bell_state("phi+")

        def prob_fn(b_val, w_val):
            pv = replace(p, B=b_val, omega=w_val)
            seq = PulseSequence(2, 0.017, pulse)
            return bell_readout(simulate_sequence(seq, nv, pv, probe))

        f = classical_fim(prob_fn, p, step=(5e-4, 0.05))
        assert f.f_bb > 0 and f.f_ww > 0
        assert f.det() > 0
        assert np.linalg.eigvalsh(f.matrix()).min() > 0

    @staticmethod
    def _saturation_gap(w: float, steps: int) -> tuple:
        # measurement in the frozen eigenbasis of sz x sy and sx x sz after
        # the matched evolution; probabilities from numeric propagation
        from acmag.dynamics import propagate
        g, B, T = 1.0, 1.0, 1.0
        ob = tensor(SIGMA_Z, SIGMA_Y)
        ow = tensor(SIGMA_X, SIGMA_Z)
        _, basis = np.linalg.eigh(ob + np.pi * ow)  # split joint eigenspaces
        u0 = expm_hermitian(0.5 * w * SIGMA_Z, T)
        effects = [tensor(u0, I2) @ basis[:, i] for i in range(4)]
        bell = bell_state("phi+")

        def prob_fn(b_val, w_val):
            def h(t):
                f_x = g * (b_val * np.cos(w_val * t) - B * np.cos(w * t))
                return f_x[:, None, None] * SIGMA_X + 0.5 * w * SIGMA_Z
            u = propagate(h, TimeGrid(0.0, T, steps))
            psi = tensor(u, I2) @ bell
            return np.array([abs(e.conj() @ psi) ** 2 for e in effects])

        fcl = classical_fim(prob_fn, FieldParams.matched(B, w, gamma=g))
        fq = qfim_closed_form(FieldParams.matched(B, w, gamma=g), T)
        return fcl, fq

    def test_commuting_observables_saturate_qfim(self):
        ob = tensor(SIGMA_Z, SIGMA_Y)
        ow = tensor(SIGMA_X, SIGMA_Z)
        assert np.max(np.abs(ob @ ow - ow @ ob)) < 1e-14
        fcl, fq = self._saturation_gap(w=1000.0, steps=60_000)
        assert fcl.f_bb == pytest.approx(fq.f_bb, rel=0.02)
        assert fcl.f_ww == pytest.approx(fq.f_ww, rel=0.02)
        # diagonals never exceed the quantum values (up to numerics)
        assert fcl.f_bb <= fq.f_bb * (1 + 1e-6)
        assert fcl.f_ww <= fq.f_ww * (1 + 1e-6)

    def test_saturation_holds_across_regimes(self):
        # the frozen joint-eigenbasis measurement is optimal well before
        # the asymptotic regime: the whole matrix matches, not just the
        # diagonals, down to finite-difference accuracy
        for w, steps in ((30.0, 6_000), (1000.0, 60_000)):
            fcl, fq = self._saturation_gap(w=w, steps=steps)
            assert fcl.f_bb == pytest.approx(fq.f_bb, rel=1e-3)
            assert fcl.f_ww == pytest.approx(fq.f_ww, rel=1e-3)
            assert fcl.f_bw == pytest.approx(fq.f_bw, rel=1e-3, abs=1e-6)


class TestNumericGeneratorsIntoQfim:
    def test_numeric_generator_qfim_matches_closed_form(self):
        p = FieldParams.matched(1.0, 1.0)
        grid = TimeGrid(0, 1.0, 20_000)
        gen = GeneratorPair(h_b=generator_numeric(p, "B", grid),
                            h_omega=generator_numeric(p, "omega", grid))
        f1 = qfim_from_generators(bell_state("phi+"), gen).matrix()
        f2 = qfim_closed_form(p, 1.0).matrix()
        assert np.max(np.abs(f1 - f2)) < 1e-6


class TestPhiDomain:
    # every closed form is derived for phi = 0
    OFF = FieldParams.matched(1.0, 5.0, phi=0.3)
    CALLS = {
        "generator_closed_form": lambda p: generator_closed_form(p, 2.0),
        "qfim_closed_form": lambda p: qfim_closed_form(p, 2.0),
        "qfim_determinant": lambda p: qfim_determinant(p, 2.0),
        "relative_error_curves": lambda p: relative_error_curves(p, [100.0]),
        "strategy_comparison": lambda p: strategy_comparison(p, 2.0),
    }

    def test_the_phi_zero_answer_is_wrong_at_other_phi(self):
        # the Bell-probe QFIM of the numerical generators at phi = 0.3
        # is f_bb = 4.180, f_bw = -0.264; the phi = 0 closed form reads
        # 4.377 and +0.044
        grid = TimeGrid(0.0, 2.0, 20_000)
        gen = GeneratorPair(*(generator_numeric(self.OFF, theta, grid)
                              for theta in ("B", "omega")))
        f = qfim_from_generators(bell_state("phi+"), gen)
        at_zero = qfim_closed_form(replace(self.OFF, phi=0.0, phi_c=0.0), 2.0)
        assert f.f_bb == pytest.approx(4.180, abs=1e-3)
        assert f.f_bw == pytest.approx(-0.264, abs=1e-3)
        assert abs(at_zero.f_bw - f.f_bw) > 0.25

    @pytest.mark.parametrize("name", list(CALLS))
    @pytest.mark.parametrize("phi", [0.3, -1e-300, np.nan])
    def test_other_phi_raises(self, name, phi):
        with pytest.raises(ValueError, match="assume phi = 0, got phi = "):
            self.CALLS[name](replace(self.OFF, phi=phi, phi_c=phi))

    @pytest.mark.parametrize("name", list(CALLS))
    def test_phi_zero_is_unchanged(self, name):
        # -0.0 is phi = 0, and gives the default field's answer bit for bit
        p = FieldParams.matched(1.0, 5.0)
        got = self.CALLS[name](replace(p, phi=-0.0, phi_c=-0.0))
        ref = self.CALLS[name](p)
        if isinstance(ref, dict):
            got, ref = list(got.values()), list(ref.values())
        elif not isinstance(ref, float):
            got, ref = list(vars(got).values()), list(vars(ref).values())
        np.testing.assert_array_equal(got, ref)


_GEN = generator_closed_form(FieldParams.matched(1.0, 1.0), 1.0)


@pytest.mark.parametrize("call,match", [
    (lambda: qfim_from_generators(bell_state("phi+"), _GEN, ancilla=False),
     "probe dimension does not match the generators"),
    (lambda: qcrb(Qfim2(4.0, 0.0, 16.0), 0),
     "repetitions must be a positive integer"),
    (lambda: relative_error_curves(FieldParams.matched(0.0, 1.0), [100.0]),
     "frequency curves require B > 0"),
    (lambda: probe_overlap_closed_form(bell_state("phi+"),
                                       np.diag([1.0, 0.5])),
     "u_rel must be unitary"),
    (lambda: classical_fim(lambda b, w: np.full(4, 0.25),
                           FieldParams.matched(1.0, 1.0), step=(0.0, None)),
     "finite-difference steps must be positive"),
    (lambda: classical_fim(lambda b, w: np.full(4, 0.25),
                           FieldParams.matched(1.0, 1.0),
                           step=(None, np.nan)),
     "finite-difference steps must be positive"),
    (lambda: classical_fim(lambda b, w: np.array([0.5, np.nan, 0.25, 0.25]),
                           FieldParams.matched(1.0, 1.0)),
     "outcome 1 has non-positive probability .*nan"),
    (lambda: relative_error_curves(FieldParams.matched(1.0, 1.0),
                                   [100.0, np.nan]),
     "omega\\*T values must exceed 2\\*pi"),
], ids=["probe-size", "repetitions", "zero-amplitude", "non-unitary",
        "step", "nan-step", "nan-probability", "nan-omega-t"])
def test_rejections(call, match):
    with pytest.raises(ValueError, match=match):
        call()

"""Envelope integrals, single-parameter ceilings, strategy ratios."""

import json

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acmag.bounds import (envelope_integral, single_param_qfi_bound,
                          strategy_comparison)
from acmag.cli import main
from acmag.dynamics import FieldParams, generator_closed_form
from acmag.qfim import _closed_form, qfim_closed_form, qfim_determinant
from test_dynamics import _mp_generator_coeffs
from test_qfim import _mp_qfim

TWO_OVER_PI = 2.0 / np.pi
EPS = np.finfo(float).eps
# the angular frequency of the benchmark's bounds config, 1591.5 MHz
OMEGA_BENCH = 2 * np.pi * 1591.5
FIELDS = ("f_b_max", "f_w_max", "ratio_b", "ratio_w", "seq_var_ratio_b",
          "seq_var_ratio_w", "regime_omega_t", "sd_ratio_b", "sd_ratio_w")


def _quadrature(kind, omega, T, n=2_000_001):
    t = np.linspace(0.0, T, n)
    y = np.abs(np.cos(omega * t)) if kind == "abs_cos" else t * np.abs(np.sin(omega * t))
    dt = T / (n - 1)
    return dt * (0.5 * y[0] + y[1:-1].sum() + 0.5 * y[-1])


def _segment_simpson(kind, omega, T, m=1000):
    """High-accuracy oracle: composite Simpson on each smooth half-period."""
    first = np.pi / 2 if kind == "abs_cos" else np.pi
    edges = np.concatenate([[0.0], np.arange(first, omega * T, np.pi),
                            [omega * T]]) / omega
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t = np.linspace(a, b, 2 * m + 1)
        y = (np.abs(np.cos(omega * t)) if kind == "abs_cos"
             else t * np.abs(np.sin(omega * t)))
        h = (b - a) / (2 * m)
        total += h / 3 * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())
    return total


def _mp_envelope(kind, omega, T):
    """30-digit oracle built from mpmath quadratures over one period.

    With x = omega*T = m*pi + r, the m completed periods of |cos| add m
    times its period integral; the period [j pi, (j+1) pi] of t|sin| adds
    a + j*pi*b with a, b the integrals of v sin v and sin v over [0, pi].
    """
    with mp.workdps(30):
        w = mp.mpf(omega)
        x = w * mp.mpf(T)
        pi = mp.pi
        m = int(mp.floor(x / pi))
        r = x - m * pi
        if kind == "abs_cos":
            f = lambda v: abs(mp.cos(v))
            part = mp.quad(f, [0, r] if r <= pi / 2 else [0, pi / 2, r])
            return float((m * mp.quad(f, [0, pi / 2, pi]) + part) / w)
        a = mp.quad(lambda v: v * mp.sin(v), [0, pi])
        b = mp.quad(mp.sin, [0, pi])
        part = mp.quad(lambda v: (v + m * pi) * mp.sin(v), [0, r])
        return float((m * a + pi * b * m * (m - 1) / 2 + part) / w**2)


class TestEnvelopeIntegral:
    def test_abs_cos_one_period(self):
        val = envelope_integral("abs_cos", 2 * np.pi, 1.0)
        assert val == pytest.approx(TWO_OVER_PI, rel=1e-14)
        assert val == pytest.approx(_quadrature("abs_cos", 2 * np.pi, 1.0),
                                    rel=1e-9)

    def test_t_abs_sin_ten_periods(self):
        val = envelope_integral("t_abs_sin", 2 * np.pi, 10.0)
        assert val == pytest.approx(100.0 / np.pi, rel=0.01)
        assert val == pytest.approx(_quadrature("t_abs_sin", 2 * np.pi, 10.0),
                                    rel=1e-9)

    def test_quadrature_agreement_at_generic_points(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            omega = rng.uniform(0.5, 30.0)
            T = rng.uniform(0.5, 8.0)
            for kind in ("abs_cos", "t_abs_sin"):
                exact = envelope_integral(kind, omega, T)
                assert exact == pytest.approx(_quadrature(kind, omega, T),
                                              rel=1e-8, abs=1e-12)

    def test_agrees_with_segment_simpson_to_1e12(self):
        for omega, T in ((0.9, 3.7), (2.6, 4.1), (5.0, 1.3)):
            for kind in ("abs_cos", "t_abs_sin"):
                exact = envelope_integral(kind, omega, T)
                oracle = _segment_simpson(kind, omega, T)
                assert abs(exact - oracle) / oracle <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 1001, 10**5, 318309])
    def test_matches_mpmath_at_sign_changes_and_peaks(self, k):
        # the integrands change sign or peak at k*pi and k*pi +- pi/2,
        # where the count of completed half-periods steps
        for x in (k * np.pi - np.pi / 2, k * np.pi, k * np.pi + np.pi / 2):
            for kind in ("abs_cos", "t_abs_sin"):
                want = _mp_envelope(kind, 1.0, x)
                got = envelope_integral(kind, 1.0, x)
                assert abs(got - want) <= 8 * np.finfo(float).eps * want

    def test_matches_mpmath_up_to_omega_t_1e6(self):
        omega = 2 * np.pi * 1591.5
        for omega_t in (0.3, 7.7, 1234.5, 5e4, 1e5, 9.99e5, 1e6):
            for kind in ("abs_cos", "t_abs_sin"):
                want = _mp_envelope(kind, omega, omega_t / omega)
                got = envelope_integral(kind, omega, omega_t / omega)
                assert abs(got - want) <= 8 * np.finfo(float).eps * want

    def test_array_matches_mpmath_up_to_omega_t_1e9(self):
        # above omega*T ~ 3e8 the half-period count k(k + 1) is rounded
        omega_t = np.array([0.3, 7.7, 1234.5, 1e6, 1e7, 1e8, 3e8, 7.3e8, 1e9])
        T = omega_t / OMEGA_BENCH
        for kind in ("abs_cos", "t_abs_sin"):
            got = envelope_integral(kind, OMEGA_BENCH, T)
            want = np.array([_mp_envelope(kind, OMEGA_BENCH, t) for t in T])
            assert np.all(np.abs(got - want) <= 8 * EPS * want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(omega=st.floats(-3.0, 4.0).map(lambda e: 10.0**e),
           omega_t=st.lists(st.floats(-6.0, 9.0), min_size=1, max_size=12)
           .map(lambda e: 10.0 ** np.array(e)))
    def test_array_call_equals_scalar_calls(self, omega, omega_t):
        T = omega_t / omega
        for kind in ("abs_cos", "t_abs_sin"):
            got = envelope_integral(kind, omega, T)
            assert isinstance(got, np.ndarray) and got.shape == T.shape
            assert got.tolist() == [envelope_integral(kind, omega, t)
                                    for t in T.tolist()]

    def test_scalar_input_gives_a_float(self):
        for kind in ("abs_cos", "t_abs_sin"):
            assert type(envelope_integral(kind, 2.0, 3.0)) is float
            assert type(envelope_integral(kind, np.float64(2.0), 3)) is float

    def test_asymptotic_form_of_abs_cos(self):
        for omega_t in (100.0, 1000.0, 10000.0):
            T = 1.0
            val = envelope_integral("abs_cos", omega_t / T, T)
            assert abs(val / T - TWO_OVER_PI) <= 1.0 / omega_t

    def test_monotone_in_duration(self):
        omega = 7.3
        values = [envelope_integral("abs_cos", omega, t)
                  for t in np.linspace(0.2, 5.0, 40)]
        assert np.all(np.diff(values) > 0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            envelope_integral("abs_cos", 0.0, 1.0)
        with pytest.raises(ValueError):
            envelope_integral("abs_sin", 1.0, 1.0)

    @pytest.mark.parametrize("omega,T", [
        (1.0, [1.0, 0.0, 2.0]), (1.0, [3.0, -1e-300]),
        ([2.0, -1.0], 1.0), ([1.0, 2.0], [1.0, np.nan])])
    def test_rejects_any_non_positive_entry(self, omega, T):
        for kind in ("abs_cos", "t_abs_sin"):
            with pytest.raises(ValueError, match="must be positive"):
                envelope_integral(kind, np.array(omega), np.array(T))


class TestSingleParamBound:
    def test_amplitude_limit(self):
        p = FieldParams.matched(1.0, 1000.0)
        val = single_param_qfi_bound("B", p, 1.0)
        assert val == pytest.approx(16.0 / np.pi**2, rel=0.01)

    def test_frequency_limit(self):
        p = FieldParams.matched(1.0, 1000.0)
        val = single_param_qfi_bound("omega", p, 1.0)
        assert val == pytest.approx(4.0 / np.pi**2, rel=0.01)

    def test_zero_amplitude(self):
        p = FieldParams(B=0.0, omega=5.0)
        assert single_param_qfi_bound("omega", p, 1.0) == 0.0

    def test_bound_dominates_joint_information(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            p = FieldParams.matched(rng.uniform(0.1, 5.0), rng.uniform(0.5, 50.0))
            T = rng.uniform(0.5, 20.0)
            f = qfim_closed_form(p, T)
            assert single_param_qfi_bound("B", p, T) >= f.f_bb * (1 - 1e-12)
            assert single_param_qfi_bound("omega", p, T) >= f.f_ww * (1 - 1e-12)


class TestStrategyComparison:
    def test_limit_ratios(self):
        p = FieldParams.matched(1.0, 10_000.0)
        s = strategy_comparison(p, 1.0)
        assert s.ratio_b == pytest.approx(16.0 / np.pi**2, abs=0.02)
        assert s.ratio_w == pytest.approx(16.0 / np.pi**2, abs=0.02)
        assert s.seq_var_ratio_b == pytest.approx(8.0 / np.pi**2, abs=0.01)
        assert s.seq_var_ratio_w == pytest.approx(8.0 / np.pi**2, abs=0.01)
        assert s.sd_ratio_b == pytest.approx(4.0 / np.pi, abs=0.01)

    def test_joint_beats_sequential_at_moderate_times(self):
        for omega_t in (100.0, 300.0, 1000.0):
            p = FieldParams.matched(1.0, omega_t)
            s = strategy_comparison(p, 1.0)
            assert s.seq_var_ratio_b < 1.0
            assert s.seq_var_ratio_w < 1.0

    def test_all_entries_positive(self):
        p = FieldParams.matched(2.0, 50.0)
        s = strategy_comparison(p, 3.0)
        for value in (s.f_b_max, s.f_w_max, s.ratio_b, s.ratio_w,
                      s.seq_var_ratio_b, s.seq_var_ratio_w, s.regime_omega_t):
            assert value > 0


def _batch_grid(omega):
    """Durations with omega*T on the Taylor branch, at the sign changes and
    peaks k*pi and k*pi +- pi/2, and the benchmark's linspace(0.1, 10)."""
    k = np.array([1, 2, 3, 10, 1001])
    x = np.concatenate([[1e-4, 0.1, 0.3, 0.49],
                        np.outer(k, np.ones(3)).ravel() * np.pi
                        + np.tile([-np.pi / 2, 0.0, np.pi / 2], k.size)])
    return np.concatenate([x / omega, np.linspace(0.1, 10.0, 400)])


class TestBatchedComparison:
    @pytest.mark.parametrize("p", [FieldParams.matched(1.0, OMEGA_BENCH),
                                   FieldParams.matched(0.37, 2.9, gamma=1.7)])
    def test_batch_matches_scalar_loop_to_4_ulp(self, p):
        T = _batch_grid(p.omega)
        batch = strategy_comparison(p, T)
        loop = [strategy_comparison(p, t) for t in T.tolist()]
        for name in FIELDS:
            got = getattr(batch, name)
            want = np.array([getattr(s, name) for s in loop])
            assert got.shape == T.shape
            assert np.all(np.abs(got - want) <= 4 * EPS * np.abs(want)), name

    def test_scalar_t_gives_python_floats(self):
        p = FieldParams.matched(1.0, 50.0)
        for T in (2.0, 2, np.float64(2.0), np.array(2.0)):
            s = strategy_comparison(p, T)
            for name in FIELDS:
                assert type(getattr(s, name)) is float, (T, name)
            assert type(single_param_qfi_bound("B", p, T)) is float

    def test_non_finite_entry_names_the_first_t(self):
        p = FieldParams.matched(1.0, 1.0)
        with pytest.raises(OverflowError, match=r"at T = 1e\+300$"):
            strategy_comparison(p, np.array([1.0, 1e300, 2e300]))


# omega*T from 1e-9 to 10, four points a decade, with both sides of the
# series thresholds (0.5 in the generators, 1.5 in t|sin|) and of the
# envelopes' first sign changes
SWEEP_OMEGA_T = np.concatenate(
    [np.geomspace(1e-9, 10.0, 41), [0.5, 1.5, np.pi / 2, np.pi],
     np.nextafter([0.5, 1.5, np.pi / 2, np.pi], 0.0)])
# relative bound, in eps, of each closed form against its oracle; the
# largest error measured over the sweep is about half of each
SWEEP_BOUND_EPS = {"abs_cos": 4, "t_abs_sin": 4, "qfi_b": 8, "qfi_w": 8,
                   "b_x": 4, "b_y": 4, "w_x": 4, "w_y": 4, "f_bb": 4,
                   "f_bw": 12, "f_ww": 8, "det": 16, "ratio_b": 8,
                   "ratio_w": 8}


class TestClosedFormsDownToSmallOmegaT:
    # T is a power of two, so omega*T is the sweep's value exactly: at a
    # zero of sin x, rounding x would move b_y by all its digits
    @pytest.mark.parametrize("g,B,T", [(1.3, 0.7, 2.0),
                                       (0.01, 1e3, 2.0**-10)])
    def test_every_closed_form_matches_mpmath(self, g, B, T):
        for x in SWEEP_OMEGA_T:
            w = x / T
            p = FieldParams.matched(B, w, gamma=g)
            gen = generator_closed_form(p, T)
            f = qfim_closed_form(p, T)
            s = strategy_comparison(p, T)
            got = {"abs_cos": envelope_integral("abs_cos", w, T),
                   "t_abs_sin": envelope_integral("t_abs_sin", w, T),
                   "qfi_b": single_param_qfi_bound("B", p, T),
                   "qfi_w": single_param_qfi_bound("omega", p, T),
                   "b_x": gen.h_b[1, 0].real, "b_y": gen.h_b[1, 0].imag,
                   "w_x": gen.h_omega[1, 0].real,
                   "w_y": gen.h_omega[1, 0].imag,
                   "f_bb": f.f_bb, "f_bw": f.f_bw, "f_ww": f.f_ww,
                   "det": qfim_determinant(p, T),
                   "ratio_b": s.ratio_b, "ratio_w": s.ratio_w}
            cos_env, sin_env = (_mp_envelope(k, w, T)
                                for k in ("abs_cos", "t_abs_sin"))
            with mp.workdps(60):
                qfim = _mp_qfim(g, B, w, T)
                qfi = (4 * (g * mp.mpf(cos_env))**2,
                       4 * (g * mp.mpf(B) * sin_env)**2)
                want = dict(zip(got, (
                    cos_env, sin_env, *qfi, *_mp_generator_coeffs(g, B, w, T),
                    *qfim, qfi[0] / qfim[0], qfi[1] / qfim[2])))
                for name, value in got.items():
                    error = abs(mp.mpf(value) / want[name] - 1) / EPS
                    assert error <= SWEEP_BOUND_EPS[name], (name, x, error)

    @pytest.mark.parametrize("g,B,omega", [(1.3, 0.7, 1.0),
                                           (0.01, 1e3, 2.0**10)])
    def test_ratios_reach_one_and_the_determinant_stays_positive(
            self, g, B, omega):
        # the single-parameter ceilings bound the joint information from
        # above; at omega*T = 1e-9 the ratios round to within 2 eps of 1
        T = SWEEP_OMEGA_T / omega
        s = strategy_comparison(FieldParams.matched(B, omega, gamma=g), T)
        assert s.ratio_b.min() >= 1 - 4 * EPS
        assert s.ratio_w.min() >= 1 - 4 * EPS
        # the Gram determinant does not cancel, where f_bb f_ww - f_bw^2
        # reads 0 at omega*T = 1e-9 (Qfim2.det)
        assert np.all(_closed_form(g, B, omega, T)[3] > 0)


def test_int_and_float_t_values_write_the_same_csv(tmp_path):
    out = {}
    for name, t_values in (("ints", [1, 2, 5, 10]),
                           ("floats", [1.0, 2.0, 5.0, 10.0])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"field": {"omega_mhz": 1591.5},
                                   "scan": {"t_values": t_values}}))
        assert main(["bounds", "--config", str(cfg), "--out",
                     str(tmp_path / name)]) == 0
        out[name] = (tmp_path / name / "bounds.csv").read_bytes()
    assert out["ints"] == out["floats"]
    assert out["ints"].splitlines()[1].startswith(b"1,")


@pytest.mark.parametrize("call,match", [
    (lambda: single_param_qfi_bound("phi", FieldParams.matched(1.0, 1.0),
                                    1.0),
     "theta must be 'B' or 'omega', got 'phi'"),
], ids=["theta"])
def test_rejections(call, match):
    with pytest.raises(ValueError, match=match):
        call()

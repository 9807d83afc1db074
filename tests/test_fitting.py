"""Least-squares slopes: stacked windows against one-window fits."""

import numpy as np
import pytest

from acmag.fitting import loglog_slope, ols_slope, upper_envelope


class TestOlsSlope:
    @pytest.mark.parametrize("points", [3, 4, 5])
    def test_stacked_windows_match_one_window_fits(self, points):
        # the sweep fits: one x window per sweep, shared by its signals
        rng = np.random.default_rng(points)
        x = 5.65 + np.sort(rng.uniform(-0.2, 0.2, (6, 1, points)), axis=-1)
        y = 2.0 * x + rng.normal(0.0, 1e-3, (6, 3, points))
        slopes, stderr = ols_slope(x, y)
        assert slopes.shape == stderr.shape == (6, 3)
        for i in range(6):
            for j in range(3):
                assert (slopes[i, j], stderr[i, j]) == ols_slope(x[i, 0],
                                                                 y[i, j])

    def test_one_window_gives_floats(self):
        slope, stderr = ols_slope([0.0, 1.0, 2.0], [1.0, 3.0, 5.5])
        assert type(slope) is float and type(stderr) is float
        assert slope == 2.25 and stderr > 0.0

    def test_two_points_have_no_stderr(self):
        assert ols_slope([1.0, 3.0], [2.0, 6.0]) == (2.0, 0.0)
        slopes, stderr = ols_slope([[1.0, 3.0], [0.0, 1.0]],
                                   [[2.0, 6.0], [1.0, -1.0]])
        np.testing.assert_array_equal(slopes, [2.0, -2.0])
        np.testing.assert_array_equal(stderr, [0.0, 0.0])


def _envelope_loop(x, y, bins_per_decade=8):
    # the per-bin reference: the maximum of each non-empty log bin, at the
    # bin's geometric-mean x
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lo, hi = np.log10(x.min()), np.log10(x.max())
    n_bins = max(1, int(np.ceil((hi - lo) * bins_per_decade)))
    edges = np.logspace(lo, hi, n_bins + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)
    xs, ys = [], []
    for b in range(n_bins):
        if np.any(idx == b):
            ys.append(y[idx == b].max())
            xs.append(np.sqrt(edges[b] * edges[b + 1]))
    return np.asarray(xs), np.asarray(ys)


def _assert_same_envelope(got, ref):
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype and g.shape == r.shape
        assert g.tobytes() == r.tobytes()


class TestUpperEnvelope:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_bin_loop(self, seed):
        rng = np.random.default_rng(seed)
        x = np.sort(10.0 ** rng.uniform(0.0, 4.0, 500))
        y = np.abs(np.cos(x)) / x + rng.uniform(0.0, 1e-3, x.size)
        for bins in (1, 3, 8):
            _assert_same_envelope(upper_envelope(x, y, bins),
                                  _envelope_loop(x, y, bins))

    def test_empty_bins_are_dropped(self):
        # two clusters three decades apart leave the bins between them empty
        x = np.array([1.0, 1.1, 1.2, 1000.0, 1100.0])
        y = np.array([0.5, 2.0, -1.0, -3.0, -4.0])
        got = upper_envelope(x, y)
        _assert_same_envelope(got, _envelope_loop(x, y))
        np.testing.assert_array_equal(got[1], [2.0, -3.0])  # of 25 bins

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_in_a_bin_is_its_maximum(self):
        x = np.array([1.0, 1.1, 10.0, 11.0])
        y = np.array([1.0, np.nan, 3.0, 2.0])
        got = upper_envelope(x, y, 1)
        _assert_same_envelope(got, _envelope_loop(x, y, 1))
        assert np.isnan(got[1][0]) and got[1][1] == 3.0


@pytest.mark.parametrize("call,match", [
    (lambda: upper_envelope([0.0, 1.0, 10.0], [1.0, 0.5, 0.1]),
     "envelope extraction requires positive x"),
    (lambda: upper_envelope([np.nan, 1.0, 10.0], [1.0, 0.5, 0.1]),
     "envelope extraction requires positive x"),
    (lambda: loglog_slope([1.0, np.nan, 3.0], [1.0, 0.5, 0.1]),
     "log-log fit requires strictly positive data"),
    (lambda: loglog_slope([1.0, 2.0, 3.0], [1.0, np.nan, 0.1]),
     "log-log fit requires strictly positive data"),
], ids=["envelope-x", "envelope-nan-x", "loglog-nan-x", "loglog-nan-y"])
def test_rejections(call, match):
    with pytest.raises(ValueError, match=match):
        call()

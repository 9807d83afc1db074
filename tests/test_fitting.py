"""Least-squares slopes: stacked windows against one-window fits."""

import numpy as np
import pytest

from acmag.fitting import ols_slope, upper_envelope


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


@pytest.mark.parametrize("call,match", [
    (lambda: upper_envelope([0.0, 1.0, 10.0], [1.0, 0.5, 0.1]),
     "envelope extraction requires positive x"),
], ids=["envelope-x"])
def test_rejections(call, match):
    with pytest.raises(ValueError, match=match):
        call()

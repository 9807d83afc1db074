#!/usr/bin/env python3
"""Joint estimation versus the single-parameter optima.

Measuring both parameters at once costs a constant factor against a
sensor dedicated to one of them: the information ratio tends to
16/pi^2 ~ 1.62 for each parameter (a 4/pi ~ 1.27 penalty in standard
deviation). Against a sequential strategy that splits the shot budget,
the joint scheme wins: its variance ratio tends to 8/pi^2 ~ 0.81.
"""

import numpy as np

from acmag import FieldParams, strategy_comparison

# every ratio depends on omega*T alone, so one call at omega = 1 covers
# the whole grid of durations
s = strategy_comparison(FieldParams.matched(1.0, 1.0),
                        np.array([1e2, 1e3, 1e4, 1e5]))
print(f"{'omega*T':>10} {'ratio_b':>9} {'ratio_w':>9} {'seq_var_b':>10}"
      f" {'seq_var_w':>10} {'sd_ratio':>9}")
for row in zip(s.regime_omega_t, s.ratio_b, s.ratio_w, s.seq_var_ratio_b,
               s.seq_var_ratio_w, s.sd_ratio_b):
    print("{:10.0f} {:9.4f} {:9.4f} {:10.4f} {:10.4f} {:9.4f}".format(*row))

print(f"\nlimits: 16/pi^2 = {16 / np.pi**2:.4f},"
      f" 8/pi^2 = {8 / np.pi**2:.4f}, 4/pi = {4 / np.pi:.4f}")

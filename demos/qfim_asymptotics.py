#!/usr/bin/env python3
"""How the joint information matrix behaves as the drive gets faster.

Sweeps omega at fixed interrogation time and prints the Fisher matrix
entries next to their long-time limits: the diagonals approach
gamma^2 T^2 and gamma^2 B^2 T^4 / 4 while the off-diagonal dies off, so
the two parameters decouple. The determinant stays strictly positive the
whole way (joint estimation is always possible with the control on).
"""

from acmag import FieldParams, qfim_closed_form, qfim_determinant

B = 1.0
GAMMA = 1.0

print(f"{'T':>5} {'omega*T':>10} {'F_BB':>12} {'F_Bw':>12} {'F_ww':>12}"
      f" {'det':>12} {'F_BB/lim':>10} {'F_ww/lim':>10}")
for T in (1.0, 5.0, 10.0):
    for omega in (2.0, 10.0, 100.0, 1000.0, 10000.0):
        p = FieldParams.matched(B, omega, gamma=GAMMA)
        f = qfim_closed_form(p, T)
        det = qfim_determinant(p, T)
        lim_bb = GAMMA**2 * T**2
        lim_ww = GAMMA**2 * B**2 * T**4 / 4
        print(f"{T:5.1f} {omega * T:10.0f} {f.f_bb:12.5g} {f.f_bw:12.3g}"
              f" {f.f_ww:12.5g} {det:12.5g} {f.f_bb / lim_bb:10.6f}"
              f" {f.f_ww / lim_ww:10.6f}")
    print()

# without the control, both sensitivity directions collapse onto sigma_x
# and the matrix is singular for every probe
from acmag import GeneratorPair, TimeGrid, generator_numeric, qfim_from_generators, bell_state

p = FieldParams(B=1.0, omega=2.0, B_c=0.0)
grid = TimeGrid(0.0, 3.0, 60_000)
gen = GeneratorPair(h_b=generator_numeric(p, "B", grid, control=False),
                    h_omega=generator_numeric(p, "omega", grid, control=False))
f0 = qfim_from_generators(bell_state("phi+"), gen)
# det(F) of the parallel generators is rounding of a zero, of either sign,
# so it is shown on the scale of F_BB F_ww
print(f"uncontrolled evolution: det(F) / (F_BB F_ww) = "
      f"{f0.det() / (f0.f_bb * f0.f_ww):.1e} (rounding) -> singular: "
      f"{f0.is_singular()}")

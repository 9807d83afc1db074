"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -s`` to see them live). Tolerances are
pinned here and nowhere else. Each figure a criterion compares is also
kept in the margin ledger with its bound (``tests/conftest.py``).
"""

import time
from dataclasses import replace

import numpy as np

from acmag.bounds import strategy_comparison
from acmag.cli import run as cli_run
from acmag.dynamics import (FieldParams, GeneratorPair, TimeGrid,
                            generator_closed_form, generator_numeric,
                            propagate)
from acmag.fitting import envelope_slope
from acmag.linalg import (I2, SIGMA_X, SIGMA_Y, SIGMA_Z, bell_state,
                          expm_hermitian, haar_state, max_abs, tensor)
from acmag.nv import (NvParams, PiPulseModel, PulseSequence, ReadoutModel,
                      bell_readout, control_frequency, operating_field,
                      scaling_study, sequence_unitary, simulate_sequence)
from acmag.qfim import (SingularQfimError, classical_fim, qcrb,
                        qfim_closed_form, qfim_determinant,
                        qfim_from_generators, relative_error_curves,
                        sample_probe_determinants)


def _report(name: str, ok: bool, detail: str, ledger=None, margins=()):
    """Record each (what, figure, bound) of margins, print the verdict and
    assert it."""
    for what, figure, bound in margins:
        ledger(what, figure, bound)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_c01_generator_numeric_matches_closed_form(ledger):
    start = time.monotonic()
    worst = 0.0
    for B in (0.5, 1.0, 2.0):
        for omega in (1.0, 5.0, 20.0):
            for T in (1.0, 5.0, 10.0):
                p = FieldParams.matched(B, omega)
                steps = int(2000 * max(omega * T, 1.0))
                grid = TimeGrid(0.0, T, steps)
                g = generator_closed_form(p, T)
                worst = max(worst,
                            max_abs(generator_numeric(p, "B", grid) - g.h_b),
                            max_abs(generator_numeric(p, "omega", grid)
                                    - g.h_omega))
    elapsed = time.monotonic() - start
    _report("criterion 1 (generator oracle equivalence)",
            worst <= 1e-6 and elapsed <= 30.0,
            f"max entry error {worst:.2e} (tol 1e-6), {elapsed:.1f}s (cap 30s)",
            ledger, [("max entry error", worst, 1e-6),
                     ("seconds", elapsed, 30.0)])


def test_c02_qfim_equivalence_on_random_tuples(ledger):
    rng = np.random.default_rng(2024)
    worst = 0.0
    bell = bell_state("phi+")
    for _ in range(50):
        p = FieldParams.matched(rng.uniform(0.1, 5.0), rng.uniform(0.5, 50.0))
        T = rng.uniform(0.5, 20.0)
        f1 = qfim_closed_form(p, T).matrix()
        f2 = qfim_from_generators(bell, generator_closed_form(p, T)).matrix()
        worst = max(worst, np.max(np.abs(f1 - f2)) / np.max(np.abs(f1)))
    _report("criterion 2 (QFIM equivalence)", worst <= 1e-9,
            f"max relative error {worst:.2e} (tol 1e-9)",
            ledger, [("max relative error", worst, 1e-9)])


def test_c03_determinant_identity_and_positivity(ledger):
    rng = np.random.default_rng(2025)
    worst = 0.0
    all_positive = True
    for _ in range(50):
        p = FieldParams.matched(rng.uniform(0.1, 5.0), rng.uniform(0.5, 50.0))
        T = rng.uniform(0.5, 20.0)
        d_formula = qfim_determinant(p, T)
        d_matrix = qfim_closed_form(p, T).det()
        worst = max(worst, abs(d_formula - d_matrix) / abs(d_formula))
        all_positive &= d_formula > 0.0 and d_matrix > 0.0
    _report("criterion 3 (determinant identity, positivity)",
            worst <= 1e-6 and all_positive,
            f"max relative error {worst:.2e} (tol 1e-6), all positive: {all_positive}",
            ledger, [("max relative error", worst, 1e-6)])


def test_c04_inverse_omega_t_convergence(ledger):
    xs = np.logspace(2, 5, 3000)
    curves = relative_error_curves(FieldParams.matched(1.0, 1.0), xs)
    slopes = {}
    ok = True
    margins = []
    for key in ("dh_b", "dh_omega", "df_bb", "df_ww", "df_bw"):
        slope, _ = envelope_slope(xs, curves[key])
        slopes[key] = round(slope, 3)
        ok &= -1.1 <= slope <= -0.9
        margins.append((f"|{key} slope + 1|", abs(slope + 1.0), 0.1))
    _report("criterion 4 (1/(omega T) envelope slopes)", ok,
            f"slopes {slopes} (band -1.0 +- 0.1)", ledger, margins)


def test_c05_asymptotic_diagonal_qfim(ledger):
    p = FieldParams.matched(1.0, 1.0e4)
    f = qfim_closed_form(p, 1.0)  # omega*T = 1e4
    rel_bb = abs(f.f_bb / 1.0 - 1.0)
    rel_ww = abs(f.f_ww / 0.25 - 1.0)
    off = abs(f.f_bw) / np.sqrt(f.f_bb * f.f_ww)
    ok = rel_bb <= 1e-3 and rel_ww <= 1e-3 and off <= 2e-4
    _report("criterion 5 (asymptotic diagonal QFIM)", ok,
            f"|F_BB/lim-1|={rel_bb:.2e} (1e-3), |F_ww/lim-1|={rel_ww:.2e} "
            f"(1e-3), offdiag={off:.2e} (2e-4)",
            ledger, [("|F_BB/lim-1|", rel_bb, 1e-3),
                     ("|F_ww/lim-1|", rel_ww, 1e-3), ("offdiag", off, 2e-4)])


def test_c06_benchmark_ratios(ledger):
    p = FieldParams.matched(1.0, 1.0e4)
    s = strategy_comparison(p, 1.0)  # omega*T = 1e4
    target = 16.0 / np.pi**2
    refs = {"ratio_b": target, "ratio_w": target,
            "seq_var_ratio_b": 8.0 / np.pi**2,
            "seq_var_ratio_w": 8.0 / np.pi**2, "sd_ratio_b": 4.0 / np.pi}
    # "within 1%": |x - ref| <= 0.01 ref
    margins = [(f"|{k} - ref|", abs(getattr(s, k) - ref), 0.01 * ref)
               for k, ref in refs.items()]
    ok = all(figure <= bound for _, figure, bound in margins)
    _report("criterion 6 (benchmark ratios)", ok,
            f"ratio_b={s.ratio_b:.4f}, ratio_w={s.ratio_w:.4f} (16/pi^2="
            f"{target:.4f}), seq={s.seq_var_ratio_b:.4f} (8/pi^2="
            f"{8/np.pi**2:.4f}), sd={s.sd_ratio_b:.4f} (4/pi={4/np.pi:.4f})",
            ledger, margins)


def test_c07_probe_optimality(ledger):
    start = time.monotonic()
    p = FieldParams.matched(1.0, 1.0)
    gen = generator_closed_form(p, 2.0, mode="asymptotic")
    dets = sample_probe_determinants(gen, 1000, seed=7)
    bell_det = qfim_from_generators(bell_state("phi+"), gen).det()
    excess = float(dets.max() - bell_det)
    elapsed = time.monotonic() - start
    _report("criterion 7 (probe optimality)",
            excess <= 1e-9 and elapsed <= 60.0,
            f"max excess over Bell {excess:.2e} (tol 1e-9), {elapsed:.1f}s (cap 60s)",
            ledger, [("max excess over Bell", excess, 1e-9),
                     ("seconds", elapsed, 60.0)])


def test_c08_measurement_saturation(ledger):
    g, B, w, T = 1.0, 1.0, 1000.0, 1.0  # omega*T = 1e3
    ob = tensor(SIGMA_Z, SIGMA_Y)
    ow = tensor(SIGMA_X, SIGMA_Z)
    _, basis = np.linalg.eigh(ob + np.pi * ow)
    u0 = expm_hermitian(0.5 * w * SIGMA_Z, T)
    effects = [tensor(u0, I2) @ basis[:, i] for i in range(4)]
    bell = bell_state("phi+")

    def prob_fn(b_val, w_val):
        def h(t):
            fx = g * (b_val * np.cos(w_val * t) - B * np.cos(w * t))
            return fx[:, None, None] * SIGMA_X + 0.5 * w * SIGMA_Z
        u = propagate(h, TimeGrid(0.0, T, 100_000))
        psi = tensor(u, I2) @ bell
        return np.array([abs(e.conj() @ psi) ** 2 for e in effects])

    fcl = classical_fim(prob_fn, FieldParams.matched(B, w, gamma=g))
    fq = qfim_closed_form(FieldParams.matched(B, w, gamma=g), T)
    rel_bb = abs(fcl.f_bb / fq.f_bb - 1.0)
    rel_ww = abs(fcl.f_ww / fq.f_ww - 1.0)
    _report("criterion 8 (measurement saturation)",
            rel_bb <= 0.02 and rel_ww <= 0.02,
            f"classical/quantum diagonals off by {rel_bb:.2e}, {rel_ww:.2e} (tol 2e-2)",
            ledger, [("|F_cl,BB/F_q,BB-1|", rel_bb, 0.02),
                     ("|F_cl,ww/F_q,ww-1|", rel_ww, 0.02)])


def test_c09_no_control_singularity(ledger):
    p = FieldParams(B=1.0, omega=2.0, B_c=0.0)
    grid = TimeGrid(0.0, 3.0, 60_000)
    gen = GeneratorPair(
        h_b=generator_numeric(p, "B", grid, control=False),
        h_omega=generator_numeric(p, "omega", grid, control=False))
    rng = np.random.default_rng(9)
    probes = [bell_state("phi+")] + [haar_state(4, rng) for _ in range(10)]
    worst = 0.0
    raised = True
    for probe in probes:
        f = qfim_from_generators(probe, gen)
        scale = max(abs(f.f_bb), abs(f.f_bw), abs(f.f_ww))
        if scale > 0:
            worst = max(worst, f.det() / scale**2)
        try:
            qcrb(f)
            raised = False
        except SingularQfimError:
            pass
    _report("criterion 9 (no-control singularity)",
            worst <= 1e-10 and raised,
            f"max det/||F||^2 = {worst:.2e} (tol 1e-10), qcrb raised: {raised}",
            ledger, [("max det/||F||^2", worst, 1e-10)])


def test_c10_nv_operating_point(ledger):
    nv = NvParams()
    p = operating_field(nv, 5.65)
    seq = PulseSequence(8, 0.017, PiPulseModel())
    psi = simulate_sequence(seq, nv, p, bell_state("phi+"))
    probs = bell_readout(psi)
    dev = float(np.max(np.abs(probs - 0.25)))
    _report("criterion 10 (NV operating point)", dev <= 1e-3,
            f"readout probabilities {np.round(probs, 6)} within {dev:.1e} of 1/4 (tol 1e-3)",
            ledger, [("max |p - 1/4|", dev, 1e-3)])


def test_c11_nv_scaling_reproduction(ledger):
    start = time.monotonic()
    res = scaling_study(NvParams(), ReadoutModel())
    elapsed = time.monotonic() - start
    ok = (abs(res.exponent_b + 1.0) <= 0.05 and abs(res.exponent_w + 2.0) <= 0.05
          and elapsed <= 300.0)
    _report("criterion 11 (NV scaling exponents)", ok,
            f"exponent_b={res.exponent_b:.3f} (-1.00 +- 0.05), "
            f"exponent_w={res.exponent_w:.3f} (-2.00 +- 0.05), {elapsed:.1f}s (cap 300s)",
            ledger, [("|exponent_b + 1|", abs(res.exponent_b + 1.0), 0.05),
                     ("|exponent_w + 2|", abs(res.exponent_w + 2.0), 0.05),
                     ("seconds", elapsed, 300.0)])


def test_c12_decoupling_error_order(ledger):
    nv = NvParams()
    p = replace(operating_field(nv, 5.65), omega=control_frequency(nv) + 2.0)
    seq = PulseSequence(4, 0.05, PiPulseModel())  # fixed T = N*tau
    ref = sequence_unitary(seq, nv, p, steps_per_block=4096)
    errs = [np.linalg.norm(sequence_unitary(seq, nv, p, steps_per_block=s) - ref, 2)
            for s in (8, 16, 32, 64)]
    ratios = [float(errs[i] / errs[i + 1]) for i in range(3)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    _report("criterion 12 (decoupling error order)", ok,
            f"step-halving ratios {[round(r, 2) for r in ratios]} (band [3.5, 4.5])",
            ledger, [(f"|ratio {i} - 4|", abs(r - 4.0), 0.5)
                     for i, r in enumerate(ratios)])


def test_c13_cli_determinism(tmp_path):
    import json
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": {"points": 7}}))
    csv_a, _ = cli_run("nv-sweep", cfg, 42, tmp_path / "a")
    csv_b, _ = cli_run("nv-sweep", cfg, 42, tmp_path / "b")
    identical = csv_a.read_bytes() == csv_b.read_bytes()
    _report("criterion 13 (CLI determinism)", identical,
            f"repeated nv-sweep runs byte-identical: {identical}")

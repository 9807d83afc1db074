"""The three benchmark workloads, their inputs, references and checks.

Each workload is built from a size ("full" for measurement, "tiny" for the
smoke tests) and the workload seed. ``prepare(k)`` writes the inputs of one
iteration, ``run()`` makes only public acmag calls and is the timed part, and
``check()`` compares what it produced with the reference outputs recorded
under ``reference/<size>/`` and with analytic oracles, and returns the
problems found plus the oracle error.

Every iteration states its inputs in units the seed picks (see
``unit_exponents``), so no two iterations of a run call the program with the
same arguments. Undoing the units maps each output back onto the recorded
reference. The seed also reaches the program as the ``seed`` of every CLI
command; only probe-search's output depends on that, so its reference is
rebuilt for each seed by ``probe_search_oracle`` (an implementation
independent of acmag).
"""

from __future__ import annotations

import gzip
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from acmag import cli, dynamics

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# A table cell matches its reference when
#   |got - ref| <= RTOL * |ref| + ATOL_OF_COLUMN * max|ref column|.
# The scale term keeps cells that are tiny next to their column (decaying
# curves) from failing on reordered floating-point sums.
RTOL = 1e-9
ATOL_OF_COLUMN = 1e-12
# Numerical generators match their recorded values to this share of the
# largest entry: well above rounding, well below the 5.5e-9 quadrature error.
GENERATOR_RTOL = 1e-9

# Oracle bounds, taken from the acceptance criteria they mirror.
GENERATOR_TOL = 1e-6            # c01: quadrature vs closed form
EXPONENT_TOL = 0.05             # c11: N^-1 and N^-2 scalings
SLOPE_TOL = 0.1                 # c04: 1/(omega T) envelope slopes
RATIO_TOL = 0.01                # c06: 16/pi^2 ratios in the long-time regime
DETERMINANT_RTOL = 1e-6         # c03: determinant identity

SIXTEEN_OVER_PI2 = 16.0 / np.pi**2

# Iteration k multiplies every magnetic field and angular frequency in the
# inputs by 2**k and divides every time by it. Couplings (a frequency per
# field) and every omega*t stay put, so the physics is the same and each
# output is its reference value times a fixed power of 2**k. Powers of two
# keep that exact in floating point. A run walks through a seeded order of
# the 2*UNIT_RANGE + 1 exponents before any repeats, so a cache across
# iterations gains nothing in the timed ones.
UNIT_RANGE = 32


def unit_exponents(seed: int):
    """Endless stream of unit exponents k, a fresh seeded order per cycle."""
    rng = np.random.default_rng([seed, 1])
    ks = np.arange(-UNIT_RANGE, UNIT_RANGE + 1)
    while True:
        yield from (int(k) for k in rng.permutation(ks))

SIZES = {
    "full": {
        "nv_scaling": {"n_max": 32},
        # (B, omega, T, steps): 2000 steps per radian, as criterion c01
        "generator_quadrature": [(1.0, 20.0, 10.0, 400_000),
                                 (2.0, 50.0, 10.0, 1_000_000)],
        "closed_forms": {"qfim_points": 20_000, "convergence_points": 4_000,
                         "bounds_t_values": 400, "probe_samples": 4_000},
    },
    "tiny": {
        "nv_scaling": {"n_max": 4},
        "generator_quadrature": [(1.0, 20.0, 0.1, 4_000),
                                 (2.0, 50.0, 0.1, 10_000)],
        "closed_forms": {"qfim_points": 200, "convergence_points": 400,
                         "bounds_t_values": 20, "probe_samples": 40},
    },
}


@dataclass
class Table:
    """A CSV as text, header and float values."""

    text: str
    header: list[str]
    values: np.ndarray

    @classmethod
    def parse(cls, text: str) -> "Table":
        header, _, body = text.partition("\n")
        values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        return cls(text, header.split(","), values)

    @classmethod
    def load(cls, path: Path) -> "Table":
        return cls.parse(gzip.decompress(path.read_bytes()).decode())


def compare_table(name: str, text: str, ref: Table, k: int = 0,
                  powers: dict | None = None) -> list[str]:
    """Problems of a CSV against its reference; empty when it matches.

    The CSV was made in the units of exponent ``k``: column ``c`` is
    divided by ``2**(k * powers[c])`` (power 0 when absent) to compare it.
    """
    if k == 0 and text == ref.text:
        return []
    got = Table.parse(text)
    if got.header != ref.header or got.values.shape != ref.values.shape:
        return [f"{name}: header or shape differs from the reference "
                f"({got.values.shape} vs {ref.values.shape})"]
    got.values *= unscale(k, powers or {}, ref.header)
    scale = np.max(np.abs(ref.values), axis=0)
    diff = np.abs(got.values - ref.values)
    bad = ~(diff <= RTOL * np.abs(ref.values) + ATOL_OF_COLUMN * scale)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        return [f"{name}: {int(bad.sum())} cells outside tolerance, first at "
                f"row {row} column {ref.header[col]!r}: "
                f"{float(got.values[row, col])!r} vs "
                f"{float(ref.values[row, col])!r}"]
    return []


def unscale(k: int, powers: dict, header: list[str]) -> np.ndarray:
    """Per-column factors that take values in units ``k`` back to k = 0."""
    return np.array([2.0 ** (-k * powers.get(c, 0)) for c in header])


def probe_search_oracle(seed: int, samples: int, b: float = 1.0,
                        gamma: float = 1.0, t: float = 1.0) -> np.ndarray:
    """det(QFIM) of the Haar probes that probe-search draws, vectorized.

    Reproduces the per-index ``default_rng([seed, i])`` stream and the
    asymptotic matched-control generators (gamma T/2) sx and
    (gamma B T^2/4) sy on the sensor qubit of a two-qubit probe.
    """
    z = np.empty((samples, 4), dtype=complex)
    for i in range(samples):
        rng = np.random.default_rng([seed, i])
        z[i] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = z / np.linalg.norm(z, axis=1, keepdims=True)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    hb = np.kron(0.5 * gamma * t * sx, np.eye(2))
    hw = np.kron(0.25 * gamma * b * t * t * sy, np.eye(2))
    a, w = psi @ hb.T, psi @ hw.T
    ea = np.einsum("ij,ij->i", psi.conj(), a).real
    ew = np.einsum("ij,ij->i", psi.conj(), w).real
    f_bb = 4.0 * (np.einsum("ij,ij->i", a.conj(), a).real - ea * ea)
    f_ww = 4.0 * (np.einsum("ij,ij->i", w.conj(), w).real - ew * ew)
    f_bw = 4.0 * (np.einsum("ij,ij->i", a.conj(), w).real - ea * ew)
    return f_bb * f_ww - f_bw**2


def _scalars(size: str) -> dict:
    return json.loads((REFERENCE_DIR / size / "scalars.json").read_text())


class NvScaling:
    """``cli.run("nv-scaling")`` over N = 1..n_max with ideal pulses."""

    name = "nv_scaling"
    # where a column's value in units k is 2**(k * power) times its reference
    powers = {"delta_b": 1, "delta_b_err": 1, "delta_w": 1, "delta_w_err": 1}

    def __init__(self, size: str, seed: int, workdir: Path, reference=True):
        self.seed = seed
        self.workdir = workdir
        self.n_max = SIZES[size]["nv_scaling"]["n_max"]
        self.config = workdir / "nv-scaling.json"
        self.k = 0
        if reference:
            self.table = Table.load(REFERENCE_DIR / size / "nv-scaling.csv.gz")
            self.scalars = _scalars(size)[self.name]

    def prepare(self, k: int):
        """Write the config in units k; the values at k = 0 are cli's defaults."""
        self.k = k
        f = 2.0**k
        self.config.write_text(json.dumps({
            "nv": {"d_mhz": 2870.0 * f, "q_mhz": -4.95 * f,
                   "a_mhz": -2.16 * f, "gamma_e_mhz_per_g": 2.8,
                   "gamma_n_mhz_per_g": -3.1e-4, "b_z0": 357.0 * f},
            "protocol": {"b_c": 5.65 * f, "tau": 0.017 / f,
                         "steps_per_block": 32,
                         "pulse": {"kind": "ideal", "rabi_mhz": 20.0 * f}},
            "scaling": {"n_max": self.n_max, "halfwidth_b": 0.2 * f,
                        "halfwidth_w_mhz": f / np.pi}}))

    def run(self):
        return cli.run("nv-scaling", self.config, self.seed, self.workdir)

    def check(self, paths) -> tuple[list[str], float]:
        csv_path, json_path = paths
        problems = compare_table("nv-scaling.csv", csv_path.read_text(),
                                 self.table, self.k, self.powers)
        summary = json.loads(json_path.read_text())
        err = max(abs(summary["exponent_b"] + 1.0),
                  abs(summary["exponent_w"] + 2.0))
        if not err <= EXPONENT_TOL:
            problems.append(f"scaling exponents off by {err:.3e}")
        for key in ("exponent_b", "exponent_w"):
            ref = self.scalars[key]
            if not abs(summary[key] - ref) <= RTOL * abs(ref):
                problems.append(f"{key} {summary[key]!r} != reference {ref!r}")
        return problems, err


class GeneratorQuadrature:
    """``generator_numeric`` for B and omega, against ``generator_closed_form``."""

    name = "generator_quadrature"

    def __init__(self, size: str, seed: int, workdir: Path, reference=True):
        self.points = SIZES[size]["generator_quadrature"]
        self.k = 0
        if reference:
            self.recorded = [
                {k: np.array(v)[..., 0] + 1j * np.array(v)[..., 1]
                 for k, v in point.items()}
                for point in _scalars(size)[self.name]["generators"]]

    def prepare(self, k: int):
        self.k = k

    def run(self):
        out = []
        f = 2.0**self.k
        for b, omega, t, steps in self.points:
            p = dynamics.FieldParams.matched(B=b * f, omega=omega * f)
            grid = dynamics.TimeGrid(0.0, t / f, steps)
            exact = dynamics.generator_closed_form(p, t / f)
            out.append({
                "h_b": (dynamics.generator_numeric(p, "B", grid), exact.h_b),
                "h_omega": (dynamics.generator_numeric(p, "omega", grid),
                            exact.h_omega)})
        return out

    def check(self, out) -> tuple[list[str], float]:
        problems, err = [], 0.0
        f = 2.0**self.k  # both generators scale as a time
        for point, recorded, spec in zip(out, self.recorded, self.points):
            for key, (numeric, exact) in point.items():
                numeric, exact = numeric * f, exact * f
                err = max(err, float(np.max(np.abs(numeric - exact))))
                ref = recorded[key]
                if not np.max(np.abs(numeric - ref)) <= (
                        GENERATOR_RTOL * np.max(np.abs(ref))):
                    problems.append(f"{key} at {spec} differs from reference")
        if not err <= GENERATOR_TOL:
            problems.append(f"quadrature error {err:.3e} exceeds {GENERATOR_TOL}")
        return problems, err


class ClosedForms:
    """qfim-scan, convergence, bounds and probe-search through ``cli.run``."""

    name = "closed_forms"
    commands = ("qfim-scan", "convergence", "bounds", "probe-search")
    # where a column's value in units k is 2**(k * power) times its reference
    powers = {"qfim-scan": {"f_bb": -2, "f_bw": -2, "f_ww": -2, "det": -4},
              "convergence": {},
              "bounds": {"t": -1, "f_b_max": -2, "f_w_max": -2},
              "probe-search": {"det": -4}}

    def __init__(self, size: str, seed: int, workdir: Path, reference=True):
        self.size = SIZES[size]["closed_forms"]
        self.seed = seed
        self.workdir = workdir
        self.samples = self.size["probe_samples"]
        self.configs = {c: workdir / f"{c}.json" for c in self.commands}
        self.k = 0
        if reference:
            self.tables = {c: Table.load(REFERENCE_DIR / size / f"{c}.csv.gz")
                           for c in self.commands[:3]}
            self.scalars = _scalars(size)[self.name]
            self.probe_dets = probe_search_oracle(seed, self.samples)

    def prepare(self, k: int):
        """Write the configs in units k (omega is fixed at 1 in convergence
        and unused in probe-search, so there only B and t change)."""
        self.k = k
        f = 2.0**k
        sz = self.size
        t_values = (np.linspace(0.1, 10.0, sz["bounds_t_values"]) / f).tolist()
        configs = {
            "qfim-scan": {"field": {"b": f},
                          "scan": {"points": sz["qfim_points"], "t": 1.0 / f}},
            "convergence": {"field": {"b": f},
                            "scan": {"points": sz["convergence_points"]}},
            "bounds": {"field": {"b": f, "omega_mhz": 1591.5 * f},
                       "scan": {"t_values": t_values}},
            "probe-search": {"field": {"b": f},
                             "search": {"samples": self.samples, "t": 1.0 / f}},
        }
        for command, config in configs.items():
            self.configs[command].write_text(json.dumps(config))

    def run(self):
        return {c: cli.run(c, self.configs[c], self.seed, self.workdir)
                for c in self.commands}

    def check(self, paths) -> tuple[list[str], float]:
        problems = []
        texts = {c: paths[c][0].read_text() for c in self.commands}
        summaries = {c: json.loads(paths[c][1].read_text())
                     for c in self.commands}
        for c, ref in self.tables.items():
            problems += compare_table(f"{c}.csv", texts[c], ref, self.k,
                                      self.powers[c])

        probe = Table.parse(texts["probe-search"])
        probe = probe.values * unscale(self.k, self.powers["probe-search"],
                                       probe.header)
        ref = self.probe_dets
        if probe.shape != (ref.size, 2) or not np.all(
                np.abs(probe[:, 1] - ref) <= RTOL * np.abs(ref)
                + ATOL_OF_COLUMN * np.max(np.abs(ref))):
            problems.append("probe-search.csv differs from the Haar oracle")
        if not summaries["probe-search"]["max_excess"] <= 0.0:
            problems.append("a Haar probe beat the Bell probe")

        scan = Table.parse(texts["qfim-scan"])
        scan = scan.values * unscale(self.k, self.powers["qfim-scan"],
                                     scan.header)
        f_bb, f_bw, f_ww, det = scan[:, 1], scan[:, 2], scan[:, 3], scan[:, 4]
        if not (np.all(f_bb > 0) and np.all(f_ww > 0) and np.all(det > 0)):
            problems.append("qfim-scan has a non-positive QFIM")
        if not np.all(np.abs(f_bb * f_ww - f_bw**2 - det)
                      <= DETERMINANT_RTOL * det):
            problems.append("qfim-scan breaks the determinant identity")

        slopes = {k: v for k, v in summaries["convergence"].items()
                  if k.startswith("slope_") and not k.endswith("_stderr")}
        slope_err = max(abs(s + 1.0) for s in slopes.values())
        if not slope_err <= SLOPE_TOL:
            problems.append(f"envelope slopes off -1 by {slope_err:.3e}")
        for key, ref in self.scalars["slopes"].items():
            if not abs(slopes[key] - ref) <= RTOL * abs(ref):
                problems.append(f"{key} {slopes[key]!r} != reference {ref!r}")

        bounds = Table.parse(texts["bounds"])
        cols = [bounds.header.index(k) for k in ("ratio_b", "ratio_w")]
        ratio_err = np.abs(bounds.values[:, cols] / SIXTEEN_OVER_PI2 - 1.0)
        if not np.all(ratio_err[-1] <= RATIO_TOL):
            problems.append("bounds ratios miss 16/pi^2 at the longest time")
        return problems, max(slope_err, float(np.max(ratio_err)))


WORKLOADS = {w.name: w for w in (NvScaling, GeneratorQuadrature, ClosedForms)}

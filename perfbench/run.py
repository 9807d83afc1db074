"""Benchmark of acmag: three workloads, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nv_scaling --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Lines before it give each metric with its unit, the failure ratio and the
environment stamp; the same is written to ``perfbench/out/``.

The package is imported from ``src/`` of the checkout and nowhere else; the
benchmark exits with code 2 when it is missing.
"""

import os

# One BLAS/OpenMP thread: the measurement machine has 2 vCPUs, and the
# load is generated from this one process. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
# Kept out of development runs, so a claimed gain can be re-checked on it.
HELD_OUT_SEED = 7919

END_TO_END = (("setup_s", "s"), ("study_s", "s"), ("peak_rss_mb", "MB"),
              ("max_err", "1"))
# Set-up is measured in fresh processes, several per run; the median is kept.
SETUP_REPEATS = 7
MIN_TIMED = 3

# The measurement machine's speed drifts by about 20% in phases of tens of
# seconds, more than a run can average out. A fixed kernel, timed before and
# after every measured interval, tracks that drift: setup_s and study_s are
# medians of (wall time / calibration time around it), in seconds at the
# speed where the kernel takes CALIBRATION_NOMINAL_S. The kernel is
# interpreter-bound small linear algebra, like most of the workloads' time,
# and does not use acmag, so a change to the program cannot move it.
CALIBRATION_NOMINAL_S = 0.05
_CALIBRATION_H = np.array([[2.0, 1 - 1j, 0.5j, 0.0], [1 + 1j, -1.0, 0.3, 2j],
                           [-0.5j, 0.3, 0.5, 1.0], [0.0, -2j, 1.0, -1.5]])


def calibration_seconds() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    start = time.perf_counter()
    acc = 0.0  # every product is consumed
    for i in range(2000):
        w, v = np.linalg.eigh(_CALIBRATION_H * (1.0 + i * 1e-6))
        acc += abs(((v * np.exp(-1j * w)) @ v.conj().T)[0, 0])
    return time.perf_counter() - start


def calibrated_median(samples) -> float:
    """Median wall time of (wall, calibration) pairs, at nominal speed."""
    return CALIBRATION_NOMINAL_S * median(t / c for t, c in samples)


def _import_program():
    """Import acmag from the checkout's src/, or exit with code 2."""
    if not (SRC / "acmag" / "__init__.py").is_file():
        print(f"perfbench: no acmag package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import acmag
    if SRC not in Path(acmag.__file__).resolve().parents:
        print(f"perfbench: imported acmag from {acmag.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("nv_scaling", "generator_quadrature",
                                 "closed_forms"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to measure; BENCHMARK.json's "
                             "run_seconds is the length the bounds hold for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every input, for smoke tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time "
                             "set-up in a fresh process)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _setup_samples(args) -> list[tuple[float, float]]:
    """(wall time from process start to 'ready', calibration) per fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", args.size, "--setup-only"]
    samples = []
    calibration_seconds()
    before = calibration_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
        after = calibration_seconds()
        samples.append((elapsed, 0.5 * (before + after)))
        before = after
    return samples


class Loop:
    """Runs and checks iterations, keeping their times and failures."""

    def __init__(self, workload, units, recorder=None):
        self.workload = workload
        self.units = units
        self.recorder = recorder
        self.unit_exponents = []
        # per timed iteration: (wall time, mean calibration time around it)
        self.samples = {False: [], True: []}
        self.traced_iterations = []
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.max_err = 0.0
        self.problems = []

    def iterate(self, traced=False) -> float:
        """Run and check one iteration; return its wall time."""
        index = self.attempted
        self.attempted += 1
        k = next(self.units)
        self.unit_exponents.append(k)
        self.workload.prepare(k)
        if traced:
            self.recorder.install(index)
            self.traced_iterations.append(index)
        start = time.perf_counter()
        try:
            out = self.workload.run()
        except Exception:  # a raising iteration is a failed one; keep going
            out = None
            problems = [traceback.format_exc()]
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.recorder.uninstall()
        if out is not None:
            try:
                problems, err = self.workload.check(out)
            except Exception:  # unreadable output fails the iteration
                problems = [traceback.format_exc()]
            else:
                self.checked += 1
                self.max_err = max(self.max_err, err)
        if problems:
            self.failed += 1
            self.problems += [f"iteration {index}: {p}" for p in problems]
        return elapsed

    def run_for(self, seconds: float):
        self.iterate()  # warm-up: first calls into each code path, still checked
        calibration_seconds()
        before = calibration_seconds()
        start = time.perf_counter()
        n = 0
        while True:
            traced = self.recorder is not None and n % 2 == 1
            elapsed = self.iterate(traced=traced)
            after = calibration_seconds()
            self.samples[traced].append((elapsed, 0.5 * (before + after)))
            before = after
            n += 1
            enough = n >= MIN_TIMED * (2 if self.recorder else 1)
            if enough and time.perf_counter() - start >= seconds:
                break


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _stamp(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "acmag").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from workloads import WORKLOADS, unit_exponents

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else _setup_samples(args)
        recorder = None
        if args.trace:
            from spans import SpanRecorder
            recorder = SpanRecorder()
        loop = Loop(workload, unit_exponents(args.seed), recorder)
        loop.run_for(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in loop.problems:
        print(problem, file=sys.stderr)
    if loop.checked == 0:
        print("perfbench: every iteration raised; no result", file=sys.stderr)
        return 1

    untraced = median(t for t, _ in loop.samples[False])
    if args.trace:
        overhead = (calibrated_median(loop.samples[True])
                    - calibrated_median(loop.samples[False]))
        metrics = recorder.metrics(loop.traced_iterations, overhead)
        recorder.write(OUT / f"{args.workload}-seed{args.seed}.spans.tsv")
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {"setup_s": calibrated_median(setup),
                  "study_s": calibrated_median(loop.samples[False]),
                  "peak_rss_mb": rss_kb / 1024.0, "max_err": loop.max_err}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed, "metrics": metrics}
    record = {"stamp": _stamp(args), "result": result,
              "fail_ratio": loop.failed / loop.attempted,
              "study_wall_median_s": untraced,
              "unit_exponents": loop.unit_exponents,
              "samples_columns": ["wall_s", "calibration_s"],
              "study_samples": {"untraced": loop.samples[False],
                                "traced": loop.samples[True]},
              "setup_samples": setup}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=2) + "\n")

    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    print(f"fail_ratio {record['fail_ratio']} "
          f"({loop.failed} of {loop.attempted} iterations)")
    print(f"study_s samples: {len(loop.samples[False])} untraced, "
          f"{len(loop.samples[True])} traced; setup_s samples: {len(setup)}; "
          f"uncalibrated median iteration {untraced!r} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

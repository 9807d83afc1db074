"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--out perfbench/results/x.json]

Runs every workload of BENCHMARK.json once per seed, untraced, for its
``run_seconds``. For every workload and end-to-end metric it prints the
median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the spread, (Q3 - Q1) / median. ``--out`` writes the same, with
every run's values and the first run's environment stamp, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10",
                        help="inclusive range such as 1-10")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {"seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in _seeds(args.seeds):
            res = run_once(workload, seed)
            runs.append({"seed": seed, **res})
            print(workload, seed, res["correct"], {
                k: m["value"] for k, m in res["metrics"].items()}, flush=True)
        metrics = {name: {"unit": runs[0]["metrics"][name]["unit"],
                          **summarize([r["metrics"][name]["value"]
                                       for r in runs])}
                   for name in runs[0]["metrics"]}
        stamp = json.loads((HERE / "out" / (
            f"{workload}-seed{runs[0]['seed']}-trace0.json"))
            .read_text())["stamp"]
        report["workloads"][workload] = {
            "stamp": stamp, "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}
        for name, m in metrics.items():
            print(f"{workload} {name}: median {m['median']:.6g} "
                  f"{m['unit']}, spread {m['spread']:.4f}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

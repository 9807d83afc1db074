"""Record the reference outputs the benchmark checks every iteration against.

    python3 perfbench/record_reference.py

Runs each workload once per size, in the units of exponent 0, with the
program in ``src/`` and writes ``perfbench/reference/<size>/``: the CSVs
(gzip, fixed mtime) and ``scalars.json`` with the oracle scalars and the
numerical generators.
Probe-search's CSV depends on the seed; it is recorded for the default and
the held-out seed only, to test ``probe_search_oracle`` against.
Re-record only when a change to the program is meant to change its output.
"""

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import DEFAULT_SEED, HELD_OUT_SEED, OUT, _import_program


def _save_csv(path: Path, target: Path) -> None:
    target.write_bytes(gzip.compress(path.read_bytes(), mtime=0))


def record(size: str) -> None:
    from workloads import (REFERENCE_DIR, ClosedForms, GeneratorQuadrature,
                           NvScaling)

    target = REFERENCE_DIR / size
    target.mkdir(parents=True, exist_ok=True)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
    try:
        scalars = {}
        nv = NvScaling(size, DEFAULT_SEED, workdir, reference=False)
        nv.prepare(0)
        csv_path, json_path = nv.run()
        _save_csv(csv_path, target / "nv-scaling.csv.gz")
        summary = json.loads(json_path.read_text())
        scalars[nv.name] = {k: summary[k] for k in ("exponent_b",
                                                    "exponent_w")}

        gq = GeneratorQuadrature(size, DEFAULT_SEED, workdir, reference=False)
        gq.prepare(0)
        scalars[gq.name] = {"generators": [
            {key: [[[z.real, z.imag] for z in row] for row in numeric]
             for key, (numeric, _) in point.items()}
            for point in gq.run()]}

        cf = ClosedForms(size, DEFAULT_SEED, workdir, reference=False)
        cf.prepare(0)
        paths = cf.run()
        for command in cf.commands[:3]:
            _save_csv(paths[command][0], target / f"{command}.csv.gz")
        summary = json.loads(paths["convergence"][1].read_text())
        scalars[cf.name] = {"slopes": {
            k: v for k, v in summary.items()
            if k.startswith("slope_") and not k.endswith("_stderr")}}
        if size == "full":
            # each run rewrites the same files: save before the next one
            _save_csv(paths["probe-search"][0],
                      target / f"probe-search.seed{DEFAULT_SEED}.csv.gz")
            held_out = ClosedForms(size, HELD_OUT_SEED, workdir,
                                   reference=False)
            held_out.prepare(0)
            held_out = held_out.run()
            _save_csv(held_out["probe-search"][0],
                      target / f"probe-search.seed{HELD_OUT_SEED}.csv.gz")

        (target / "scalars.json").write_text(
            json.dumps(scalars, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    _import_program()
    for name in sys.argv[1:] or ("full", "tiny"):
        record(name)

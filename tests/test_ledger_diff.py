"""checks/ledger_diff.py: two margin ledgers, compared from the command line."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "checks" / "ledger_diff.py"


def test_names_each_figure_that_moved_toward_its_bound(tmp_path):
    old = {"test_a: err": [1e-7, 1e-6], "test_b: err": [5e-5, 2e-4],
           "test_e: slope": [0.01, 0.1], "test_c: gone": [1.0, 2.0]}
    new = {"test_a: err": [2e-7, 1e-6], "test_b: err": [4e-5, 2e-4],
           "test_e: slope": [0.06, 0.1], "test_d: new": [3e-16, 1e-14]}
    paths = []
    for name, ledger in (("old", old), ("new", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(ledger), encoding="utf-8")
    run = subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                         capture_output=True, text=True, check=True)
    # test_b moved away from its bound and is not named
    assert run.stdout.splitlines() == [
        "moved toward the bound: 2",
        "  test_e: slope: 0.1 -> 0.6",
        "  test_a: err: 0.1 -> 0.2",
        "added: 1",
        "  test_d: new: 0.03",
        "removed: 1",
        "  test_c: gone: 0.5",
    ]
    usage = subprocess.run([sys.executable, str(SCRIPT), str(paths[0])],
                           capture_output=True, text=True)
    assert usage.returncode == 2
    assert usage.stderr.startswith("Usage: python checks/ledger_diff.py")

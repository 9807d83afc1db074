"""Tests of the benchmark itself: output contract, checks and trace counts.

    python -m pytest perfbench/tests -q
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("nv_scaling", "generator_quadrature", "closed_forms")
COUNT_UNITS = ("count", "bytes")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(*args):
    proc = _bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        spans.per_layer_metrics())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    res = _result("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--size", "tiny")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else spans.per_layer_metrics()
    assert {k: m["unit"] for k, m in res["metrics"].items()} == dict(expected)
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def _counts(res):
    return {k: m["value"] for k, m in res["metrics"].items()
            if m["unit"] in COUNT_UNITS}


def test_traced_counts_repeat_and_match_the_nv_scaling_anchors():
    args = ("--workload", "nv_scaling", "--seed", "1", "--seconds", "0",
            "--trace", "1")
    first = _counts(_result(*args))
    assert first == _counts(_result(*args))
    assert first["dynamics.propagate.calls"] == 2112
    assert first["nv.sequence_unitary.calls"] == 320
    assert first["nv.nv_rotating_hamiltonian.calls"] == 71072


@pytest.mark.parametrize("workload", WORKLOADS[1:])
def test_traced_counts_repeat(workload):
    args = ("--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", "1", "--size", "tiny")
    first = _counts(_result(*args))
    assert first == _counts(_result(*args))
    assert any(first.values())


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "nv_scaling", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", (run.DEFAULT_SEED, run.HELD_OUT_SEED))
def test_probe_oracle_reproduces_the_recorded_probe_search(seed):
    path = workloads.REFERENCE_DIR / "full" / f"probe-search.seed{seed}.csv.gz"
    recorded = workloads.Table.parse(gzip.decompress(path.read_bytes()).decode())
    dets = workloads.probe_search_oracle(seed, recorded.values.shape[0])
    np.testing.assert_allclose(dets, recorded.values[:, 1], rtol=1e-12)


def test_unit_exponents_cover_the_range_before_repeating():
    stream = workloads.unit_exponents(run.DEFAULT_SEED)
    n = 2 * workloads.UNIT_RANGE + 1
    first = [next(stream) for _ in range(n)]
    assert sorted(first) == list(range(-workloads.UNIT_RANGE,
                                       workloads.UNIT_RANGE + 1))
    held_out = workloads.unit_exponents(run.HELD_OUT_SEED)
    assert [next(held_out) for _ in range(n)] != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_in_any_units_map_back_onto_the_reference(workload, tmp_path):
    w = workloads.WORKLOADS[workload]("tiny", 3, tmp_path)
    for k in (-workloads.UNIT_RANGE, -1, 5, workloads.UNIT_RANGE):
        w.prepare(k)
        out = w.run()
        assert w.check(out)[0] == []
    w.k = 0  # the same outputs read as if made in the reference units
    assert w.check(out)[0]


def test_table_check_accepts_rounding_and_flags_a_changed_cell():
    ref = workloads.Table.parse("x,y\n1,1e-3\n2,2e-6\n")
    assert workloads.compare_table("t", ref.text, ref) == []
    assert workloads.compare_table("t", "x,y\n1,1e-3\n2,2.0000000000001e-6\n",
                                   ref) == []
    assert workloads.compare_table("t", "x,y\n1,1e-3\n2,2.001e-6\n", ref)
    assert workloads.compare_table("t", "x,z\n1,1e-3\n2,2e-6\n", ref)


def test_self_time_subtracts_direct_children():
    rec = spans.SpanRecorder()
    # cli.run -> sweep_signal -> propagate, in iteration 0; times in ns
    rec.spans = [["cli.run.nv-scaling", 0, 100, -1, 0],
                 ["nv.sweep_signal", 10, 60, 0, 0],
                 ["dynamics.propagate", 20, 50, 1, 0]]
    m = rec.metrics([0], overhead_s=0.5)
    assert m["cli.run.nv-scaling.self_s"]["value"] == 50e-9
    assert m["nv.sweep_signal.self_s"]["value"] == 20e-9
    assert m["dynamics.propagate.self_s"]["value"] == 30e-9
    assert m["dynamics.propagate.calls"]["value"] == 1
    assert m["trace.overhead_s"]["value"] == 0.5

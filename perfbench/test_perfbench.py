"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    names = list(Tracer().metrics()) + ["trace.overhead_s"]
    assert [m["name"] for m in SPEC["per_layer"]] == names
    assert all(m["unit"] == bench.layer_unit(m["name"]) for m in SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


@pytest.mark.parametrize("trace, table", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, table):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formulas", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = last_json_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[table]}


def test_one_seed_gives_one_batch_and_one_set_of_digests(tmp_path, monkeypatch):
    pool = W.formula_pool()
    assert pool == W.formula_pool()
    batch = W.build_passes("formulas", 11, 20, pool)
    assert batch == W.build_passes("formulas", 11, 20, pool)
    W.write_inputs("formulas", 11, 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    ops = batch[0][:40]
    first, _, _ = bench.run_phase(ops)
    second, _, _ = bench.run_phase(ops)
    table = json.loads(bench.DIGESTS.read_text())
    assert [r.digest for r in first] == [r.digest for r in second]
    assert [r.digest for r in first] == [table[op["key"]] for op in ops]


def test_gauge_scales_times_to_the_nominal_host_speed():
    import gc

    assert hostspeed.scale([hostspeed.NOMINAL_S] * 3) == 1.0
    assert hostspeed.scale([hostspeed.NOMINAL_S, 2 * hostspeed.NOMINAL_S,
                            2 * hostspeed.NOMINAL_S]) == 0.5
    assert len(hostspeed.block(0.0)) == 1
    assert gc.isenabled()


def test_phase_wall_is_the_sum_of_scaled_op_times(tmp_path, monkeypatch):
    W.write_inputs("formulas", 5, 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    ops = W.build_passes("formulas", 5, 1, W.formula_pool())[0][:30]
    records, _, wall = bench.run_phase(ops)
    assert wall == sum(r.seconds for r in records)
    assert all(r.seconds > 0 and r.raw > 0 for r in records)


@pytest.mark.parametrize("workload", list(W.WORKLOADS))
def test_another_seed_gives_another_batch(workload):
    pool = W.formula_pool() if W.WORKLOADS[workload].formulas else ()
    keys = [[op["key"] for op in p] for p in W.build_passes(workload, 1, 20, pool)]
    other = [[op["key"] for op in p] for p in W.build_passes(workload, 2, 20, pool)]
    assert keys != other


def test_digest_table_covers_every_op():
    table = json.loads(bench.DIGESTS.read_text())
    pool = W.formula_pool()
    assert {op["key"] for op in W.catalogue(pool)} == set(table)
    for workload in W.WORKLOADS:
        for seed in range(3):
            for p in W.build_passes(workload, seed, 20, pool):
                assert all(op["key"] in table for op in p)


def test_trace_wraps_every_reference_and_restores_them():
    from dialectica import cli, dial, principles

    original = dial.build_dial_fibre
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.self_check() == []
        assert cli.build_dial_fibre is dial.build_dial_fibre is not original
        assert principles.RULES["skolem"] is principles.check_skolemisation
    finally:
        tracer.uninstall()
    assert cli.build_dial_fibre is dial.build_dial_fibre is original


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formulas", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": ""})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

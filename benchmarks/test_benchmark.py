"""Smoke tests of the benchmark's own code at tiny sizes.

Run from the repository root::

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tetronsim  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "qed_map": {"k": 2},
    "braid_map": {"k": 2},
    "theta_point": {"rounds_grid": (2, 4, 6)},
    "sampled": {"n": 1, "mbqb_shots": 10**4, "decay_shots": 64},
}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tracing.METRICS
    )
    assert spec["command"][1] == "benchmarks/run.py"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass_runs_and_checks(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(workloads.pass_rng(0, 0), **TINY[name])
    outputs, latencies = workload.run(inputs)
    assert len(latencies) == workload.count(inputs)
    assert all(t > 0 for t in latencies)
    assert workload.check(inputs, outputs) == []


def test_inputs_repeat_for_a_seed_and_differ_between_passes():
    make = workloads.WORKLOADS["qed_map"].inputs
    a, b = make(workloads.pass_rng(5, 0)), make(workloads.pass_rng(5, 0))
    assert (a["p1"] == b["p1"]).all() and (a["p2"] == b["p2"]).all()
    assert not (make(workloads.pass_rng(5, 1))["p1"] == a["p1"]).all()


@pytest.mark.parametrize("name", ["qed_map", "braid_map", "sampled"])
def test_traced_counts_repeat_and_self_times_add_up(name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(workloads.pass_rng(0, 0), **TINY[name])
    per_pass = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer, tetronsim):
            _, _, raised, wall = run._one_pass(workload, inputs)
        assert raised is None
        per_pass.append(tracer.metrics(wall))
    first, second = per_pass
    for key in tracing.COUNT_METRICS:
        assert first[key] == second[key], key
    names = {n for n, _, _ in tracing.METRICS}
    assert names - set(first) == {"trace.overhead"}
    layers = ("pauli", "tableau", "simulator", "benchmarking", "braiding", "qed")
    covered = sum(first[f"{layer}.self_s"] for layer in layers)
    assert math.isclose(covered + first["trace.outside_s"], first["trace.wall_s"], abs_tol=1e-9)
    assert first["trace.outside_s"] >= 0.0


def test_tracing_restores_the_library():
    before = (tetronsim.qed.run_circuit, tetronsim.simulator.TrajectoryEnsemble.merge)
    with tracing.installed(tracing.Tracer(), tetronsim):
        assert tetronsim.qed.run_circuit is not before[0]
    assert (tetronsim.qed.run_circuit, tetronsim.simulator.TrajectoryEnsemble.merge) == before


def test_pins_pass_at_this_commit():
    assert checks.verify_pins() == []


def test_wrong_pin_fails_the_command(monkeypatch, capsys):
    wrong = {"mbqb-device-pa-0.05": (checks._mbqb_device, {"err_a": 0.096, "err_b": 0.0})}
    monkeypatch.setattr(checks, "PINS", wrong)
    assert checks.verify_pins() != []
    code = run.main(["--workload", "sampled", "--seed", "0", "--seconds", "1"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "qed_map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""

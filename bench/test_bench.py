"""Tests of the benchmark itself: counters on a small S1 instance, the output checks, the inputs."""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def s1_h5():
    return run.launch(workloads.s1(5), timeout=120)


def test_s1_h5_counters_and_verdicts(s1_h5):
    obs = s1_h5["observed"]
    assert obs["scheduler.schedules"] == 243
    assert obs["runs.runs"] == 486
    assert obs["runs.points"] == 7776
    assert obs["runs.distinct_configs"] == 1031
    assert (obs["runs.classes.r1"], obs["runs.classes.r2"]) == (23, 23)
    assert [obs[f"verdict.{k}"][0] for k in workloads.FORMULAS] == ["FALSE"] * 3
    assert s1_h5["spans"] is None


def test_matching_outputs_pass(s1_h5):
    expected = dict(s1_h5["observed"])
    attempted, failed = run.check([s1_h5, s1_h5], expected)
    assert (attempted, failed) == (2 * len(expected), 0)


def test_wrong_stored_verdict_counts_as_failed(s1_h5):
    expected = dict(s1_h5["observed"], **{"verdict.dk_sp": ["TRUE", []]})
    attempted, failed = run.check([s1_h5], expected)
    assert (attempted, failed) == (len(expected), 1)


def test_counter_that_does_not_repeat_counts_as_failed(s1_h5):
    other = dict(s1_h5, observed=dict(s1_h5["observed"], **{"runs.distinct_configs": 1030}))
    _, failed = run.check([s1_h5, other], {})
    assert failed == 1


def test_sweep_long_inputs_depend_only_on_the_seed():
    random.seed(1)
    first = workloads.make_spec("sweep-long", 7)
    random.seed(2)
    assert workloads.make_spec("sweep-long", 7) == first
    assert workloads.make_spec("sweep-long", 8)["placements"] != first["placements"]
    code = ("import json, sys; sys.path.insert(0, 'bench'); import workloads; "
            "print(json.dumps(workloads.make_spec('sweep-long', 7)))")
    other = subprocess.run([sys.executable, "-c", code], cwd=BENCH.parent, capture_output=True,
                           text=True, env={"PYTHONHASHSEED": "123"}, check=True)
    assert json.loads(other.stdout) == first
    placements = {tuple(p) for p in first["placements"]}
    assert len(placements) == workloads.SWEEP_PLACEMENTS
    assert all(a != b and 0 <= a < 64 and 0 <= b < 64 for a, b in placements)


def test_self_time_subtracts_children():
    spans = [
        {"name": "repetition", "parent": -1, "start": 0.0, "end": 10.0},
        {"name": "build", "parent": 0, "start": 1.0, "end": 6.0},
        {"name": "runs.simulate", "parent": 1, "start": 2.0, "end": 5.0},
        {"name": "query", "parent": 0, "start": 6.0, "end": 9.0},
        {"name": "logic.valid", "formula": "ev_sp", "parent": 3, "start": 6.5, "end": 9.0},
    ]
    assert run.self_times(spans) == [2.0, 2.0, 3.0, 0.5, 2.5]
    layers = run.layer_times(spans)
    assert layers["runs.simulate_s"] == 3.0
    assert layers["logic.valid_s.ev_sp"] == 2.5
    assert layers["trace.glue_s"] == 4.5


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ssync-flood",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Tests of the benchmark itself, at the tiny ``TINY`` size.

Run from the repository root: python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from ops import Run  # noqa: E402
from spans import self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(workload, seed, trace, tmp_path):
    return harness.run_benchmark(workload, seed, 0.01, trace,
                                 sizes=workloads.TINY, out_dir=tmp_path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    return {(w, seed, trace): tiny_run(w, seed, trace, out)
            for w in NAMES for seed in (0, 1) for trace in (0, 1)}, out


def test_spec_lists_the_workloads_and_metrics_the_harness_emits():
    assert NAMES == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(harness.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == harness.per_layer_units()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(runs, trace, key):
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    for workload in NAMES:
        result, _ = runs[0][(workload, 0, trace)]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, workload
        assert set(result) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("seed", [0, 1])
def test_runs_at_two_seeds_have_no_failures(runs, seed):
    for workload in NAMES:
        for trace in (0, 1):
            result, record = runs[0][(workload, seed, trace)]
            assert record["errors"] == []
            assert result["failed"] == 0 and result["correct"], workload
            assert record["fail_rate"] == 0.0
            assert result["attempted"] > 0


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in NAMES:
        result, _ = runs[0][(workload, 1, 0)]
        assert all(m["value"] > 0 for m in result["metrics"].values()), workload


def test_forced_check_failure_is_counted_not_raised(monkeypatch, tmp_path):
    measure_many = workloads.measure_many

    def shifted(*args):
        # every measured mean lands a joule off its noiseless energy
        return [dataclasses.replace(m, mean=m.mean + 1.0) for m in measure_many(*args)]

    monkeypatch.setattr(workloads, "measure_many", shifted)
    result, record = tiny_run("profile", 0, 0, tmp_path)
    measured = 2 * 2 * workloads.TINY.profile_inputs  # two targets, two families
    assert result["failed"] >= measured
    assert not result["correct"]
    assert record["fail_rate"] == result["failed"] / result["attempted"]


def test_raising_call_is_counted_and_its_dependents_skipped(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(workloads, "train_svm", broken)
    result, _ = tiny_run("attack", 0, 1, tmp_path)
    metrics = result["metrics"]
    # train_svm and the evaluation that needs its detector, per cycle
    assert metrics["defense.failed"]["value"] > 0
    assert result["failed"] == metrics["defense.failed"]["value"]
    assert metrics["defense.detect_auc"]["value"] == 0.0


def test_spans_nest_and_self_time_is_not_negative(runs):
    out = runs[1]
    for workload in NAMES:
        trace = json.loads((out / ("trace-%s-seed0.json" % workload)).read_text())
        spans = trace["spans"]
        assert spans and len(trace["self_s"]) == len(spans)
        for span in spans:
            assert span["end"] >= span["start"]
            assert {"id", "name", "start", "end", "parent", "run"} <= set(span)
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
                assert parent["run"] == span["run"]
        assert min(trace["self_s"]) >= 0.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 5.0},   # overlaps id 1
        {"id": 3, "parent": 0, "start": 9.0, "end": 12.0},  # runs past parent
        {"id": 4, "parent": 1, "start": 2.0, "end": 3.0},
    ]
    assert self_times(spans) == [10.0 - 4.0 - 1.0, 3.0 - 1.0, 2.0, 3.0, 1.0]


def test_call_times_are_scaled_by_the_kernel_around_them():
    kernel_times = iter([1.0, 3.0, 2.0])  # before call 1, before call 2, after
    run = Run(kernel=lambda: next(kernel_times))
    run.call("data", lambda: None, ops=0)
    run.call("data", lambda: None, ops=0)
    run.durations = [(name, 1.0, k) for name, _, k in run.durations]
    # wall time 1 s, times reference 2 s, over the mean kernel time around it
    assert run.scaled_durations(2.0) == [("data", 1.0), ("data", 0.8)]


def test_cli_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

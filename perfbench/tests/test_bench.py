"""Tests of the benchmark harness itself, on tiny runs.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
MODULES = ("groebner", "poly", "grading", "ideals", "rings", "closure", "script")


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(run, "PASSES", 2)
    monkeypatch.setattr(run, "SETUPS_PER_PASS", 1)


def bench(name, trace, workload=None):
    argv = ["--workload", name, "--seed", "7", "--seconds", "0.01", "--trace", str(trace)]
    return run.run(argv, workload)


def test_spec_names_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_end_to_end_metric(name):
    env, result = bench(name, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == env["passes"] * env["ops_per_pass"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    _, result = bench(name, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.mark.parametrize("name", NAMES)
def test_self_times_add_up_to_the_traced_op_time(name):
    bench(name, 1)
    stem = f"{name}-seed7-trace1"
    values = json.loads((run.OUT / f"{stem}.json").read_text())["all_metrics"]
    assert values["groebner.groebner_basis.calls"] > 0
    attributed = sum(values[m + ".self_ms"] for m in MODULES) + values["trace.outside_spans_ms"]
    assert attributed == pytest.approx(values["trace.op_wall_ms"], rel=0.02)
    spans = (run.OUT / f"{stem}-spans.jsonl").read_text().splitlines()
    name_, start, end, parent, op = json.loads(spans[0])
    assert name_ == "bench.op" and parent == -1 and op == 0 and end >= start


def corrupt(name, monkeypatch):
    """The workload with its reference answers changed."""
    wl = workloads.WORKLOADS[name](7)
    if name == "scenarios":
        for key in wl.reference:
            wl.reference[key] = wl.reference[key].replace(b'"pass": true', b'"pass": false', 1)
    elif name == "frobenius":
        flip = {"0": "1", "1": "0"}
        wl.reference = {k: "".join(flip[c] for c in v) for k, v in wl.reference.items()}
    elif name == "classic":
        wl.reference = {k: dict.fromkeys(v, "0" * 64) for k, v in wl.reference.items()}
    else:  # smallideals checks against an oracle, not a stored answer
        oracle = workloads.monomial_oracle
        wrong = lambda kind, a, b: [tuple(x + 1 for x in m) for m in oracle(kind, a, b)]
        monkeypatch.setattr(workloads, "monomial_oracle", wrong)
    return wl


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_reference_fails_ops(name, monkeypatch):
    env, result = bench(name, 0, corrupt(name, monkeypatch))
    assert env["fail_frac"] > 0 and result["failed"] > 0 and not result["correct"]


def test_an_op_over_the_time_limit_fails_and_ends_the_run(monkeypatch):
    class Stuck(workloads.Scenarios):
        def execute(self, name):
            deadline = time.perf_counter() + 5
            while time.perf_counter() < deadline:
                pass

    monkeypatch.setattr(run, "OP_LIMIT_S", 0.05)
    env, result = bench("scenarios", 0, Stuck(7))
    assert result["attempted"] == result["failed"] == 1
    assert env["stopped"] == "an op exceeded its time limit"


def test_without_the_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + ["--workload", "scenarios", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

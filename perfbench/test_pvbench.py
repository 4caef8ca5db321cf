"""Tests of the benchmark itself, at tiny sizes so they run in seconds."""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from pvbench import bench, inputs, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

TINY = {
    "verify": lambda seed, wd: workloads.verify_ops(
        {"sparse": inputs.sparse(seed, n=200), "hub": inputs.hub(seed, leaves=40),
         "dense": inputs.dense(seed, n=20)}, inputs.sparse(seed, n=30), wd),
    "sweep": lambda seed, wd: workloads.gen_run_ops(inputs.sweep(seed, count=8, n_max=30), wd),
}


@pytest.fixture(autouse=True)
def restore_portvc_modules():
    """Each set-up re-imports `portvc`; give later tests back the modules they imported."""
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "portvc"}
    yield
    for name in [k for k in sys.modules if k.split(".")[0] == "portvc"]:
        del sys.modules[name]
    sys.modules.update(saved)


def tiny(name: str) -> workloads.Workload:
    return replace(workloads.WORKLOADS[name], build=TINY[name], mem_ops=2)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size(name, tmp_path):
    out = bench.run_untraced(tiny(name), 3, 0.2, str(tmp_path))
    assert out.result["correct"], out.lines
    assert out.result["failed"] == 0 and out.result["attempted"] >= bench.MIN_OPS + 2
    assert {k: v["unit"] for k, v in out.result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out.result["metrics"].values())
    assert len(out.details["setup_runs_s"]) == bench.SETUP_REPS

    traced = bench.run_traced(tiny(name), 3, 0.2, str(tmp_path))
    assert traced.result["correct"], traced.lines
    metrics = traced.result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == PER_LAYER
    assert metrics["simulator.run_calls"]["value"] == (1 if name == "sweep" else 3)
    assert metrics["checks.analyze_s"]["value"] > 0
    assert metrics["checks.analyze_peak_mb"]["value"] > 0
    assert traced.details["toplevel_check"] == "PASS", traced.lines


def test_toplevel_check_allows_only_the_overhead_and_noise():
    assert bench._toplevel_check(overhead=1.10, toplevel=1.08)
    assert bench._toplevel_check(overhead=1.10, toplevel=0.99)
    assert bench._toplevel_check(overhead=0.97, toplevel=0.97)  # traced ran faster: noise
    assert not bench._toplevel_check(overhead=1.00, toplevel=0.95)
    assert not bench._toplevel_check(overhead=0.99, toplevel=1.05)


def test_corrupted_trace_fails_the_gate(tmp_path, monkeypatch):
    from pvbench import ops

    real_invoke = ops.invoke
    verifies = []

    def corrupting_invoke(cli_main, argv):
        if argv[0] == "verify":
            verifies.append(argv)
            if len(verifies) % 2 == 0:  # every other verify: claim a message never sent
                with open(argv[argv.index("--trace") + 1], "a") as fh:
                    fh.write("1 0 1 accept\n")
        return real_invoke(cli_main, argv)

    monkeypatch.setattr(ops, "invoke", corrupting_invoke)
    out = bench.run_untraced(tiny("verify"), 3, 0.2, str(tmp_path))
    assert not out.result["correct"]
    assert 0 < out.result["failed"] < out.result["attempted"]
    assert out.details["fail_ratio"] == out.result["failed"] / out.result["attempted"]
    assert "`vc verify` exited 3" in out.details["fail_reasons"][0]


@pytest.mark.parametrize("build", [
    lambda s: inputs.sparse(s, n=300),
    lambda s: inputs.hub(s, leaves=30),
    lambda s: inputs.dense(s, n=12),
    lambda s: inputs.sweep(s, count=20),
])
def test_builders_are_deterministic_per_seed(build):
    assert build(5) == build(5)
    assert build(5) != build(6)


def test_sweep_draws_follow_criterion_2_ranges():
    draws = inputs.sweep(1)
    assert all(4 <= d.n <= 300 and 1 <= d.max_degree <= 10 for d in draws)
    assert all(0 < float(d.p) <= 1 for d in draws)
    assert {d.max_degree for d in draws} == set(range(1, 11))


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    dest = tmp_path / "checkout"
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_result_line(tmp_path):
    proc = _bench(_checkout(tmp_path, True), "--workload", "sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)


def test_command_fails_without_the_program(tmp_path):
    proc = _bench(_checkout(tmp_path, False), "--workload", "sweep", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

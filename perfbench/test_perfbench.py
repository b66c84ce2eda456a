"""Self-tests of the benchmark: every kind of failure counts as a failed
operation, and a reduced-size run drives each workload's code path and
prints every metric BENCHMARK.json declares.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(scope="module")
def grid_iteration(tmp_path_factory):
    """One smoke-size grid-certify iteration, outputs kept for tampering."""
    d = tmp_path_factory.mktemp("grid")
    plan = workloads.plan("grid-certify", 0, "smoke")
    inputs = plan.write_inputs(str(d))
    it = bench.run_iteration(plan, inputs, str(d / "iter"), time.monotonic() + 120)
    assert it.errors == [[], []]
    return plan, it


def test_tampered_ledger_fails_verify(grid_iteration):
    plan, it = grid_iteration
    path = os.path.join(it.ops[1].out, "ledger.json")
    with open(path, "rb") as fh:
        original = fh.read()
    try:
        with open(path, "wb") as fh:
            fh.write(original.replace(b'"schema": 1', b'"schema": 1 '))
        errors = plan.check(it.ops, [0, 0])
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
    assert errors[0] == []
    assert any("differs from run" in e for e in errors[1])


def test_nonzero_exit_fails_op(grid_iteration, tmp_path):
    plan, it = grid_iteration
    child = bench.spawn([sys.executable, "-c", "import sys; sys.exit(3)"],
                        str(tmp_path / "log"), time.monotonic() + 60)
    assert child.returncode == 3
    errors = plan.check(it.ops, [0, child.returncode])
    assert errors[0] == []
    assert "exit code 3" in errors[1]


def test_changed_output_hash_fails_op(grid_iteration):
    plan, it = grid_iteration
    path = os.path.join(it.ops[0].out, "trajectory.csv")
    with open(path, "rb") as fh:
        original = fh.read()
    try:
        with open(path, "ab") as fh:
            fh.write(b"\n")
        again = bench._conclude(plan, it.ops, it.children)
    finally:
        with open(path, "wb") as fh:
            fh.write(original)
    again.check_digests(it)
    assert any("output hash" in e for e in again.errors[0])
    assert not any("output hash" in e for e in again.errors[1])


def _bench(*args, cwd=bench.ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "grid-certify", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Self-tests of the benchmark at smoke size.

    python3 -m pytest e2ebench -q

They run the benchmark command as a user would (one child process per
workload) on tiny inputs, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import (  # noqa: E402
    ATTRIBUTION_TOLERANCE,
    BENCHMARKED,
    WORKLOAD_NAMES,
    check_digest,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, reference: Path | None = None, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "e2ebench" / "run.py"), "--smoke", "--seconds", "0.5", *args]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env, timeout=300)


def last_json(proc, returncode: int = 0) -> dict:
    assert proc.returncode == returncode, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(BENCHMARKED)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_timed_run_emits_declared_end_to_end_metrics(workload):
    result = last_json(bench("--workload", workload, "--seed", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def traced():
    return last_json(bench("--workload", "table1", "--trace", "1"))


def test_traced_run_emits_declared_per_layer_metrics(traced):
    assert traced["correct"], traced
    got = {k: v["unit"] for k, v in traced["metrics"].items()}
    assert got == declared("per_layer")


def test_traced_self_times_sum_to_traced_wall_time(traced):
    for workload in WORKLOAD_NAMES:
        frac = traced["metrics"][f"trace.attributed_frac.{workload}"]["value"]
        assert 1.0 - ATTRIBUTION_TOLERANCE <= frac <= 1.0 + 1e-9, (workload, frac)


def test_corrupted_reference_digest_fails_the_gate(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    good = last_json(bench("--workload", "graph_build", "--seed", "0"))
    assert good["correct"]
    digests = reference["smoke_digests"]
    digests["graph_build"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    bad = last_json(
        bench("--workload", "graph_build", "--seed", "0", reference=corrupted), returncode=1
    )
    assert not bad["correct"] and bad["failed"] >= 1
    assert bad["metrics"]["ok_frac"]["value"] < 1.0


def test_digest_gate_only_at_reference_seed():
    reference = {"seed": 0, "digests": {"table1": "ab"}, "smoke_digests": {}}
    assert check_digest("table1", 0, "ab", reference) is None
    assert check_digest("table1", 0, "cd", reference) is not None
    assert check_digest("table1", 1, "cd", reference) is None
    assert check_digest("table1", 0, "ab", reference, smoke=True) is not None


def test_many_workloads_print_every_metric():
    proc = bench("--workload", "table1,graph_build", "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    for name in ("table1", "graph_build"):
        for metric, unit in declared("end_to_end").items():
            assert any(
                line.split()[:2] == [name, metric] and line.split()[-1] == unit
                for line in proc.stdout.splitlines()
            ), (name, metric)


def test_fails_without_the_repository_code(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=ignore)
    proc = bench("--workload", "table1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())

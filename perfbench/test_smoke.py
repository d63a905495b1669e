"""Smoke test of the benchmark harness, at the determinism gate's sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs each workload untraced and traced at `--size smoke` (seconds each) and
checks the result line against BENCHMARK.json: every metric named there is
printed with its unit, nothing else is, and no operation fails. Also checks
that the seed reaches the workload's inputs and that the benchmark refuses
to run without the package sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def record_of(workload, seed, trace):
    path = ROOT / ".bench_out" / "results" / \
        f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]]["why"]
        workloads.check_split(w["name"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, trace):
    result = result_of(run_bench(workload, 3, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_reaches_the_inputs():
    digests = []
    for seed in (4, 5, 4):
        assert result_of(run_bench("infer", seed, 0))["correct"]
        digests.append(record_of("infer", seed, 0)["tree_sha256"])
    assert digests[0] == digests[2]
    assert digests[0] != digests[1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("infer", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

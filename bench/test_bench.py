"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench/test_bench.py -q

Checks that each workload emits every metric of ``BENCHMARK.json`` with
its unit and passes its correctness gate, that the gate fails when a
reference value is corrupted, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def copy_checkout(dest: Path, with_sources: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_passes(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    result = result_of(proc)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate: 0.0 " in proc.stdout
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _corrupt_sweep(refs: Path) -> str:
    doc = json.loads((refs / "sweep-snr.json").read_text())
    key = sorted(doc["seeds"]["0"])[0]
    doc["seeds"]["0"][key] = doc["seeds"]["0"][key] * (1.0 + 2.0 ** -50)
    (refs / "sweep-snr.json").write_text(json.dumps(doc))
    return key


def _corrupt_api(refs: Path) -> str:
    doc = json.loads((refs / "api-calls.json").read_text())
    digests = doc["seeds"]["7919"][3].split(",")
    digests[1] = "0" * len(digests[1])
    doc["seeds"]["7919"][3] = ",".join(digests)
    (refs / "api-calls.json").write_text(json.dumps(doc))
    return "blind_report differs from the reference"


@pytest.mark.parametrize("workload, corrupt", [("sweep-snr", _corrupt_sweep),
                                               ("api-calls", _corrupt_api)])
def test_gate_reports_a_corrupted_reference(tmp_path, workload, corrupt):
    copy_checkout(tmp_path, with_sources=True)
    expected = corrupt(tmp_path / "bench" / "refs")
    proc = run_bench(tmp_path, workload, 0)
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert expected in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    copy_checkout(tmp_path, with_sources=False)
    proc = run_bench(tmp_path, "sweep-snr", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

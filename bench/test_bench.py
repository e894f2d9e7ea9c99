"""Smoke tests of the benchmark harness itself (tiny inputs, about a minute).

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "42", "--seconds", "0.5", "--smoke",
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--trace", trace)
    assert done.returncode == 0, done.stderr
    out = result(done)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    info = json.loads(done.stdout.strip().splitlines()[-2])
    assert info["environment"]["blas_threads"] == 1
    assert info["details"]["error_rate"] == 0.0


def copy_benchmark(root: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", root)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, root / path,
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_fingerprint_fails_the_run(workload, tmp_path):
    copy_benchmark(tmp_path)
    for program in ("src", "tests"):
        (tmp_path / program).symlink_to(ROOT / program, target_is_directory=True)
    stored = tmp_path / "bench" / "fingerprints.json"
    fingerprints = json.loads(stored.read_text("utf-8"))
    expected = fingerprints["42"]["smoke"][workload]
    key = sorted(expected)[0]
    expected[key] = "deliberately wrong"
    stored.write_text(json.dumps(fingerprints), "utf-8")
    done = bench("--workload", workload, "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert done.returncode == 1
    out = result(done)
    assert out["correct"] is False
    assert out["failed"] == out["attempted"]
    assert "fingerprint mismatch" in done.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy_benchmark(tmp_path)
    done = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

"""The benchmark's own tests, on tiny replicate counts:

    python3 -m pytest -q bench/smoke_checks.py

(The file name keeps it out of the repository's own test collection.)
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_runner_matches_benchmark_json():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in run.WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    table = "\n".join(lines[:-1])
    for name, unit in [*units.items(), ("failed_share", "ratio")]:
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)} ", table, re.M), name
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        expected = 2 if workload == "fbm-wave-cov" else 1
        assert m["theta.transforms_per_draw"] == expected
        assert 0.8 < m["trace.accounted_share"] <= 1.05


def _corrupt_digit(path: Path) -> None:
    text = path.read_text()
    i = text.index("0.0", text.index("\n")) + 3
    path.write_text(text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:])


CORRUPTIONS = {
    "digit changed in the CSV": lambda out: _corrupt_digit(out / "covariance_report.csv"),
    "JSON truncated": lambda out: (out / "covariance_report.json").write_text(
        (out / "covariance_report.json").read_text()[:100]),
    "listed output deleted": lambda out: (out / "covariance_report.txt").unlink(),
}


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_corrupted_output_counts_as_failure(tmp_path, how):
    w = run.WORKLOADS["brownian-cov"]
    runner = run.Runner(w, 5, smoke=True, directory=tmp_path / "runs")
    runner.cli("s0", w.workers)
    assert runner.failures == [] and runner.attempted == 1
    copy = tmp_path / "copy"
    shutil.copytree(runner.ref, copy)
    CORRUPTIONS[how](copy)
    with pytest.raises((ValueError, OSError)):
        run.check_outputs(copy)
        run.same_outputs(runner.ref, copy)
    # the next run is compared with the corrupted first run and counts as failed
    CORRUPTIONS[how](runner.ref)
    runner.cli("s1", w.workers)
    assert runner.attempted == 2 and len(runner.failures) == 1


def test_failed_covariance_verdict_counts_as_failure(tmp_path, monkeypatch):
    w = run.WORKLOADS["brownian-cov"]
    assert w.gate_passes
    runner = run.Runner(w, 5, smoke=True, directory=tmp_path / "runs")
    assert not runner.gate_passes  # R=50 is too few for the verdict
    runner.gate_passes = True
    monkeypatch.setattr(run, "_passes", lambda report: True)
    runner.cli("s0", w.workers)
    assert runner.failures == []
    monkeypatch.setattr(run, "_passes", lambda report: False)
    runner.cli("s1", w.workers)
    assert runner.attempted == 2 and len(runner.failures) == 1
    assert "passes()" in runner.failures[0]


def test_self_time_subtracts_covered_child_time():
    spans = [
        {"id": 0, "name": "loop", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "sheet", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "sheet", "start": 3.0, "end": 6.0, "parent": 0},
        {"id": 3, "name": "theta", "start": 8.0, "end": 12.0, "parent": 0},
    ]
    assert run.self_times(spans) == {"loop": 3.0, "sheet": 6.0, "theta": 4.0}


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "brownian-cov", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

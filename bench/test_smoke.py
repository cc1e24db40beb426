"""Smoke test of the benchmark at tiny sizes (``--smoke``).

    python3 -m pytest -q bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted artifact is counted as failed, and that the benchmark
refuses to run without the program's source tree.
"""

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

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layer_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert layer_self + m["trace.other_self_s"] + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])


def test_corrupted_artifact_is_counted_as_failed(monkeypatch, capsys):
    hash_tree = run.hash_tree
    corrupted = []

    def corrupt_first(out):
        if not corrupted:
            path = out / "pointset.json"
            payload = json.loads(path.read_text())
            payload["mse"] *= 1.5
            path.write_text(json.dumps(payload))
            corrupted.append(path)
        return hash_tree(out)

    monkeypatch.setattr(run, "hash_tree", corrupt_first)
    assert run.main(["--workload", "kmeans-d3", "--seed", "3", "--seconds", "1", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert corrupted
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "kmeans-d3", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke test of the benchmark at minimal size.

Every workload, untraced and traced, must exit 0 with a correct result
that carries every metric BENCHMARK.json names, with its unit. Without the
program next to it the benchmark must fail and print no result. Run from
the repository root:

    python3 -m pytest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable] + SPEC["command"][1:] + args,
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["attempted"] >= 100
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert out["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    for name, metric in out["metrics"].items():
        assert metric["value"] is not None, name  # every traced name exists
        if not trace:
            assert metric["value"] > 0, name


def test_a_deleted_layer_reads_null(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers
    from opident import identities

    monkeypatch.delattr(identities, "_subset_plan")
    tracer = layers.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics(samples=1, overhead=1.0)
    assert metrics["identities._subset_plan.calls"] == (None, "count")
    assert metrics["identities._terms_from_plan.calls"] == (0, "count")
    assert metrics["functions.SmoothFn.eval_jet.hit_ratio"] == (None, "ratio")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    done = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

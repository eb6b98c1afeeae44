"""Tests for the benchmark: smoke-mode schema (not timings) and the correctness gate.

Run from the repository root with: python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_flags_non_finite_embeddings_and_drift():
    import numpy as np

    import run

    mods = run.import_program()
    task = mods["kg"].generate_synthetic_pair(60, 6, 4, emb_dim=8, rng_seed=3)
    nan = np.full((60, 8), np.nan)
    with np.errstate(divide="ignore"):
        report = mods["evaluation"].evaluate(task, nan, nan)
    result = SimpleNamespace(final_emb1=nan, final_emb2=nan, history=[{"loss": 1.0}])
    assert "non-finite final embeddings" in run.finite_problems(result, report)

    outcome = {"losses": [2.0, 1.0], "train_pairs": 18, "hits_at_1": 0.5, "mrr": 0.6}
    assert run.compare(dict(outcome, losses=[2.0, 1.0 + 1e-12]), outcome) == []
    assert run.compare(dict(outcome, losses=[2.0, 1.0 + 1e-6]), outcome)
    assert run.compare(dict(outcome, train_pairs=19), outcome)

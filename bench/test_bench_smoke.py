"""Smoke test of the benchmark: each workload on a tiny pool, traced.

A traced run also makes untraced rounds, so one run per workload yields both
the end-to-end report and the per-layer metrics.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_metric(workload, tmp_path):
    result = run.measure(workload, seed=1, seconds=1, trace=True, tiny=True,
                         out_dir=tmp_path)
    assert result["correct"], result["errors"]
    if workload != "cli-cold":
        assert result["failed"] == 0, result["errors"]
    untraced = run.final_metrics(dict(result, trace=0))
    assert set(untraced) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in untraced.values())
    traced = run.final_metrics(result)
    assert set(traced) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert (tmp_path / ("%s-seed1" % workload)).is_dir()


def test_fails_without_the_library(tmp_path):
    """In a directory holding only the benchmark it exits non-zero, silently
    on stdout."""
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hom-routes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Smoke tests for the benchmark at tiny scale.

Run from the repository root::

    python -m pytest perfbench/tests -q

Each end-to-end test builds a throwaway checkout (links to ``src``,
``perfbench`` and ``BENCHMARK.json``) so no result lands in the tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def checkout(tmp_path, with_source: bool = True) -> str:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), root / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    if with_source:
        os.symlink(os.path.join(ROOT, "src"), root / "src")
    return str(root)


def bench(root: str, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(tmp_path, workload):
    root = checkout(tmp_path)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = bench(root, workload, trace)
        assert done.returncode == 0, done.stderr[-2000:]
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        names = [m["name"] for m in SPEC[section]]
        assert list(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), name
            if section == "end_to_end":
                assert metric["value"] > 0, name
        record = json.loads(lines[-2])
        assert record["provenance"]["seed"] == 3
        assert record["error_rate"] == 0
        assert "setup_s" in record["spread"]


def test_fails_without_program_source(tmp_path):
    root = checkout(tmp_path, with_source=False)
    done = bench(root, "census", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_seed_fixes_the_inputs(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs

    first = inputs.build("service-http", 5, str(tmp_path / "a"), "tiny")
    again = inputs.build("service-http", 5, str(tmp_path / "b"), "tiny")
    other = inputs.build("service-http", 6, str(tmp_path / "c"), "tiny")
    assert first["expected"] == again["expected"]
    assert first["graphs"] == again["graphs"]
    assert first["expected"] != other["expected"]


def test_committed_answers_are_checked():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import inputs

    with open(inputs.COMMITTED) as fh:
        committed = json.load(fh)["census"]
    manifest = {"scale": "full", "seed": 0, "workload": "census", **committed}
    assert inputs.matches_committed(manifest)
    manifest["expected"] = dict(manifest["expected"], clique3=-1)
    assert not inputs.matches_committed(manifest)


def test_self_time_subtracts_covered_children():
    tree = [
        {"id": 1, "parent": 0, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # overlaps 2
        {"id": 4, "parent": 1, "start": 9.0, "end": 12.0},  # runs past 1
    ]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)


def test_recorder_nests_and_opens_requests():
    rec = spans.Recorder()
    with rec.span("outer", new_request=True) as outer:
        with rec.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"]
    assert inner["rid"] == outer["rid"] == outer["id"]
    assert rec.current.get() == (0, 0, "")

"""Smoke test of the benchmark itself: every workload at tiny size, the
output line it promises, and tampered outputs that must be counted as
failed, which shows the checks are live.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_run_has_no_failures(workload):
    result = bench.run(workload, 3, 0, trace=True, tiny=True, setup_reps=1)
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] == bench.MIN_PASSES * len(bench.WORKLOADS[workload](3, True).items)
    traced = json.loads(bench.report(result, trace=True).splitlines()[-1])
    assert traced["correct"] is True
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(m["unit"] == traced["metrics"][m["name"]]["unit"] for m in SPEC["per_layer"])
    plain = json.loads(bench.report(result, trace=False).splitlines()[-1])
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in plain["metrics"].values())


def test_certificate_with_a_dropped_edge_is_counted_failed():
    dropped = []

    def drop_edge(doc):
        # Drop an edge that transitivity demands, so the frame is no longer ITF.
        rel = {tuple(e) for e in doc["rel"]}
        for x, z in doc["rel"]:
            if any((x, y) in rel and (y, z) in rel for y in doc["worlds"]):
                doc["rel"].remove([x, z])
                dropped.append((x, z))
                return

    result = bench.run("ladder", 3, 0, trace=False, tiny=True, tamper=drop_edge, setup_reps=1)
    assert dropped
    assert result["failed"] == len(dropped)


def test_proof_with_a_changed_mp_index_is_counted_failed():
    changed = []

    def self_mp(doc):
        # mp i i needs a formula equal to its own antecedent: never valid.
        mps = [s for s in doc["steps"] if "mp" in s]
        if mps:
            mps[-1]["mp"][1] = mps[-1]["mp"][0]
            changed.append(1)

    result = bench.run("kernel_models", 3, 0, trace=False, tiny=True, tamper=self_mp, setup_reps=1)
    assert changed
    assert result["failed"] == len(changed)


def test_refuses_to_run_without_the_glkit_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(bench.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

"""The paired quality script of ``benchmarks/quality``, run at a tiny size
with one tree against itself: both sides must agree to the bit, so every
paired difference is exactly 0."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tree_against_itself_differs_by_nothing(tmp_path):
    # p=5: Lorenz-96 at p=4 couples every pair, a truth with no negatives
    src = os.path.join(ROOT, "src")
    subprocess.run([sys.executable, os.path.join(ROOT, "benchmarks", "quality", "paired_auc.py"),
                    "--base", src, "--change", src, "--label", "self", "--seeds", "2",
                    "--p", "5", "--T", "200", "--out", str(tmp_path)],
                   check=True, capture_output=True, timeout=300)
    with open(tmp_path / "BENCH_quality_self.json") as fh:
        doc = json.load(fh)
    assert sorted(doc["configs"]) == ["lorenz-group", "var-group", "var-hierarchical"]
    for res in doc["configs"].values():
        assert res["base"] == res["change"]
        assert len(res["base"]["auc"]) == 2
        assert list(res["groups"]) == ["gate"]        # seeds 0-1: no held-out seed
        gate = res["groups"]["gate"]
        assert gate["totals"]["base"] == gate["totals"]["change"]
        for diff in gate["differences"].values():
            assert diff == {"mean": 0.0, "ci95": [0.0, 0.0]}

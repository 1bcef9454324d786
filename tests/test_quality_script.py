"""The paired quality script of ``benchmarks/quality``, run at a tiny size
with one tree against itself: both sides must agree to the bit, so the
script reports their sweeps identical and every paired difference is
exactly 0."""

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
        assert res["identical"] is True
        assert len(set(res["base"]["sha256"])) == 2    # one digest per seed's sweep
        assert res["base"] == res["change"]
        assert len(res["base"]["auc"]) == 2
        assert list(res["groups"]) == ["gate"]        # seeds 0-1: no held-out seed
        gate = res["groups"]["gate"]
        assert gate["totals"]["base"] == gate["totals"]["change"]
        for diff in gate["differences"].values():
            assert diff == {"mean": 0.0, "ci95": [0.0, 0.0]}


def test_one_differing_sweep_is_reported():
    from paired_auc import CONFIGS, compare
    rows = {"auc": [0.9, 0.8], "iterations": [10, 20], "backtracks": [1, 2],
            "capped": [0, 0], "sha256": ["a", "b"]}
    base = {name: rows for name in CONFIGS}
    change = dict(base, **{"var-group": dict(rows, sha256=["a", "c"])})
    report = compare(base, change, 2)
    assert {name: res["identical"] for name, res in report.items()} == {
        "var-group": False, "var-hierarchical": True, "lorenz-group": True}

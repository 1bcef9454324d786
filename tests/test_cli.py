import os
import re

import numpy as np
import pytest
import yaml

from ngcausal import _kernels as kernels
from ngcausal import cli
from ngcausal.cli import main
from ngcausal.io import (load_checkpoint, read_auc_csv, read_dataset_csv,
                         read_matrix_csv, write_dataset_csv)


def write_config(path, **overrides):
    base = {
        "generator": {"kind": "var", "p": 4, "T": 120, "seed": 0,
                      "var": {"K": 1, "edge_prob": 0.25, "burn_in": 50}},
        "model": {"K": 1, "hidden": []},
        "penalty": {"kind": "group", "lam": 5.0, "grid_size": 5},
        "optimizer": {"max_iters": 2000},
        "evaluation": {"standardize": True},
    }
    for section, vals in overrides.items():
        base.setdefault(section, {}).update(vals)
    with open(path, "w") as fh:
        yaml.safe_dump(base, fh)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def failing_dataset(case):
    """(series, config overrides, message) of a dataset that fit or sweep
    rejects for a reason in the data itself."""
    ts = np.random.default_rng(0).normal(size=(60, 4))
    if case == "short":
        return ts[:2], {"model": {"K": 2}}, "need T > K, got T=2, K=2"
    if case == "constant column":
        ts[:, 1] = 3.0
        return ts, {}, "zero-variance column(s) [1]: cannot standardize"
    if case == "overflowing mean":
        ts[:, 3] = (ts[:, 3] ** 2 + 1.0) * 1e307
        return ts, {}, "non-finite mean or std in column(s) [3]: cannot standardize"
    raw = {"evaluation": {"standardize": False}}
    if case == "constant data":
        return np.ones_like(ts), raw, "data is constant: no usable penalty scale"
    ts[:, 2] *= 1e200
    return ts, raw, ("penalty scale of the data is not finite (inf); "
                     "rescale or standardize the series")


class TestSimulate:
    def test_writes_dataset_and_truth(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", out, "--quiet") == 0
        ts = read_dataset_csv(out / "dataset.csv")
        truth = read_matrix_csv(out / "truth.csv")
        assert ts.shape == (120, 4)
        assert truth.shape == (4, 4)
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())["generator"]
        assert resolved["p"] == 4
        assert "p" not in resolved["var"] and "p" not in resolved["lorenz"]

    def test_lorenz_truth_row_pattern(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           generator={"kind": "lorenz", "p": 10, "T": 50,
                                      "lorenz": {"burn_in": 10}})
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", out, "--quiet") == 0
        truth = read_matrix_csv(out / "truth.csv")
        assert np.array_equal(np.flatnonzero(truth[0]), [0, 1, 8, 9])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", out1, "--quiet") == 0
        assert run("simulate", "--config", cfg, "--out", out2, "--quiet") == 0
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
        assert (out1 / "truth.csv").read_bytes() == (out2 / "truth.csv").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run("simulate", "--config", cfg, "--out", out1, "--quiet")
        run("simulate", "--config", cfg, "--out", out2, "--seed", 9, "--quiet")
        assert (out1 / "dataset.csv").read_bytes() != (out2 / "dataset.csv").read_bytes()

    def test_resolved_config_regenerates_the_dataset(self, tmp_path):
        # the resolved config holds the seed drawn from, --seed included
        cfg = write_config(tmp_path / "c.yaml")
        first, again = tmp_path / "a", tmp_path / "b"
        assert run("simulate", "--config", cfg, "--out", first, "--seed", 5, "--quiet") == 0
        resolved = first / "resolved_config.yaml"
        assert yaml.safe_load(resolved.read_text())["generator"]["seed"] == 5
        assert run("simulate", "--config", resolved, "--out", again, "--quiet") == 0
        assert (again / "dataset.csv").read_bytes() == (first / "dataset.csv").read_bytes()

    def test_tiny_edge_prob_identity_truth(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml",
                           generator={"var": {"K": 1, "edge_prob": 1e-12, "burn_in": 50}})
        out = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--out", out, "--quiet") == 0
        assert np.array_equal(read_matrix_csv(out / "truth.csv"), np.eye(4))


class TestFit:
    def test_huge_lambda_zero_graph(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", penalty={"kind": "group", "lam": 1e9})
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        out = tmp_path / "fit"
        assert run("fit", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--out", out, "--jobs", 1, "--quiet") == 0
        graph = read_matrix_csv(out / "graph.csv")
        assert np.array_equal(graph, np.zeros((4, 4)))

    def test_outputs_and_checkpoint_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml", penalty={"lam": 1.0})
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        out = tmp_path / "fit"
        assert run("fit", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--out", out, "--jobs", 1, "--quiet") == 0
        graph = read_matrix_csv(out / "graph.csv")
        for i in range(4):
            model, meta = load_checkpoint(out / f"checkpoint_series_{i}.json")
            assert meta["series_index"] == i
            lags = read_matrix_csv(out / f"lags_series_{i}.csv")
            assert lags.shape == (4, 1)
            assert np.array_equal(np.sqrt((lags ** 2).sum(-1)), graph[i])
            groups = kernels.group_norms(model.weight(0), model.p, model.K)
            assert np.array_equal(graph[i] > 0, groups > 0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_refit_identical_bytes(self, tmp_path, jobs):
        cfg = write_config(tmp_path / "c.yaml", penalty={"lam": 2.0})
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        # a rerun under --jobs 1, and a --jobs 2 run, both match a --jobs 1 run
        for out, j in ((out1, 1), (out2, jobs)):
            assert run("fit", "--config", cfg, "--data", data_dir / "dataset.csv",
                       "--out", out, "--jobs", j, "--quiet") == 0
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        assert len(names) == 2 * 4 + 1  # lags and checkpoint per series, graph
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestSweep:
    @pytest.fixture()
    def simulated(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        return cfg, data_dir

    def test_outputs(self, simulated, tmp_path):
        cfg, data_dir = simulated
        out = tmp_path / "sw"
        assert run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--truth", data_dir / "truth.csv", "--out", out,
                   "--jobs", 1, "--quiet") == 0
        roc = (out / "roc.csv").read_text().splitlines()
        assert roc[0] == "lambda,fpr,tpr"
        assert len(roc) == 6  # header + 5 grid points
        [row] = read_auc_csv(out / "auc.csv")
        assert row["generator"] == "var" and row["T"] == 120 and row["seed"] == 0
        assert 0.0 <= row["auc"] <= 1.0
        edges = (out / "edges.csv").read_text().splitlines()
        assert edges[0] == "lambda,active_edges,active_lag_pairs"
        graphs = sorted(os.listdir(out / "graphs"))
        assert graphs == [f"graph_{i:02d}.csv" for i in range(5)]

    def test_edge_counts_non_increasing_in_lambda_linear_mode(self, simulated, tmp_path):
        cfg, data_dir = simulated
        out = tmp_path / "sw"
        run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
            "--truth", data_dir / "truth.csv", "--out", out, "--jobs", 1, "--quiet")
        rows = [l.split(",") for l in (out / "edges.csv").read_text().splitlines()[1:]]
        counts = [int(r[1]) for r in rows]  # lambdas descend within the file
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    def test_deterministic_bytes(self, simulated, tmp_path):
        cfg, data_dir = simulated
        outs = [tmp_path / "s1", tmp_path / "s2"]
        for out in outs:
            assert run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
                       "--truth", data_dir / "truth.csv", "--out", out,
                       "--jobs", 2, "--quiet") == 0
        for name in ("roc.csv", "auc.csv", "edges.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_truth_shape_mismatch(self, simulated, tmp_path):
        cfg, data_dir = simulated
        bad_truth = tmp_path / "bad.csv"
        bad_truth.write_text("1,0\n0,1\n")
        assert run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--truth", bad_truth, "--out", tmp_path / "x", "--quiet") == 3

    @pytest.mark.parametrize("text", ["", "\n"])
    def test_empty_truth_is_3_with_one_message(self, simulated, tmp_path, capsys, text):
        cfg, data_dir = simulated
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        out = tmp_path / "x"
        capsys.readouterr()
        assert run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--truth", empty, "--out", out, "--jobs", 1, "--quiet") == 3
        assert capsys.readouterr().err.splitlines() == [f"data error: {empty}: no rows"]
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["nan", "7"])
    def test_non_binary_truth_is_3(self, simulated, tmp_path, capsys, entry):
        # rejected before any fit: a NaN edge would be scored as a negative
        # and a 7 as a positive
        cfg, data_dir = simulated
        rows = [l.split(",") for l in (data_dir / "truth.csv").read_text().splitlines()]
        rows[0][1] = entry
        bad_truth = tmp_path / "bad.csv"
        bad_truth.write_text("\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "x"
        capsys.readouterr()
        assert run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--truth", bad_truth, "--out", out, "--jobs", 1, "--quiet") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "0 or 1" in err[0] and entry in err[0]
        assert not out.exists()


class TestProgressLines:
    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_stdout_independent_of_jobs(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.yaml", model={"K": 2, "hidden": [3]})
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        truth = ["--truth", data_dir / "truth.csv"] if command == "sweep" else []
        capsys.readouterr()
        stdout = {}
        for jobs in (1, 2):
            assert run(command, "--config", cfg, "--data", data_dir / "dataset.csv",
                       *truth, "--out", tmp_path / "o", "--jobs", jobs) == 0
            stdout[jobs] = capsys.readouterr().out
        assert stdout[1] == stdout[2]
        n_lam = 5 if command == "sweep" else 1
        lines = stdout[1].splitlines()
        fits = [line for line in lines if line.startswith("series ")]
        assert len(fits) == 4 * n_lam
        # series outer, lambda inner
        for k, line in enumerate(fits):
            i, li = divmod(k, n_lam)
            assert re.fullmatch(rf"series {i}: lambda {li + 1}/{n_lam} "
                                r"\(\d+ iters, objective \S+\)", line), line
        if command == "sweep":
            assert lines[0].startswith(f"sweeping {n_lam} lambdas in [")
            assert lines[1:-1] == fits
        else:
            assert lines[:-1] == fits


class TestReport:
    def make_sweep(self, tmp_path, cfg_name, out_name, seed):
        cfg = write_config(tmp_path / cfg_name)
        data_dir = tmp_path / f"d{seed}"
        run("simulate", "--config", cfg, "--out", data_dir, "--seed", seed, "--quiet")
        out = tmp_path / out_name
        run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
            "--truth", data_dir / "truth.csv", "--out", out, "--seed", seed,
            "--jobs", 1, "--quiet")
        return out

    def test_single_input_matches_summary(self, tmp_path):
        sw = self.make_sweep(tmp_path, "c.yaml", "sw", 0)
        table = tmp_path / "report.csv"
        assert run("report", sw, "--out", table, "--quiet") == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "generator,T,seed,penalty,auc,auc_excl_diag"
        assert len(lines) == 2
        [row] = read_auc_csv(sw / "auc.csv")
        assert lines[1].startswith(f"var,120,0,group,{row['auc']:.17g}")

    def test_aggregates_and_sorts(self, tmp_path):
        sw1 = self.make_sweep(tmp_path, "c.yaml", "sw1", 1)
        sw0 = self.make_sweep(tmp_path, "c.yaml", "sw0", 0)
        table = tmp_path / "report.csv"
        assert run("report", sw1, sw0, "--out", table, "--quiet") == 0
        lines = table.read_text().splitlines()[1:]
        seeds = [int(l.split(",")[2]) for l in lines]
        assert seeds == [0, 1]

    def test_every_row_of_an_input_is_kept(self, tmp_path):
        # a report's own output has one row per sweep: reading it back keeps both
        sw1 = self.make_sweep(tmp_path, "c.yaml", "sw1", 1)
        sw0 = self.make_sweep(tmp_path, "c.yaml", "sw0", 0)
        both = tmp_path / "both"
        both.mkdir()
        assert run("report", sw1, sw0, "--out", both / "auc.csv", "--quiet") == 0
        table = tmp_path / "report.csv"
        assert run("report", both, "--out", table, "--quiet") == 0
        assert table.read_text() == (both / "auc.csv").read_text()
        assert len(table.read_text().splitlines()) == 3

    def test_trailing_garbage_line_is_3(self, tmp_path, capsys):
        sw = self.make_sweep(tmp_path, "c.yaml", "sw", 0)
        with open(sw / "auc.csv", "a") as fh:
            fh.write("garbage line\n")
        table = tmp_path / "report.csv"
        capsys.readouterr()
        assert run("report", sw, "--out", table, "--quiet") == 3
        err = capsys.readouterr().err.splitlines()
        assert "auc.csv:3: expected 6 fields, got 1" in err[0]
        assert not table.exists()

    def test_missing_input_partial_output_nonzero_exit(self, tmp_path):
        sw = self.make_sweep(tmp_path, "c.yaml", "sw", 0)
        table = tmp_path / "report.csv"
        assert run("report", sw, tmp_path / "nope", "--out", table, "--quiet") == 3
        assert len(table.read_text().splitlines()) == 2  # header + 1 valid row

    def test_no_valid_inputs_no_output(self, tmp_path):
        table = tmp_path / "report.csv"
        assert run("report", tmp_path / "nope", "--out", table, "--quiet") == 3
        assert not table.exists()


class TestExitCodes:
    def test_bad_config_is_2(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("generator:\n  kind: arma\n")
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o",
                   "--quiet") == 2

    @pytest.mark.parametrize("section,key", [("evaluation", "seeds"), ("output", "dir")])
    def test_removed_setting_is_2(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path / "c.yaml", **{section: {key: "x"}})
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o",
                   "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and section in err
        assert not (tmp_path / "o").exists()

    def test_output_bias_key_is_2(self, tmp_path, capsys):
        # every model trains its output bias; the switch is gone
        cfg = write_config(tmp_path / "c.yaml", model={"output_bias": True})
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: model: unknown key(s) ['output_bias']"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_penalty_kind_none_is_2(self, tmp_path, capsys, command):
        # lam: 0 is the unpenalized fit; kind none is no penalty kind
        data_dir = tmp_path / "d"
        run("simulate", "--config", write_config(tmp_path / "ok.yaml"), "--out", data_dir,
            "--quiet")
        cfg = write_config(tmp_path / "c.yaml", penalty={"kind": "none"})
        truth = ["--truth", data_dir / "truth.csv"] if command == "sweep" else []
        capsys.readouterr()
        assert run(command, "--config", cfg, "--data", data_dir / "dataset.csv", *truth,
                   "--out", tmp_path / "o", "--jobs", 1, "--quiet") == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: penalty: unknown penalty kind 'none'; "
            "expected one of ('group', 'hierarchical')"]
        assert not (tmp_path / "o").exists()

    def test_missing_data_file_is_io_5(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        assert run("fit", "--config", cfg, "--data", tmp_path / "absent.csv",
                   "--out", tmp_path / "o", "--jobs", 1, "--quiet") == 5

    def test_malformed_data_is_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        bad = tmp_path / "bad.csv"
        bad.write_text("t,s0\n0,abc\n")
        assert run("fit", "--config", cfg, "--data", bad,
                   "--out", tmp_path / "o", "--jobs", 1, "--quiet") == 3

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_nan_data_is_3_with_one_message(self, tmp_path, capsys, command, jobs):
        cfg = write_config(tmp_path / "c.yaml")
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        lines = (data_dir / "dataset.csv").read_text().splitlines()
        fields = lines[5].split(",")
        fields[2] = "nan"
        lines[5] = ",".join(fields)
        (data_dir / "dataset.csv").write_text("\n".join(lines) + "\n")
        truth = ["--truth", data_dir / "truth.csv"] if command == "sweep" else []
        capsys.readouterr()
        assert run(command, "--config", cfg, "--data", data_dir / "dataset.csv",
                   *truth, "--out", tmp_path / "o", "--jobs", jobs, "--quiet") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "data error" in err[0] and "dataset.csv:6" in err[0]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_diverging_series_is_4_with_one_message(self, tmp_path, capfd, command, jobs):
        # series 2 at 1e200 scale overflows its own squared loss; the tanh
        # layer keeps the other series' fits finite
        cfg = write_config(tmp_path / "c.yaml", model={"hidden": [4]},
                           penalty={"lam": 1.0, "lambdas": [1.0]},
                           evaluation={"standardize": False})
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        ts = read_dataset_csv(data_dir / "dataset.csv")
        ts[:, 2] *= 1e200
        write_dataset_csv(data_dir / "dataset.csv", ts)
        truth = ["--truth", data_dir / "truth.csv"] if command == "sweep" else []
        out = tmp_path / "o"
        capfd.readouterr()
        assert run(command, "--config", cfg, "--data", data_dir / "dataset.csv",
                   *truth, "--out", out, "--jobs", jobs, "--quiet") == 4
        err = capfd.readouterr().err.splitlines()
        assert err == ["optimization error: series 2 at lambda 1: "
                       "non-finite objective at initialization"]
        assert not out.exists()

    @pytest.mark.parametrize("command,penalty", [
        ("fit", {"lam": -1.0}), ("fit", {"lam": float("nan")}),
        ("fit", {"lam": float("inf")}), ("sweep", {"lambdas": [1.0, 2.0]}),
        ("sweep", {"lambdas": [float("inf"), 1.0]})])
    def test_bad_penalty_is_config_error_2(self, tmp_path, capsys, command, penalty):
        cfg = write_config(tmp_path / "c.yaml", penalty=penalty)
        truth = ["--truth", tmp_path / "t.csv"] if command == "sweep" else []
        assert run(command, "--config", cfg, "--data", tmp_path / "d.csv", *truth,
                   "--out", tmp_path / "o", "--jobs", 1, "--quiet") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: penalty")

    def test_unbounded_penalty_scale_is_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", evaluation={"standardize": False})
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        ts = read_dataset_csv(data_dir / "dataset.csv")
        ts[:, 2] *= 1e200
        write_dataset_csv(data_dir / "dataset.csv", ts)
        capsys.readouterr()
        assert run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--truth", data_dir / "truth.csv", "--out", tmp_path / "o",
                   "--jobs", 1, "--quiet") == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "not finite" in err[0]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command,case", [
        ("fit", "short"), ("sweep", "short"), ("fit", "constant column"),
        ("sweep", "constant column"), ("fit", "overflowing mean"),
        ("sweep", "overflowing mean"), ("sweep", "constant data"),
        ("sweep", "unbounded scale")])
    def test_data_dependent_failure_is_3(self, tmp_path, capsys, command, case, jobs):
        ts, overrides, message = failing_dataset(case)
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        write_dataset_csv(tmp_path / "d.csv", ts)
        truth = tmp_path / "t.csv"
        truth.write_text("1,1,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
        truth = ["--truth", truth] if command == "sweep" else []
        out = tmp_path / "o"
        assert run(command, "--config", cfg, "--data", tmp_path / "d.csv", *truth,
                   "--out", out, "--jobs", jobs, "--quiet") == 3
        assert capsys.readouterr().err.splitlines() == [f"data error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_program_bug_is_not_a_data_error(self, tmp_path, capsys, monkeypatch, command):
        # a ValueError from inside the program is a bug: it surfaces as a
        # traceback, not as exit 3 with a "data error" line
        def broken_sweep(*args, **kwargs):
            raise ValueError("bug")

        cfg = write_config(tmp_path / "c.yaml")
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        monkeypatch.setattr(cli, "sweep_path", broken_sweep)
        truth = ["--truth", data_dir / "truth.csv"] if command == "sweep" else []
        capsys.readouterr()
        with pytest.raises(ValueError, match="bug"):
            run(command, "--config", cfg, "--data", data_dir / "dataset.csv", *truth,
                "--out", tmp_path / "o", "--jobs", 1, "--quiet")
        assert "data error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "fit", "sweep"])
    @pytest.mark.parametrize("overrides,seed,message", [
        ({"model": {"K": 0}}, [], "model: K must be >= 1, got 0"),
        ({"model": {"init_scale": -1.0}}, [],
         "model: init_scale must be finite and >= 0, got -1.0"),
        ({"generator": {"seed": -1}}, [], "seed must be a nonnegative integer, got -1"),
        ({}, ["--seed", -1], "seed must be a nonnegative integer, got -1"),
        # a fit would never return (inf), run to the cap (nan) or not run (0, -3)
        ({"optimizer": {"initial_step": float("inf")}}, [],
         "optimizer: initial_step must be finite and > 0, got inf"),
        ({"optimizer": {"rel_tol": float("nan")}}, [],
         "optimizer: rel_tol must be finite and > 0, got nan"),
        ({"optimizer": {"max_iters": 0}}, [], "optimizer: max_iters must be >= 1, got 0"),
        ({"optimizer": {"max_iters": -3}}, [], "optimizer: max_iters must be >= 1, got -3")])
    def test_bad_model_or_seed_is_config_error_2(self, tmp_path, capsys, command,
                                                  overrides, seed, message):
        cfg = write_config(tmp_path / "c.yaml", **overrides)
        data = [] if command == "simulate" else ["--data", tmp_path / "d.csv"]
        truth = ["--truth", tmp_path / "t.csv"] if command == "sweep" else []
        assert run(command, "--config", cfg, *data, *truth, *seed,
                   "--out", tmp_path / "o", "--quiet") == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("generator,message", [
        ({"T": 0}, "T must be >= 1, got 0"),
        ({"var": {"edge_prob": 2.0}}, "edge_prob must be in (0, 1], got 2.0"),
        ({"kind": "lorenz", "p": 3}, "p must be >= 4, got 3")])
    def test_bad_generator_setting_is_config_error_2(self, tmp_path, capsys,
                                                      generator, message):
        cfg = write_config(tmp_path / "c.yaml", generator=generator)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: generator: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["var", "lorenz"])
    @pytest.mark.parametrize("p", [0, -2])
    def test_nonpositive_p_names_the_setting(self, tmp_path, capsys, monkeypatch,
                                             kind, p):
        def unreachable(*args, **kwargs):
            raise AssertionError("the generator ran")

        monkeypatch.setattr("ngcausal.datasets.make_sparse_var", unreachable)
        cfg = write_config(tmp_path / "c.yaml", generator={"kind": kind, "p": p})
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: generator.p: must be >= 1, got {p}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("generator,message", [
        # generator.p alone sets the series count; resolved configs written
        # while var.p and lorenz.p were keys carry them
        ({"var": {"p": 50}}, "generator.var: unknown key(s) ['p']"),
        ({"kind": "lorenz", "lorenz": {"p": 50}}, "generator.lorenz: unknown key(s) ['p']"),
        ({"kind": "lorenz", "p": 10, "lorenz": {"F": 10.0}},
         "generator.lorenz: Lorenz trajectory diverged at step 153"),
        ({"var": {"K": 1, "noise_sigma": 1e12}},
         "generator.var: VAR trajectory left [-1e8, 1e8] or became non-finite at step 1"),
        ({"kind": "lorenz", "lorenz": {"F": float("nan")}},
         "generator: F must be finite, got nan"),
        ({"kind": "lorenz", "lorenz": {"dt": float("nan")}},
         "generator: dt must be finite and > 0, got nan"),
        ({"kind": "lorenz", "lorenz": {"noise_sigma": float("nan")}},
         "generator: noise_sigma must be finite and >= 0, got nan"),
        ({"kind": "lorenz", "lorenz": {"burn_in": -10}},
         "generator: burn_in must be >= 0, got -10"),
        ({"var": {"burn_in": -10}}, "generator: burn_in must be >= 0, got -10"),
        ({"var": {"K": 0}}, "generator: K must be >= 1, got 0"),
        ({"var": {"magnitude": float("nan")}},
         "generator: magnitude must be finite and > 0, got nan"),
        ({"var": {"noise_sigma": float("nan")}},
         "generator: noise_sigma must be finite and > 0, got nan"),
        # far beyond any address space: the allocator refuses it at once
        ({"p": 4, "T": 10 ** 12},
         "generator: Unable to allocate 29.1 TiB for an array with shape "
         "(1000000000050, 4) and data type float64")])
    def test_generator_error_names_its_section_2(self, tmp_path, capsys,
                                                 generator, message):
        cfg = write_config(tmp_path / "c.yaml", generator=generator)
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["backtracking", "backtrack_factor"])
    def test_removed_optimizer_key_is_2(self, tmp_path, capsys, key):
        # resolved configs written before these settings were deleted carry them
        cfg = write_config(tmp_path / "c.yaml", optimizer={key: True})
        assert run("simulate", "--config", cfg, "--out", tmp_path / "o", "--quiet") == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: optimizer: unknown key(s) ['{key}']"]

    def test_degenerate_truth_is_3(self, tmp_path):
        cfg = write_config(tmp_path / "c.yaml")
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        dense = tmp_path / "dense.csv"
        dense.write_text("\n".join(",".join("1" for _ in range(4)) for _ in range(4)) + "\n")
        assert run("sweep", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--truth", dense, "--out", tmp_path / "x", "--jobs", 1,
                   "--quiet") == 3
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_bad_jobs_is_usage_error_2(self, tmp_path, capsys, command, jobs):
        cfg = write_config(tmp_path / "c.yaml")
        truth = ["--truth", tmp_path / "t.csv"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc:
            run(command, "--config", cfg, "--data", tmp_path / "d.csv", *truth,
                "--out", tmp_path / "o", "--jobs", jobs, "--quiet")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "argument --jobs" in err
        assert not (tmp_path / "o").exists()


class TestCappedFitWarning:
    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_one_warning_line_even_when_quiet(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path / "c.yaml", penalty={"lam": 1.0},
                           optimizer={"max_iters": 2})
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        truth = ["--truth", data_dir / "truth.csv"] if command == "sweep" else []
        out = tmp_path / "o"
        capsys.readouterr()
        assert run(command, "--config", cfg, "--data", data_dir / "dataset.csv",
                   *truth, "--out", out, "--jobs", 1, "--quiet") == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        m = re.fullmatch(r"warning: (\d+) fit\(s\) stopped at max_iters=2 before "
                         r"converging; first at lambda (\S+), series (\d+)", err[0])
        assert m
        count, lam, series = int(m[1]), float(m[2]), int(m[3])
        if command == "fit":
            capped = [i for i in range(4) if not load_checkpoint(
                out / f"checkpoint_series_{i}.json")[1]["converged"]]
            assert (count, lam, series) == (len(capped), 1.0, capped[0])
            assert (out / "graph.csv").exists()
        else:
            lambdas = [float(l.split(",")[0])
                       for l in (out / "roc.csv").read_text().splitlines()[1:]]
            assert 1 <= count <= 4 * len(lambdas)
            assert any(abs(lam - x) <= 1e-5 * x for x in lambdas)
            assert (out / "auc.csv").exists()

    def test_no_warning_when_all_converge(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", penalty={"lam": 1.0})
        data_dir = tmp_path / "d"
        run("simulate", "--config", cfg, "--out", data_dir, "--quiet")
        capsys.readouterr()
        assert run("fit", "--config", cfg, "--data", data_dir / "dataset.csv",
                   "--out", tmp_path / "o", "--jobs", 1, "--quiet") == 0
        assert capsys.readouterr().err == ""

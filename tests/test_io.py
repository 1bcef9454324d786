import json
import os
import re
import warnings

import numpy as np
import pytest
import yaml

from ngcausal.io import (AUC_HEADER, ConfigError, DataError, ExperimentConfig,
                         config_from_dict, config_to_dict, load_checkpoint,
                         load_config, read_auc_csv, read_dataset_csv,
                         read_matrix_csv, save_checkpoint, save_config,
                         write_auc_csv, write_dataset_csv, write_matrix_csv)
from ngcausal.evaluation import lambda_grid
from ngcausal.model import Architecture, init_model, predict
from ngcausal.datasets import SeededRng


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_readme_config_block_is_the_defaults(self):
        # the README documents every setting with its default value
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme) as fh:
            text = fh.read()
        section = text.split("## Config file", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert config_from_dict(yaml.safe_load(block)) == ExperimentConfig()

    def test_model_defaults_are_the_architecture_defaults(self):
        assert ExperimentConfig().model.architecture() == Architecture()

    @pytest.mark.parametrize("text,value", [
        ("1e-6", 1e-6), ("5e2", 500.0), ("2E-3", 2e-3), ("+1e-6", 1e-6),
        ("1.0e5", 1e5), ("1.0e-5", 1e-5)])
    def test_exponent_float_is_a_number(self, tmp_path, text, value):
        # YAML 1.1 reads an exponent without a dot, or without a sign, as a string
        path = tmp_path / "cfg.yaml"
        path.write_text(f"optimizer: {{rel_tol: {text}}}\n")
        assert load_config(path).optimizer.rel_tol == value

    @pytest.mark.parametrize("text,message", [
        ("optimizer: {rel_tol: '1e-6'}", "optimizer: rel_tol must be a real number, got '1e-6'"),
        ("generator: {T: 1e3}", "generator: T must be an integer, got 1000.0")])
    def test_exponent_quoted_or_for_an_integer_is_rejected(self, tmp_path, text, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(text + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)

    def test_file_round_trip(self, tmp_path):
        cfg = ExperimentConfig()
        cfg.generator.kind = "lorenz"
        cfg.generator.p = 6
        cfg.model.hidden = (8, 4)
        cfg.penalty.kind = "hierarchical"
        cfg.penalty.lambdas = (10.0, 1.0, 0.1)
        cfg.optimizer.rel_tol = 1e-7
        cfg.evaluation.include_diagonal = False
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_partial_config_fills_defaults(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("generator:\n  kind: lorenz\n  p: 6\n")
        cfg = load_config(path)
        assert cfg.generator.kind == "lorenz"
        assert cfg.generator.p == 6
        assert cfg.model.K == 3  # untouched default

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("generator:\n  kindd: var\n")
        with pytest.raises(ConfigError, match="kindd"):
            load_config(path)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            config_from_dict({"mystery": {}})

    def test_unread_settings_removed(self):
        # nothing read evaluation.seeds or output.dir: --seed and --out set them
        with pytest.raises(ConfigError, match=r"unknown key\(s\) \['seeds'\]"):
            config_from_dict({"evaluation": {"seeds": [0, 1]}})
        with pytest.raises(ConfigError, match=r"^config: unknown key\(s\) \['output'\]$"):
            config_from_dict({"output": {"dir": "out"}})

    @pytest.mark.parametrize("data,message", [
        # the root is read like every section, and named "config"
        ([1, 2], "config: expected a mapping, got list"),
        ("text", "config: expected a mapping, got str"),
        ({"output": {}, "model": {}}, "config: unknown key(s) ['output']"),
        ({"generator": [1]}, "generator: expected a mapping, got list"),
        ({"generator": {"lorenz": 3}}, "generator.lorenz: expected a mapping, got int"),
        ({"generator": {"p": 0}}, "generator: p must be >= 1, got 0"),
        ({"generator": {"kind": "arma"}},
         "generator: unknown generator kind 'arma'; expected one of ('var', 'lorenz')"),
        # YAML keys of mixed types (1: and b:) are listed, not a TypeError
        ({1: {}, "b": {}}, "config: unknown key(s) [1, 'b']")])
    def test_every_level_read_by_one_reader(self, data, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(data)

    @pytest.mark.parametrize("size,ratio", [(1, 100.0), (0, 100.0), (20, 1.0),
                                            (20, float("nan")), (20, float("inf"))])
    def test_grid_shape_rule_shared_with_lambda_grid(self, size, ratio):
        with pytest.raises(ValueError) as direct:
            lambda_grid(1.0, size, ratio)
        with pytest.raises(ConfigError, match=f"^penalty: {re.escape(str(direct.value))}$"):
            config_from_dict({"penalty": {"grid_size": size, "grid_ratio": ratio}})

    def test_type_error_names_field(self):
        with pytest.raises(ConfigError, match="^generator: p must be an integer, got 'ten'$"):
            config_from_dict({"generator": {"p": "ten"}})

    def test_yaml_syntax_error_has_line(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("generator:\n  p: [unclosed\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError, match="^generator: unknown generator kind 'arma'"):
            config_from_dict({"generator": {"kind": "arma"}})
        with pytest.raises(ConfigError, match="^penalty: unknown penalty kind 'lasso'"):
            config_from_dict({"penalty": {"kind": "lasso"}})

    @pytest.mark.parametrize("data,message", [
        ({"evaluation": {"standardize": 1}},
         "evaluation: standardize must be true or false, got 1"),
        ({"generator": {"T": True}}, "generator: T must be an integer, got True"),
        ({"generator": {"T": 10.0}}, "generator: T must be an integer, got 10.0"),
        ({"optimizer": {"rel_tol": True}}, "optimizer: rel_tol must be a real number, got True"),
        ({"optimizer": {"rel_tol": "small"}},
         "optimizer: rel_tol must be a real number, got 'small'"),
        ({"generator": {"kind": 3}},
         "generator: unknown generator kind 3; expected one of ('var', 'lorenz')"),
        ({"model": {"hidden": [2, True]}}, "model: hidden sizes must be an integer, got True"),
        ({"penalty": {"lambdas": [1.0, "x"]}}, "penalty: lambda must be a real number, got 'x'")])
    def test_scalar_of_the_wrong_type_rejected(self, data, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(data)

    def test_integer_for_a_number_is_a_float(self):
        cfg = config_from_dict({"optimizer": {"initial_step": 1}, "penalty": {"lambdas": [2, 1]}})
        assert type(cfg.optimizer.initial_step) is float and cfg.optimizer.initial_step == 1.0
        assert [type(x) for x in cfg.penalty.lambdas] == [float, float]

    def test_optimizer_validation_surfaces_as_config_error(self):
        with pytest.raises(ConfigError, match="optimizer"):
            config_from_dict({"optimizer": {"initial_step": -1.0}})

    @pytest.mark.parametrize("penalty", [
        {"lam": -1.0}, {"lam": float("nan")}, {"lam": float("inf")},
        {"lambdas": [1.0, 2.0]}, {"lambdas": [1.0, 1.0]},
        {"lambdas": [float("inf"), 1.0]}, {"lambdas": [1.0, float("nan")]},
        {"lambdas": [1.0, -0.5]}, {"grid_size": 1}, {"grid_ratio": 1.0},
        {"grid_ratio": float("nan")}])
    def test_bad_penalty_values_rejected(self, penalty):
        with pytest.raises(ConfigError, match="penalty"):
            config_from_dict({"penalty": penalty})

    def test_edge_penalty_values_accepted(self):
        cfg = config_from_dict({"penalty": {"lam": 0.0, "lambdas": [1.0, 0.0],
                                            "grid_size": 2, "grid_ratio": 1.5}})
        assert cfg.penalty.lambdas == (1.0, 0.0)

    def test_generator_instance_uses_section_p(self):
        cfg = config_from_dict({"generator": {"kind": "lorenz", "p": 7}})
        assert cfg.generator.instance().p == 7


class TestCheckpoint:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        model = init_model(4, 3, Architecture(hidden_sizes=(6, 3), init_scale=1.0),
                           SeededRng(0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path, metadata={"lam": 0.5, "seed": 1})
        loaded, meta = load_checkpoint(path)
        assert meta["lam"] == 0.5
        assert np.array_equal(loaded.theta, model.theta)
        X = SeededRng(1).normal(size=(20, 12))
        assert np.array_equal(predict(loaded, X), predict(model, X))

    def test_preserves_architecture(self, tmp_path):
        # every field, init_scale included
        model = init_model(2, 2, Architecture(hidden_sizes=(), activation="relu",
                                              init_scale=1.0), SeededRng(3))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.arch == model.arch

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(DataError, match="JSON"):
            load_checkpoint(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 1, "p": 2}))
        with pytest.raises(DataError, match="malformed"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["hidden_sizes", "activation"])
    def test_missing_architecture_key_rejected(self, tmp_path, key):
        # only init_scale may be missing; the model has the defaults, so a
        # missing key read as its default would load
        path = tmp_path / "ckpt.json"
        save_checkpoint(init_model(2, 1, Architecture(), SeededRng(0)), path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="malformed checkpoint"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,n_theta", [
        ("hidden_sizes", [0], 1),       # theta of a zero-width layer: the output bias
        ("hidden_sizes", [2.5], 9),     # theta sized for width 2
        ("p", 2.5, 9),                  # theta sized for p=2
        ("hidden_sizes", [True], 5),    # theta sized for width 1
        ("p", True, 7)])                # theta sized for p=1
    def test_shape_architecture_rejects_is_data_error(self, tmp_path, key, value, n_theta):
        doc = {"format_version": 1, "p": 2, "K": 1, "hidden_sizes": [2],
               "activation": "tanh",
               "theta_hex": [(0.0).hex()] * n_theta, "metadata": {}}
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(f"{path}: malformed checkpoint")):
            load_checkpoint(path)

    def test_frozen_output_bias_flag_of_old_files_ignored(self, tmp_path):
        # version-1 files could freeze the output bias at 0.0 and had no
        # init_scale; such a file loads as the model it stored, at the default scale
        model = init_model(3, 2, Architecture(hidden_sizes=(4,), init_scale=1.0),
                           SeededRng(7))
        model.bias(0)[...] = SeededRng(8).normal(size=4)
        assert model.bias(1)[0] == 0.0
        doc = {"format_version": 1, "p": 3, "K": 2, "hidden_sizes": [4],
               "activation": "tanh", "use_output_bias": False,
               "theta_hex": [float(v).hex() for v in model.theta], "metadata": {}}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        loaded, _ = load_checkpoint(path)
        assert loaded.arch == Architecture(hidden_sizes=(4,))
        X = SeededRng(9).normal(size=(25, 6))
        assert predict(loaded, X).tobytes() == predict(model, X).tobytes()

    def test_written_keys(self, tmp_path):
        model = init_model(2, 1, Architecture(), SeededRng(0))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        assert sorted(json.loads(path.read_text())) == [
            "K", "activation", "format_version", "hidden_sizes", "init_scale",
            "metadata", "p", "theta_hex"]

    def test_deterministic_bytes(self, tmp_path):
        model = init_model(3, 2, Architecture(hidden_sizes=(4,)), SeededRng(5))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1, metadata={"seed": 5})
        save_checkpoint(model, p2, metadata={"seed": 5})
        assert p1.read_bytes() == p2.read_bytes()


class TestCsv:
    def test_dataset_round_trip(self, tmp_path):
        ts = SeededRng(0).normal(size=(40, 3))
        path = tmp_path / "data.csv"
        write_dataset_csv(path, ts)
        header = path.read_text().splitlines()[0]
        assert header == "t,s0,s1,s2"
        back = read_dataset_csv(path)
        assert np.array_equal(back, ts)  # 17 significant digits round-trip

    def test_matrix_round_trip(self, tmp_path):
        M = SeededRng(1).normal(size=(4, 4))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, M)
        assert np.array_equal(read_matrix_csv(path), M)

    def test_matrix_ints_mode(self, tmp_path):
        M = np.eye(3)
        path = tmp_path / "t.csv"
        write_matrix_csv(path, M, ints=True)
        assert path.read_text() == "1,0,0\n0,1,0\n0,0,1\n"

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_matrix_without_rows(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: no data rows$"):
                read_matrix_csv(path)
        assert caught == []

    def test_auc_csv_round_trip(self, tmp_path):
        path = tmp_path / "auc.csv"
        rows = [{"generator": "var", "T": 1000, "seed": 3, "penalty": "group",
                 "auc": 0.9573, "auc_excl_diag": 0.9111},
                {"generator": "lorenz", "T": 500, "seed": 0, "penalty": "hierarchical",
                 "auc": 0.5, "auc_excl_diag": float("nan")}]
        write_auc_csv(path, rows)
        back = read_auc_csv(path)
        assert back[0] == rows[0]
        assert back[1]["generator"] == "lorenz" and np.isnan(back[1]["auc_excl_diag"])
        assert len(back) == 2

    @pytest.mark.parametrize("line,message", [
        ("garbage line", ":3: expected 6 fields, got 1"),
        ("var,1000,3,group,0.9", ":3: expected 6 fields, got 5"),
        ("var,1e3,3,group,0.9,0.9", ":3: invalid literal"),
        ("var,1000,3,group,high,0.9", ":3: could not convert")])
    def test_auc_csv_malformed_row_names_its_line(self, tmp_path, line, message):
        path = tmp_path / "auc.csv"
        path.write_text("generator,T,seed,penalty,auc,auc_excl_diag\n"
                        f"var,1000,3,group,0.9,0.9\n{line}\n")
        with pytest.raises(DataError, match=message):
            read_auc_csv(path)

    def test_auc_csv_without_rows(self, tmp_path):
        path = tmp_path / "auc.csv"
        path.write_text("generator,T,seed,penalty,auc,auc_excl_diag\n\n")
        with pytest.raises(DataError, match="no data rows"):
            read_auc_csv(path)

    def test_config_yaml_is_plain_mapping(self, tmp_path):
        # serialized config must stay human-editable plain YAML
        cfg = ExperimentConfig()
        path = tmp_path / "c.yaml"
        save_config(cfg, path)
        raw = yaml.safe_load(path.read_text())
        assert isinstance(raw, dict)
        assert set(raw) == {"generator", "model", "penalty", "optimizer",
                            "evaluation"}
        assert raw["model"]["hidden"] == [10]


# each reader: its header line ("" for a bare matrix), one data row, and the
# values that row reads as
CSV_READERS = {
    "dataset": (read_dataset_csv, "t,s0,s1\n", "0,1.5,-2", [1.5, -2.0]),
    "matrix": (read_matrix_csv, "", "1,0,0.25", [1.0, 0.0, 0.25]),
    "auc": (read_auc_csv, AUC_HEADER + "\n", "var,1000,3,group,0.5,0.25",
            {"generator": "var", "T": 1000, "seed": 3, "penalty": "group",
             "auc": 0.5, "auc_excl_diag": 0.25}),
}


class TestCsvRules:
    """The rules every CSV reader shares (see the io module docstring)."""

    @pytest.fixture(params=sorted(CSV_READERS))
    def reader(self, request):
        return CSV_READERS[request.param]

    @staticmethod
    def message(path, rest):
        return f"^{re.escape(f'{path}{rest}')}$"

    def test_blank_and_whitespace_lines_skipped(self, tmp_path, reader):
        read, header, row, value = reader
        path = tmp_path / "f.csv"
        path.write_text(f" \n{header}{row}\n \n\t\n{row}\n \n")
        rows = read(path)
        assert (rows.tolist() if isinstance(rows, np.ndarray) else rows) == [value, value]

    def test_short_row_names_its_line(self, tmp_path, reader):
        read, header, row, _ = reader
        path = tmp_path / "f.csv"
        path.write_text(f"{header}{row}\n{row.rsplit(',', 1)[0]}\n")
        line, n = 3 if header else 2, row.count(",") + 1
        with pytest.raises(DataError, match=self.message(
                path, f":{line}: expected {n} fields, got {n - 1}")):
            read(path)

    def test_unparsable_value_names_its_line(self, tmp_path, reader):
        read, header, row, _ = reader
        path = tmp_path / "f.csv"
        path.write_text(f"{header}{row}\n{row.rsplit(',', 1)[0]},oops\n")
        line = 3 if header else 2
        with pytest.raises(DataError, match=self.message(
                path, f":{line}: could not convert string to float: 'oops'")):
            read(path)

    @pytest.mark.parametrize("body", ["", "\n", " \n\t\n"])
    def test_no_data_rows(self, tmp_path, reader, body):
        read, header, _, _ = reader
        for text in {body, header + body}:
            path = tmp_path / "f.csv"
            path.write_text(text)
            with pytest.raises(DataError, match=self.message(path, ": no data rows")):
                read(path)

    @pytest.mark.parametrize("kind", ["dataset", "auc"])
    def test_wrong_header_is_an_error(self, tmp_path, kind):
        read, header, row, _ = CSV_READERS[kind]
        path = tmp_path / "f.csv"
        path.write_text(f"x{header[1:]}{row}\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:1: expected header .* got 'x"):
            read(path)


class TestAtomicWrites:
    """Every writer renames a finished tmp file over its target."""

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.eye(3))
        before = path.read_bytes()
        # the third row fails to format after two rows have been written
        bad = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, "x"]], dtype=object)
        with pytest.raises(ValueError):
            write_matrix_csv(path, bad)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.csv"]

    def test_failed_checkpoint_keeps_earlier_file(self, tmp_path):
        model = init_model(3, 2, Architecture(hidden_sizes=(4,)), SeededRng(0))
        path = tmp_path / "ck.json"
        save_checkpoint(model, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_checkpoint(model, path, metadata={"bad": object()})
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ck.json"]

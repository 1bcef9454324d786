"""Config files, model checkpoints, and the CSV formats the CLI emits.

Formats (all deterministic byte streams given identical inputs, each written
to ``path + ".tmp"`` and renamed over ``path``, so no reader sees half a file):

* config        -- YAML with sections generator/model/penalty/optimizer/
                   evaluation; every tunable constant is visible here and
                   round-trips losslessly.
* checkpoint    -- versioned JSON; weights stored as C99 hex floats so a
                   reloaded model reproduces forward outputs bit-identically.
* dataset CSV   -- header ``t,s0,...,s{p-1}``, one row per time step;
                   every value must be finite.
* matrix CSV    -- bare p x p rows (truth graphs as 0/1, weight graphs and
                   lag profiles at 17 significant digits).
"""

import contextlib
import dataclasses
import json
import math
import os
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
import yaml

from .datasets import LorenzGenConfig, VarGenConfig
from .model import ComponentMLP, Architecture, _count
from .optim import OptimizerConfig
from .penalties import PenaltySpec


class ConfigError(Exception):
    """A config file is unreadable or a field is missing/ill-typed."""


class DataError(Exception):
    """A data file (dataset, truth, checkpoint, sweep output) is malformed."""


FLOAT_FMT = "{:.17g}"


@contextlib.contextmanager
def _atomic_open(path):
    """Write ``path + ".tmp"``, then rename it over ``path``; on error delete it."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ----------------------------------------------------------------- config


# generator.p sets the series count: the generators' own p is no config key
_NO_P = {"omit": ("p",)}


@dataclass
class GeneratorSection:
    kind: str = "var"
    p: int = 10
    T: int = 1000
    seed: int = 0
    var: VarGenConfig = field(default_factory=VarGenConfig, metadata=_NO_P)
    lorenz: LorenzGenConfig = field(default_factory=LorenzGenConfig, metadata=_NO_P)

    def instance(self):
        """The configured generator object (p copied into it)."""
        if self.kind == "var":
            return dataclasses.replace(self.var, p=self.p)
        return dataclasses.replace(self.lorenz, p=self.p)


@dataclass
class ModelSection:
    K: int = 3
    hidden: tuple = Architecture.hidden_sizes
    activation: str = Architecture.activation
    init_scale: float = Architecture.init_scale

    def __post_init__(self):
        _count("K", self.K)
        self.architecture()

    def architecture(self):
        return Architecture(self.hidden, self.activation, self.init_scale)


@dataclass
class PenaltySection:
    kind: str = "group"
    lam: float = 1.0
    grid_size: int = 20
    grid_ratio: float = 100.0
    lambdas: tuple = ()   # explicit descending grid; empty = derive from data

    def __post_init__(self):
        PenaltySpec(self.kind, self.lam)
        lams = self.lambdas
        if not all(math.isfinite(x) and x >= 0 for x in lams):
            raise ValueError(f"lambdas must be finite and >= 0, got {list(lams)}")
        if any(b >= a for a, b in zip(lams, lams[1:])):
            raise ValueError(f"lambdas must be strictly decreasing, got {list(lams)}")
        if self.grid_size < 2 or not self.grid_ratio > 1:
            raise ValueError("need grid_size >= 2 and grid_ratio > 1, got "
                             f"grid_size={self.grid_size}, grid_ratio={self.grid_ratio}")


@dataclass
class EvaluationSection:
    include_diagonal: bool = True
    standardize: bool = True


@dataclass
class ExperimentConfig:
    generator: GeneratorSection = field(default_factory=GeneratorSection)
    model: ModelSection = field(default_factory=ModelSection)
    penalty: PenaltySection = field(default_factory=PenaltySection)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)


# what each scalar type of a config field accepts, and its name in errors
_SCALARS = {bool: ((bool,), "true/false"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), str: ((str,), "a string")}


def _check_scalar(section, key, value, typ):
    accepted, expected = _SCALARS[typ]
    if not isinstance(value, accepted) or (typ is not bool and isinstance(value, bool)):
        raise ConfigError(f"{section}.{key}: expected {expected}, got {value!r}")
    return typ(value)


def _fill_dataclass(cls, data, section, omit=()):
    """An instance of cls from its config mapping; the fields named in
    ``omit`` are no keys and keep their defaults."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in omit}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {sorted(unknown)}")
    kwargs = {}
    proto = cls()
    for name, f in fields.items():
        if name not in data:
            continue
        value = data[name]
        default = getattr(proto, name)
        if dataclasses.is_dataclass(default):
            kwargs[name] = _fill_dataclass(type(default), value, f"{section}.{name}",
                                           f.metadata.get("omit", ()))
        elif isinstance(default, tuple):
            if value is None:
                kwargs[name] = ()
                continue
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{section}.{name}: expected a list, got {value!r}")
            elem = float if name == "lambdas" else int
            kwargs[name] = tuple(_check_scalar(section, f"{name}[]", v, elem) for v in value)
        else:
            kwargs[name] = _check_scalar(section, name, value, type(default))
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_from_dict(data):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root: expected a mapping, got {type(data).__name__}")
    known = {"generator", "model", "penalty", "optimizer", "evaluation"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"config root: unknown section(s) {sorted(unknown)}")
    cfg = ExperimentConfig(
        generator=_fill_dataclass(GeneratorSection, data.get("generator"), "generator"),
        model=_fill_dataclass(ModelSection, data.get("model"), "model"),
        penalty=_fill_dataclass(PenaltySection, data.get("penalty"), "penalty"),
        optimizer=_fill_dataclass(OptimizerConfig, data.get("optimizer"), "optimizer"),
        evaluation=_fill_dataclass(EvaluationSection, data.get("evaluation"), "evaluation"),
    )
    if cfg.generator.kind not in ("var", "lorenz"):
        raise ConfigError(f"generator.kind: expected 'var' or 'lorenz', got {cfg.generator.kind!r}")
    if cfg.generator.p < 1:
        raise ConfigError(f"generator.p: must be >= 1, got {cfg.generator.p}")
    return cfg


def config_to_dict(obj, omit=()):
    """Plain dicts and lists of a config (or any part of one), ready for YAML;
    the fields named in ``omit`` are left out."""
    if dataclasses.is_dataclass(obj):
        return {f.name: config_to_dict(getattr(obj, f.name), f.metadata.get("omit", ()))
                for f in dataclasses.fields(obj) if f.name not in omit}
    if isinstance(obj, tuple):
        return [config_to_dict(v) for v in obj]
    return obj


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats without a dot: 1e-6, 5e2, 2E-3."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9][0-9_]*(?:\.[0-9_]*)?[eE][-+]?[0-9]+$"), list("-+0123456789"))


def load_config(path):
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"{path}: invalid YAML{where}: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg, path):
    with _atomic_open(path) as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)


# -------------------------------------------------------------- checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(model, path, metadata=None):
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "p": model.p,
        "K": model.K,
        "hidden_sizes": list(model.arch.hidden_sizes),
        "activation": model.arch.activation,
        "theta_hex": [float(v).hex() for v in model.theta],
        "metadata": metadata or {},
    }
    with _atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid checkpoint JSON: {exc}") from exc
    try:
        if doc["format_version"] != CHECKPOINT_VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {doc['format_version']}")
        theta = np.array([float.fromhex(h) for h in doc["theta_hex"]])
        # older files' flag to freeze the output bias is ignored: a frozen
        # bias stayed exactly 0.0, so the loaded model predicts the same
        arch = Architecture(hidden_sizes=doc["hidden_sizes"], activation=doc["activation"])
        model = ComponentMLP(doc["p"], doc["K"], arch, theta=theta)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from exc
    return model, doc.get("metadata", {})


# -------------------------------------------------------------------- CSVs


def write_dataset_csv(path, ts):
    ts = np.asarray(ts)
    p = ts.shape[1]
    with _atomic_open(path) as fh:
        fh.write("t," + ",".join(f"s{j}" for j in range(p)) + "\n")
        for t, row in enumerate(ts):
            fh.write(str(t) + "," + ",".join(FLOAT_FMT.format(v) for v in row) + "\n")


def read_dataset_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or cols[0] != "t" or any(c != f"s{j}" for j, c in enumerate(cols[1:])):
            raise DataError(f"{path}: expected header 't,s0,...', got {header!r}")
        p = len(cols) - 1
        if p < 1:
            raise DataError(f"{path}: no series columns")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != p + 1:
                raise DataError(f"{path}:{lineno}: expected {p + 1} fields, got {len(parts)}")
            try:
                row = [float(v) for v in parts[1:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if not all(map(math.isfinite, row)):
                raise DataError(f"{path}:{lineno}: non-finite value")
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows)


def write_matrix_csv(path, M, ints=False):
    M = np.asarray(M)
    with _atomic_open(path) as fh:
        for row in M:
            if ints:
                fh.write(",".join(str(int(v)) for v in row) + "\n")
            else:
                fh.write(",".join(FLOAT_FMT.format(v) for v in row) + "\n")


def read_matrix_csv(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # numpy's "no data" warning
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        except UserWarning:
            raise DataError(f"{path}: no rows") from None
        except ValueError as exc:
            raise DataError(f"{path}: malformed matrix CSV: {exc}") from exc


def write_roc_csv(path, lambdas, rates):
    """Per-lambda operating points; rates is a list of (fpr, tpr)."""
    with _atomic_open(path) as fh:
        fh.write("lambda,fpr,tpr\n")
        for lam, (fpr, tpr) in zip(lambdas, rates):
            fh.write(f"{FLOAT_FMT.format(lam)},{FLOAT_FMT.format(fpr)},{FLOAT_FMT.format(tpr)}\n")


AUC_HEADER = "generator,T,seed,penalty,auc,auc_excl_diag"


def write_auc_csv(path, rows):
    """auc.csv rows, dicts as read_auc_csv returns them, under one header."""
    with _atomic_open(path) as fh:
        fh.write(AUC_HEADER + "\n")
        for r in rows:
            fh.write(f"{r['generator']},{r['T']},{r['seed']},{r['penalty']},"
                     f"{FLOAT_FMT.format(r['auc'])},{FLOAT_FMT.format(r['auc_excl_diag'])}\n")


def read_auc_csv(path):
    """Every row of an auc.csv, as dicts; a malformed row is a DataError."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != AUC_HEADER:
            raise DataError(f"{path}: expected header {AUC_HEADER!r}, got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            try:
                rows.append({"generator": parts[0], "T": int(parts[1]),
                             "seed": int(parts[2]), "penalty": parts[3],
                             "auc": float(parts[4]), "auc_excl_diag": float(parts[5])})
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: missing data row")
    return rows


def write_edges_csv(path, lambdas, active_edges, active_lag_pairs):
    with _atomic_open(path) as fh:
        fh.write("lambda,active_edges,active_lag_pairs\n")
        for lam, e, q in zip(lambdas, active_edges, active_lag_pairs):
            fh.write(f"{FLOAT_FMT.format(lam)},{int(e)},{int(q)}\n")

"""Config files, model checkpoints, and the CSV tables the CLI reads and writes.

Formats (all deterministic byte streams given identical inputs, each written
to ``path + ".tmp"`` and renamed over ``path``, so no reader sees half a file):

* config        -- YAML with sections generator/model/penalty/optimizer/
                   evaluation, read at every level by one reader that judges
                   only its shape (errors name the section, ``config`` at
                   the root); each value is checked once, at load, by its
                   owning class (``VarGenConfig``, ``PenaltySpec``, ...);
                   every tunable constant is visible here and round-trips
                   losslessly.
* checkpoint    -- versioned JSON; every ``Architecture`` field, and weights
                   stored as C99 hex floats so a reloaded model reproduces
                   forward outputs bit-identically.
* dataset CSV   -- header ``t,s0,...,s{p-1}``, one row per time step;
                   every value must be finite.
* matrix CSV    -- bare p x p rows (truth graphs as 0/1, weight graphs and
                   lag profiles at 17 significant digits).
* roc, edges and auc CSVs -- one header line, then one row per lambda
                   (roc, edges) or per sweep (auc).

Every CSV is read by one set of rules: blank and whitespace-only lines are
skipped; every row has the header's field count (a matrix: its first row's);
a short row or a bad value is a ``DataError`` naming ``<path>:<line>``; and a
file without data rows is the ``DataError`` ``<path>: no data rows``.
``DataError`` is the library's one error for unusable data (``model.py``).
"""

import contextlib
import dataclasses
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .datasets import LorenzGenConfig, VarGenConfig, _var_rows
from .evaluation import _grid_shape
from .model import ComponentMLP, Architecture, DataError, _count
from .optim import OptimizerConfig
from .penalties import PenaltySpec, penalty_path


class ConfigError(Exception):
    """A config file is unreadable or a field is missing/ill-typed."""


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

    def __post_init__(self):
        kinds = ("var", "lorenz")
        if self.kind not in kinds:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {kinds}")
        self.p, self.T = _count("p", self.p), _count("T", self.T)
        self.seed = _count("seed", self.seed, least=0)
        self.instance()  # p as the chosen generator takes it
        if self.kind == "var":
            _var_rows(self.T, self.var.burn_in, self.var.K)  # simulate_var's rule

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
        self.K = _count("K", self.K)
        self.init_scale = self.architecture().init_scale

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
        self.lam = PenaltySpec(self.kind, self.lam).lam
        if self.lambdas:
            self.lambdas = tuple(spec.lam for spec in penalty_path(self.kind, self.lambdas)[1])
        self.grid_size, self.grid_ratio = _grid_shape(self.grid_size, self.grid_ratio)


@dataclass
class EvaluationSection:
    include_diagonal: bool = True
    standardize: bool = True

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got {value!r}")


@dataclass
class ExperimentConfig:
    generator: GeneratorSection = field(default_factory=GeneratorSection)
    model: ModelSection = field(default_factory=ModelSection)
    penalty: PenaltySection = field(default_factory=PenaltySection)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)


def _fill_dataclass(cls, data, keys=(), omit=()):
    """An instance of cls from its config mapping under ``keys``, the section
    errors name (the root: ``config``); fields in ``omit`` keep their defaults.
    Values pass to cls unchanged, a list as a tuple: cls judges them."""
    section = ".".join(keys) or "config"
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{section}: expected a mapping, got {type(data).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in omit}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"{section}: unknown key(s) {sorted(unknown, key=str)}")
    kwargs = {}
    for name, value in data.items():
        f = fields[name]
        if dataclasses.is_dataclass(f.type):
            value = _fill_dataclass(f.type, value, (*keys, name), f.metadata.get("omit", ()))
        elif f.type is tuple:
            if value is not None and not isinstance(value, (list, tuple)):
                raise ConfigError(f"{section}.{name}: expected a list, got {value!r}")
            value = tuple(value or ())
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def config_from_dict(data):
    return _fill_dataclass(ExperimentConfig, data)


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
        **dataclasses.asdict(model.arch),
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
        version = doc["format_version"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from exc
    if version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    try:
        theta = np.array([float.fromhex(h) for h in doc["theta_hex"]])
        # every Architecture field is required but init_scale, which older
        # files lack (they load with the default); their flag to freeze the
        # output bias is ignored (a frozen bias stayed exactly 0.0)
        arch = Architecture(**{f.name: doc[f.name] for f in dataclasses.fields(Architecture)
                               if f.name in doc or f.name != "init_scale"})
        model = ComponentMLP(doc["p"], doc["K"], arch, theta=theta)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from exc
    return model, doc.get("metadata", {})


# -------------------------------------------------------------------- CSVs


def _write_csv(path, header, fmt, rows):
    """``header`` (None: no header line), then ``fmt.format(*row)`` per row."""
    fmt += "\n"
    with _atomic_open(path) as fh:
        if header is not None:
            fh.write(header + "\n")
        for row in rows:
            fh.write(fmt.format(*row))


def _read_csv(path, header, parse):
    """``parse(fields)`` of every row, under the CSV rules of the module
    docstring.  ``header(fields)`` checks the first non-blank line, or is None
    for a headerless matrix; ``header`` and ``parse`` raise ValueError on bad
    input."""
    rows, width = [], None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                if width is None:
                    width = len(fields)
                    if header is not None:
                        header(fields)
                        continue
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                rows.append(parse(fields))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def write_dataset_csv(path, ts):
    ts = np.asarray(ts)
    p = ts.shape[1]
    _write_csv(path, "t," + ",".join(f"s{j}" for j in range(p)), "{}" + f",{FLOAT_FMT}" * p,
               ((t, *row.tolist()) for t, row in enumerate(ts)))


def _dataset_header(fields):
    if len(fields) < 2 or fields != ["t"] + [f"s{j}" for j in range(len(fields) - 1)]:
        raise ValueError(f"expected header 't,s0,...', got {','.join(fields)!r}")


def _dataset_row(fields):
    row = [float(v) for v in fields[1:]]
    if not all(map(math.isfinite, row)):
        raise ValueError("non-finite value")
    return row


def read_dataset_csv(path):
    return np.asarray(_read_csv(path, _dataset_header, _dataset_row))


def write_matrix_csv(path, M, ints=False):
    M = np.asarray(M)
    if ints:
        M = M.astype(np.int64)
    _write_csv(path, None, ",".join(["{:d}" if ints else FLOAT_FMT] * M.shape[1]),
               (row.tolist() for row in M))


def read_matrix_csv(path):
    return np.asarray(_read_csv(path, None, lambda fields: [float(v) for v in fields]))


def write_roc_csv(path, lambdas, rates):
    """Per-lambda operating points; rates is a list of (fpr, tpr)."""
    _write_csv(path, "lambda,fpr,tpr", f"{FLOAT_FMT},{FLOAT_FMT},{FLOAT_FMT}",
               ((lam, fpr, tpr) for lam, (fpr, tpr) in zip(lambdas, rates)))


# auc.csv's columns, in file order, with the type each is read as
AUC_COLUMNS = (("generator", str), ("T", int), ("seed", int), ("penalty", str),
               ("auc", float), ("auc_excl_diag", float))
AUC_HEADER = ",".join(name for name, _ in AUC_COLUMNS)


def write_auc_csv(path, rows):
    """auc.csv rows, dicts as read_auc_csv returns them, under one header."""
    fmt = ",".join(FLOAT_FMT if typ is float else "{}" for _, typ in AUC_COLUMNS)
    _write_csv(path, AUC_HEADER, fmt, ([r[name] for name, _ in AUC_COLUMNS] for r in rows))


def _auc_header(fields):
    if ",".join(fields) != AUC_HEADER:
        raise ValueError(f"expected header {AUC_HEADER!r}, got {','.join(fields)!r}")


def read_auc_csv(path):
    """Every row of an auc.csv, as dicts; a malformed row is a DataError."""
    return _read_csv(path, _auc_header, lambda fields: {
        name: typ(v) for (name, typ), v in zip(AUC_COLUMNS, fields)})


def write_edges_csv(path, lambdas, active_edges, active_lag_pairs):
    _write_csv(path, "lambda,active_edges,active_lag_pairs", FLOAT_FMT + ",{:d},{:d}",
               zip(lambdas, active_edges, active_lag_pairs))

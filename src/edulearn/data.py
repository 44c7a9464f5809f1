"""CSV ingestion, categorical encoding, seeded splitting, and standardization.

Schema files are JSON documents (``schema_version`` 1) listing columns in
order::

    {
      "schema_version": 1,
      "columns": [
        {"name": "age", "kind": "numeric"},
        {"name": "color", "kind": "categorical", "allowed_values": ["red", "blue"]},
        {"name": "id", "kind": "skip"},
        {"name": "Target", "kind": "target", "allowed_values": ["A", "B"]}
      ]
    }

Column kinds: ``numeric`` (parsed as float), ``categorical`` (one-hot
encoded, one output column per allowed or observed value), ``target``
(mapped to class indices), and ``skip`` (present in the file, excluded from
features — e.g. row ids). Categorical values without an ``allowed_values``
list are encoded in first-appearance order. Missing cells are an error, not
imputed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    LabelError,
    ParameterError,
    ParseError,
    SchemaError,
    SplitError,
)
from .numcore import DenseMatrix, DenseVector, as_matrix

SCHEMA_VERSION = 1
COLUMN_KINDS = ("numeric", "categorical", "target", "skip")

__all__ = [
    "SCHEMA_VERSION",
    "ColumnSchema",
    "Dataset",
    "ScalerParams",
    "SplitSpec",
    "schema_to_doc",
    "schema_from_doc",
    "read_json",
    "read_schema",
    "write_schema",
    "load_csv",
    "resolved_schema",
    "split",
    "fit_scaler",
    "transform",
    "inverse_transform",
]


@dataclass(frozen=True)
class ColumnSchema:
    """One column of a CSV file: its name, kind, and (optionally) value set."""

    name: str
    kind: str
    allowed_values: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise SchemaError(f"column '{self.name}': unknown kind '{self.kind}'")
        if self.allowed_values is not None:
            object.__setattr__(self, "allowed_values", tuple(self.allowed_values))
            if self.kind not in ("categorical", "target"):
                raise SchemaError(
                    f"column '{self.name}': allowed_values only apply to categorical/target columns"
                )
            if len(self.allowed_values) == 0:
                raise SchemaError(f"column '{self.name}': allowed_values must be non-empty")
            if len(set(self.allowed_values)) != len(self.allowed_values):
                raise SchemaError(f"column '{self.name}': allowed_values contains duplicates")


def _check_columns(columns: list[ColumnSchema]) -> None:
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise SchemaError("schema has duplicate column names")
    n_targets = sum(1 for c in columns if c.kind == "target")
    if n_targets != 1:
        raise SchemaError(f"schema must have exactly one target column, found {n_targets}")


@dataclass(frozen=True)
class Dataset:
    """Encoded feature matrix plus class-index targets and naming metadata.

    Unlabeled datasets (prediction inputs loaded with ``require_target=False``)
    carry empty targets; labeled datasets have one target per feature row.
    """

    features: DenseMatrix
    targets: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    n_raw_columns: int

    def __post_init__(self):
        targets = np.array(self.targets, dtype=np.int64)
        targets.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if self.targets.size and self.features.rows != self.targets.shape[0]:
            raise DimensionError(
                f"dataset has {self.features.rows} feature rows but {self.targets.shape[0]} targets"
            )
        if len(self.feature_names) != self.features.cols:
            raise DimensionError(
                f"dataset has {self.features.cols} feature columns but "
                f"{len(self.feature_names)} feature names"
            )
        if self.targets.size and (
            self.targets.min() < 0 or self.targets.max() >= len(self.class_names)
        ):
            raise LabelError("target index outside [0, n_classes)")

    @property
    def n_rows(self) -> int:
        return self.features.rows

    @property
    def labeled(self) -> bool:
        return self.targets.size == self.features.rows and self.features.rows > 0


@dataclass(frozen=True)
class ScalerParams:
    """Per-column means and standard deviations fit on training rows."""

    means: DenseVector
    stds: DenseVector

    def __post_init__(self):
        if len(self.means) != len(self.stds):
            raise DimensionError("scaler means and stds have different lengths")
        if np.any(self.stds.values <= 0.0):
            raise ParameterError("scaler stds must be strictly positive")


@dataclass(frozen=True)
class SplitSpec:
    """Train fraction and permutation seed for a train/test split."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise ParameterError(f"train_fraction must be in (0,1), got {self.train_fraction}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


def schema_to_doc(columns: list[ColumnSchema]) -> dict:
    """The versioned schema document of ``columns`` (format in the module docstring)."""
    _check_columns(columns)
    doc = {"schema_version": SCHEMA_VERSION, "columns": []}
    for c in columns:
        entry: dict = {"name": c.name, "kind": c.kind}
        if c.allowed_values is not None:
            entry["allowed_values"] = list(c.allowed_values)
        doc["columns"].append(entry)
    return doc


def schema_from_doc(doc) -> list[ColumnSchema]:
    """Parse and validate a schema document; the inverse of schema_to_doc."""
    if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema document (want schema_version {SCHEMA_VERSION})")
    entries = doc.get("columns", [])
    if not isinstance(entries, list):
        raise SchemaError("schema document: 'columns' must be a list")
    columns = []
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("kind"), str)
        ):
            raise SchemaError(f"schema document: column {i} needs a string 'name' and 'kind'")
        allowed = entry.get("allowed_values")
        if allowed is not None and not (
            isinstance(allowed, list) and all(isinstance(v, str) for v in allowed)
        ):
            raise SchemaError(f"column '{entry['name']}': allowed_values must be a list of strings")
        columns.append(ColumnSchema(entry["name"], entry["kind"], allowed))
    _check_columns(columns)
    return columns


def read_json(path):
    """Parse a JSON file. Text that is not JSON is a SchemaError; a file that
    cannot be opened stays an OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: not a JSON document ({exc})") from None


def write_schema(path, columns: list[ColumnSchema]) -> None:
    """Write the schema document of ``columns`` to ``path``."""
    doc = schema_to_doc(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_schema(path) -> list[ColumnSchema]:
    """Read and validate a schema document."""
    return schema_from_doc(read_json(path))


def _parse_numeric(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"row {row}, column '{column}': cannot parse '{cell}' as a number") from None
    if not math.isfinite(value):
        raise ParseError(f"row {row}, column '{column}': non-finite value '{cell}'")
    return value


def _encode_columns(
    columns: list[ColumnSchema],
    raw: dict[str, list[str]],
    n_rows: int,
    has_target: bool,
) -> Dataset:
    """Turn per-column cell strings into an encoded Dataset.

    Feature columns appear in schema order; each categorical expands in place
    into one indicator column per category.
    """
    blocks: list[np.ndarray] = []
    feature_names: list[str] = []
    n_raw = 0
    targets = np.zeros(n_rows, dtype=np.int64)
    class_names: tuple[str, ...] = ()

    for col in columns:
        if col.kind == "skip":
            continue
        if col.kind == "numeric":
            n_raw += 1
            cells = raw[col.name]
            values = np.empty(n_rows)
            for i, cell in enumerate(cells):
                values[i] = _parse_numeric(cell, i + 1, col.name)
            blocks.append(values[:, None])
            feature_names.append(col.name)
        elif col.kind == "categorical":
            n_raw += 1
            cells = raw[col.name]
            if col.allowed_values is not None:
                categories = list(col.allowed_values)
                allowed = set(categories)
                for i, cell in enumerate(cells):
                    if cell not in allowed:
                        raise LabelError(
                            f"row {i + 1}, column '{col.name}': value '{cell}' not in allowed_values"
                        )
            else:
                categories = []
                seen = set()
                for cell in cells:
                    if cell not in seen:
                        seen.add(cell)
                        categories.append(cell)
            index = {v: k for k, v in enumerate(categories)}
            onehot = np.zeros((n_rows, len(categories)))
            for i, cell in enumerate(cells):
                onehot[i, index[cell]] = 1.0
            blocks.append(onehot)
            feature_names.extend(f"{col.name}={v}" for v in categories)
        elif col.kind == "target":
            if not has_target:
                continue
            cells = raw[col.name]
            if col.allowed_values is not None:
                names = list(col.allowed_values)
            else:
                names = []
                seen = set()
                for cell in cells:
                    if cell not in seen:
                        seen.add(cell)
                        names.append(cell)
            index = {v: k for k, v in enumerate(names)}
            for i, cell in enumerate(cells):
                if cell not in index:
                    raise LabelError(
                        f"row {i + 1}, target '{col.name}': value '{cell}' not in allowed_values"
                    )
                targets[i] = index[cell]
            class_names = tuple(names)

    if not has_target:
        target_col = next(c for c in columns if c.kind == "target")
        class_names = target_col.allowed_values or ()
        targets = np.zeros(0, dtype=np.int64)

    features = np.hstack(blocks) if blocks else np.zeros((n_rows, 0))
    return Dataset(
        features=DenseMatrix(features),
        targets=targets,
        feature_names=tuple(feature_names),
        class_names=class_names,
        n_raw_columns=n_raw,
    )


def load_csv(path, columns: list[ColumnSchema], require_target: bool = True) -> Dataset:
    """Load an RFC-4180-style CSV file against a column schema.

    The header must match the schema names exactly (order-insensitive).
    With ``require_target=False`` the target column may be absent (for
    prediction inputs); the returned dataset then has zero-length targets.
    """
    _check_columns(columns)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        rows = list(reader)

    target_name = next(c.name for c in columns if c.kind == "target")
    expected = {c.name for c in columns}
    got = set(header)
    if len(got) != len(header):
        raise SchemaError(f"{path}: duplicate column in header")
    has_target = target_name in got
    missing = expected - got
    if not require_target:
        missing.discard(target_name)
    if missing:
        raise SchemaError(f"{path}: missing column '{sorted(missing)[0]}'")
    extra = got - expected
    if extra:
        raise SchemaError(f"{path}: unexpected column '{sorted(extra)[0]}'")
    if require_target and not has_target:
        raise SchemaError(f"{path}: missing column '{target_name}'")

    positions = {name: i for i, name in enumerate(header)}
    raw: dict[str, list[str]] = {name: [] for name in header}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {i + 1} has {len(row)} values, expected {len(header)}"
            )
        for name, pos in positions.items():
            raw[name].append(row[pos])

    return _encode_columns(columns, raw, len(rows), has_target)


def resolved_schema(columns: list[ColumnSchema], ds: Dataset) -> list[ColumnSchema]:
    """Pin open categorical/target value sets to the orders a load observed.

    Categorical columns without allowed_values get them filled from the
    dataset's encoded feature names (walked in schema order), and the target
    gets the dataset's class names. Saving the resolved schema with a model
    keeps one-hot column order stable for later prediction inputs.
    """
    out: list[ColumnSchema] = []
    pos = 0
    for col in columns:
        if col.kind == "numeric":
            pos += 1
            out.append(col)
        elif col.kind == "categorical":
            prefix = f"{col.name}="
            values = []
            while pos < len(ds.feature_names) and ds.feature_names[pos].startswith(prefix):
                values.append(ds.feature_names[pos][len(prefix):])
                pos += 1
            out.append(replace(col, allowed_values=tuple(values)))
        elif col.kind == "target":
            out.append(replace(col, allowed_values=tuple(ds.class_names)))
        else:
            out.append(col)
    return out


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded uniform row split; train size is round-half-up of rows*fraction."""
    n = ds.n_rows
    if n < 2:
        raise SplitError(f"need at least 2 rows to split, got {n}")
    n_train = math.floor(n * spec.train_fraction + 0.5)
    if n_train < 1 or n - n_train < 1:
        raise SplitError(
            f"split of {n} rows at fraction {spec.train_fraction} leaves an empty side"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    return _take(ds, perm[:n_train]), _take(ds, perm[n_train:])


def _take(ds: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(
        features=DenseMatrix(ds.features.values[idx]),
        targets=ds.targets[idx],
        feature_names=ds.feature_names,
        class_names=ds.class_names,
        n_raw_columns=ds.n_raw_columns,
    )


def fit_scaler(x) -> ScalerParams:
    """Per-column mean and population standard deviation (divide by n).

    Columns with std below 1e-12 (constant columns) get std clamped to 1 so
    the transform is a pure centering for them.
    """
    xm = as_matrix(x)
    if xm.shape[0] < 1:
        raise DimensionError("fit_scaler needs at least one row")
    means = xm.mean(axis=0)
    stds = np.sqrt(np.mean((xm - means) ** 2, axis=0))
    stds = np.where(stds < 1e-12, 1.0, stds)
    return ScalerParams(means=DenseVector(means), stds=DenseVector(stds))


def transform(params: ScalerParams, x) -> DenseMatrix:
    """Apply (value - mean) / std columnwise."""
    xm = as_matrix(x)
    if xm.shape[1] != len(params.means):
        raise DimensionError(
            f"transform: {xm.shape[1]} columns but scaler was fit on {len(params.means)}"
        )
    return DenseMatrix((xm - params.means.values) / params.stds.values)


def inverse_transform(params: ScalerParams, x) -> DenseMatrix:
    """Undo transform: value * std + mean columnwise."""
    xm = as_matrix(x)
    if xm.shape[1] != len(params.means):
        raise DimensionError(
            f"inverse_transform: {xm.shape[1]} columns but scaler was fit on {len(params.means)}"
        )
    return DenseMatrix(xm * params.stds.values + params.means.values)

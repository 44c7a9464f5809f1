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
from itertools import repeat

import numpy as np

from .errors import (
    DegenerateDataError,
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
    "encode_columns",
    "load_csv",
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
            # predictions.csv holds the class names, and csv.writer (with
            # lineterminator "\n") can leave a CR that no LF follows unquoted:
            # csv.reader then ends the row at it
            if self.kind == "target":
                for v in self.allowed_values:
                    if "\r" in v.replace("\r\n", ""):
                        raise SchemaError(
                            f"column '{self.name}': class name {v!r} holds a lone carriage return"
                        )


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
    ``columns`` is the schema the data was encoded against, with every open
    categorical and target value set pinned to the order the data showed.
    Saving it with a model keeps the one-hot column order of later
    prediction inputs the same.
    """

    features: DenseMatrix
    targets: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    columns: tuple[ColumnSchema, ...]

    def __post_init__(self):
        targets = np.array(self.targets, dtype=np.int64)
        targets.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "columns", tuple(self.columns))
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


def read_schema(path) -> list[ColumnSchema]:
    """Read and validate a schema document."""
    return schema_from_doc(read_json(path))


def _parse_numeric(cells, column: str) -> np.ndarray:
    """One numeric column as floats; the first cell that is not a finite
    number is a ParseError naming its row."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    for i, cell in enumerate(cells):
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"row {i + 1}, column '{column}': cannot parse '{cell}' as a number"
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"row {i + 1}, column '{column}': non-finite value '{cell}'")


def _category_codes(col: ColumnSchema, cells) -> tuple[np.ndarray, tuple[str, ...]]:
    """Category index of every cell, and the categories: the column's
    allowed_values, or its distinct cells in first-appearance order.

    Cells are compared as Python strings (an object array), so a cell such as
    'yes\\x00' stays distinct from 'yes'.
    """
    cells = np.asarray(cells, dtype=object)
    categories = tuple(col.allowed_values or dict.fromkeys(cells))
    index = {v: k for k, v in enumerate(categories)}
    codes = np.fromiter(map(index.get, cells, repeat(-1)), np.int64, len(cells))
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        where = "target" if col.kind == "target" else "column"
        raise LabelError(
            f"row {bad[0] + 1}, {where} '{col.name}': value '{cells[bad[0]]}' not in allowed_values"
        )
    return codes, categories


def encode_columns(columns: list[ColumnSchema], cells, require_target: bool = True) -> Dataset:
    """Encode typed columns into a Dataset.

    ``cells`` maps column names to equal-length sequences: floats for numeric
    columns, strings for categorical and target columns; skip columns and
    other names are ignored. Feature columns appear in schema order; each
    categorical expands in place into one indicator column per category.
    With ``require_target=False`` the target may be absent; the dataset then
    has zero-length targets.
    """
    _check_columns(columns)
    target = next(c for c in columns if c.kind == "target")
    features = [c for c in columns if c.kind in ("numeric", "categorical")]
    missing = [c.name for c in features if c.name not in cells]
    if require_target and target.name not in cells:
        missing.append(target.name)
    if missing:
        raise SchemaError(f"no cells for column '{missing[0]}'")
    lengths = {len(v) for v in cells.values()}
    if len(lengths) > 1:
        raise DimensionError(f"columns have different lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0

    blocks: list[np.ndarray] = []
    feature_names: list[str] = []
    resolved: list[ColumnSchema] = []
    targets, class_names = np.zeros(0, dtype=np.int64), target.allowed_values or ()
    for col in columns:
        if col.kind == "numeric":
            blocks.append(np.asarray(cells[col.name], dtype=np.float64).reshape(n_rows, 1))
            feature_names.append(col.name)
        elif col.kind == "categorical":
            codes, categories = _category_codes(col, cells[col.name])
            blocks.append(np.eye(len(categories))[codes])
            feature_names.extend(f"{col.name}={v}" for v in categories)
            col = replace(col, allowed_values=categories or None)
        elif col.kind == "target" and col.name in cells:
            targets, class_names = _category_codes(col, cells[col.name])
            col = replace(col, allowed_values=class_names or None)
        resolved.append(col)
    return Dataset(
        features=DenseMatrix(np.hstack(blocks) if blocks else np.zeros((n_rows, 0))),
        targets=targets,
        feature_names=tuple(feature_names),
        class_names=class_names,
        columns=tuple(resolved),
    )


def load_csv(path, columns: list[ColumnSchema], require_target: bool = True) -> Dataset:
    """Load an RFC-4180-style CSV file against a column schema.

    The header must match the schema names exactly (order-insensitive).
    With ``require_target=False`` the target column may be absent (for
    prediction inputs); the returned dataset then has zero-length targets.
    Text that is not UTF-8, or that csv.reader rejects (say a cell over its
    field size limit), is a ParseError naming the line.
    """
    _check_columns(columns)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 after line {reader.line_num} ({exc.reason})"
            ) from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None

    target_name = next(c.name for c in columns if c.kind == "target")
    expected = {c.name for c in columns}
    got = set(header)
    if len(got) != len(header):
        raise SchemaError(f"{path}: duplicate column in header")
    missing = expected - got
    if not require_target:
        missing.discard(target_name)
    if missing:
        raise SchemaError(f"{path}: missing column '{sorted(missing)[0]}'")
    extra = got - expected
    if extra:
        raise SchemaError(f"{path}: unexpected column '{sorted(extra)[0]}'")

    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {i + 1} has {len(row)} values, expected {len(header)}"
            )
    cells = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    for col in columns:
        if col.kind == "numeric":
            cells[col.name] = _parse_numeric(cells[col.name], col.name)
    return encode_columns(columns, cells, require_target)


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
        columns=ds.columns,
    )


def fit_scaler(x) -> ScalerParams:
    """Per-column mean and population standard deviation (divide by n).

    Columns with std below 1e-12 (constant columns) get std clamped to 1 so
    the transform is a pure centering for them.
    """
    xm = as_matrix(x)
    if xm.shape[0] < 1:
        raise DimensionError("fit_scaler needs at least one row")
    with np.errstate(over="ignore", invalid="ignore"):
        means = xm.mean(axis=0)
        stds = np.sqrt(np.mean((xm - means) ** 2, axis=0))
    bad = np.flatnonzero(~np.isfinite(stds))  # a non-finite mean leaves its std non-finite
    if bad.size:
        raise DegenerateDataError(
            f"fit_scaler: feature column {bad[0] + 1} is too large to standardize in float64"
        )
    stds = np.where(stds < 1e-12, 1.0, stds)
    return ScalerParams(means=DenseVector(means), stds=DenseVector(stds))


def transform(params: ScalerParams, x) -> DenseMatrix:
    """Apply (value - mean) / std columnwise."""
    xm = as_matrix(x)
    if xm.shape[1] != len(params.means):
        raise DimensionError(
            f"transform: {xm.shape[1]} columns but scaler was fit on {len(params.means)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = (xm - params.means.values) / params.stds.values
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        raise DegenerateDataError(
            f"transform: row {bad[0][0] + 1}, feature column {bad[0][1] + 1} "
            "is too large to standardize in float64"
        )
    return DenseMatrix(out)


def inverse_transform(params: ScalerParams, x) -> DenseMatrix:
    """Undo transform: value * std + mean columnwise."""
    xm = as_matrix(x)
    if xm.shape[1] != len(params.means):
        raise DimensionError(
            f"inverse_transform: {xm.shape[1]} columns but scaler was fit on {len(params.means)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = xm * params.stds.values + params.means.values
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        raise DegenerateDataError(
            f"inverse_transform: row {bad[0][0] + 1}, feature column {bad[0][1] + 1} "
            "overflows float64"
        )
    return DenseMatrix(out)

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
from itertools import chain, islice, repeat

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


def _parse_numeric(cells, column: str, path, row0: int) -> np.ndarray:
    """One chunk of a numeric column as floats; the first cell that is not a
    finite number is a ParseError naming the file and its row (``row0`` rows
    precede the chunk)."""
    try:
        values = np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        values = None
    if values is not None and np.isfinite(values).all():
        return values
    for i, cell in enumerate(cells, row0 + 1):
        try:
            value = float(cell)
        except ValueError:
            raise ParseError(
                f"{path}: row {i}, column '{column}': cannot parse '{cell}' as a number"
            ) from None
        if not math.isfinite(value):
            raise ParseError(f"{path}: row {i}, column '{column}': non-finite value '{cell}'")


def _category_codes(
    col: ColumnSchema, cells, index: dict, row0: int = 0, where: str = ""
) -> np.ndarray:
    """Category code of every cell. ``index`` maps each category to its code:
    the column's allowed_values, or, for an open column, the distinct cells
    seen so far in first-appearance order, which this call extends. A cell
    outside allowed_values is a LabelError naming its row (``row0`` rows
    precede these cells), after the ``where`` prefix.

    Cells are compared as Python strings (an object array), so a cell such as
    'yes\\x00' stays distinct from 'yes'.
    """
    cells = np.asarray(cells, dtype=object)
    if col.allowed_values is None:
        for v in dict.fromkeys(cells):
            index.setdefault(v, len(index))
    codes = np.fromiter(map(index.get, cells, repeat(-1)), np.int64, len(cells))
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        kind = "target" if col.kind == "target" else "column"
        raise LabelError(
            f"{where}row {row0 + bad[0] + 1}, {kind} '{col.name}': "
            f"value '{cells[bad[0]]}' not in allowed_values"
        )
    return codes


def _category_index(col: ColumnSchema) -> dict:
    return {v: k for k, v in enumerate(col.allowed_values or ())}


def _assemble(columns: list[ColumnSchema], values: dict, n_rows: int) -> Dataset:
    """The Dataset of encoded columns. ``values`` holds the floats of every
    numeric column and the (codes, categories) of every categorical and target
    column; a target missing from it leaves the targets empty. Feature columns
    appear in schema order, each categorical expanded in place into one
    indicator column per category, and the resolved schema pins every open
    value set to its categories."""
    target = next(c for c in columns if c.kind == "target")
    targets, class_names = np.zeros(0, dtype=np.int64), target.allowed_values or ()
    width = sum(
        len(values[c.name][1]) if c.kind == "categorical" else 1
        for c in columns
        if c.kind in ("numeric", "categorical")
    )
    features = np.zeros((n_rows, width))
    feature_names: list[str] = []
    resolved: list[ColumnSchema] = []
    for col in columns:
        j = len(feature_names)
        if col.kind == "numeric":
            features[:, j] = values[col.name]
            feature_names.append(col.name)
        elif col.name in values:
            codes, categories = values[col.name]
            if col.kind == "categorical":
                features[np.arange(n_rows), j + codes] = 1.0
                feature_names.extend(f"{col.name}={v}" for v in categories)
            else:
                targets, class_names = codes, categories
            col = replace(col, allowed_values=categories or None)
        resolved.append(col)
    return Dataset(
        features=DenseMatrix(features),
        targets=targets,
        feature_names=tuple(feature_names),
        class_names=class_names,
        columns=tuple(resolved),
    )


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

    values: dict = {}
    for col in columns:
        if col.kind == "numeric":
            values[col.name] = np.asarray(cells[col.name], dtype=np.float64)
        elif col.kind != "skip" and col.name in cells:
            index = _category_index(col)
            values[col.name] = (_category_codes(col, cells[col.name], index), tuple(index))
    return _assemble(columns, values, n_rows)


# data rows that load_csv reads, checks and encodes at a time
_CHUNK_ROWS = 8192


class _QuotedText(Exception):
    """A chunk holds a quote or a CR, so str.split would not give csv.reader's cells."""


def _read_lines(fh, n: int, line_no: int, path) -> list[str]:
    lines: list[str] = []
    try:
        lines.extend(islice(fh, n))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 after line {line_no + len(lines)} ({exc.reason})"
        ) from None
    return lines


def _split_chunks(fh, path):
    """The header cells, then (row0, n, flat) for every chunk of up to
    _CHUNK_ROWS data lines: ``row0`` rows precede the chunk's ``n`` rows, and
    ``flat`` holds their cells row after row, so column j is flat[j::width].

    Lines are split with str.split, which gives csv.reader's cells while the
    text holds no quote and no CR; the first chunk (or header) holding either
    raises _QuotedText. A line of w fields is w - 1 commas, except a blank
    line, which csv.reader reads as no fields. str.split has no field size
    limit, so csv's is checked here.
    """
    limit = csv.field_size_limit()
    line_no, width = 0, None
    lines = _read_lines(fh, 1, 0, path)  # the header
    while lines:
        text = "".join(lines)
        if '"' in text or "\r" in text:
            raise _QuotedText
        if max(map(len, lines)) > limit:  # no cell is longer than its line
            for i, line in enumerate(lines, line_no + 1):
                if max(map(len, line.rstrip("\n").split(","))) > limit:
                    raise ParseError(f"{path}: line {i}: field larger than field limit ({limit})")
        if width is None:
            header = text.rstrip("\n").split(",") if text != "\n" else []
            width = len(header)
            yield header
        else:
            commas = list(map(str.count, lines, repeat(",")))
            if commas.count(width - 1) != len(lines) or "\n" in lines:
                for i, (line, count) in enumerate(zip(lines, commas), line_no):
                    got = count + 1 if line != "\n" else 0
                    if got != width:
                        raise ParseError(f"{path}: row {i} has {got} values, expected {width}")
            flat = text.replace("\n", ",").split(",")
            if len(flat) > width * len(lines):  # the comma the last newline became
                flat.pop()
            yield line_no - 1, len(lines), flat
        line_no += len(lines)
        lines = _read_lines(fh, _CHUNK_ROWS, line_no, path)


def _reader_chunks(fh, path):
    """What _split_chunks yields, read with csv.reader: the path for any text."""
    reader = csv.reader(fh)

    def rows(n):
        try:
            return list(islice(reader, n))
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not UTF-8 after line {reader.line_num} ({exc.reason})"
            ) from None
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None

    header = rows(1)
    if not header:
        return
    width = len(header[0])
    yield header[0]
    row0 = 0
    while chunk := rows(_CHUNK_ROWS):
        for i, row in enumerate(chunk, row0 + 1):
            if len(row) != width:
                raise ParseError(f"{path}: row {i} has {len(row)} values, expected {width}")
        yield row0, len(chunk), list(chain.from_iterable(chunk))
        row0 += len(chunk)


def _encode_chunks(path, columns: list[ColumnSchema], require_target: bool, chunks) -> Dataset:
    header = next(chunks, None)
    if header is None:
        raise SchemaError(f"{path}: file is empty, expected a header row")
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

    width, position = len(header), {name: j for j, name in enumerate(header)}
    read = [c for c in columns if c.kind != "skip" and c.name in position]
    parts = {c.name: [np.zeros(0) if c.kind == "numeric" else np.zeros(0, np.int64)] for c in read}
    index = {c.name: _category_index(c) for c in read if c.kind != "numeric"}
    n_rows = 0
    for row0, n, flat in chunks:
        for c in read:
            cells = flat[position[c.name] :: width]
            if c.kind == "numeric":
                parts[c.name].append(_parse_numeric(cells, c.name, path, row0))
            else:
                parts[c.name].append(
                    _category_codes(c, cells, index[c.name], row0, f"{path}: ")
                )
        n_rows = row0 + n
    values = {}
    for c in read:
        merged = np.concatenate(parts.pop(c.name))
        values[c.name] = merged if c.kind == "numeric" else (merged, tuple(index[c.name]))
    return _assemble(columns, values, n_rows)


def load_csv(path, columns: list[ColumnSchema], require_target: bool = True) -> Dataset:
    """Load an RFC-4180-style CSV file against a column schema.

    The header must match the schema names exactly (order-insensitive).
    With ``require_target=False`` the target column may be absent (for
    prediction inputs); the returned dataset then has zero-length targets.

    The file is read, checked and encoded _CHUNK_ROWS data rows at a time,
    so it is never held whole as Python strings. While the text holds no
    double quote and no CR, each chunk is split with str.split, which gives
    csv.reader's cells in half its time (0.39 s against 0.80 s on the
    76,519-row academic CSV). The first chunk holding either character sends
    the whole file, from its start, through csv.reader.
    Either way, text that is not UTF-8 or that csv.reader rejects (say a cell
    over its field size limit) is a ParseError naming the line, and every
    error naming a row starts with the file name.
    """
    _check_columns(columns)
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return _encode_chunks(path, columns, require_target, _split_chunks(fh, path))
        except _QuotedText:
            fh.seek(0)
            return _encode_chunks(path, columns, require_target, _reader_chunks(fh, path))


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

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
from .numcore import as_matrix, as_vector, frozen

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
    "split_indices",
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

    The fields are read-only views: of the given arrays themselves when the
    features are C-ordered float64 and the targets int64, else of copies.
    """

    features: np.ndarray
    targets: np.ndarray
    feature_names: tuple[str, ...]
    class_names: tuple[str, ...]
    columns: tuple[ColumnSchema, ...]

    def __post_init__(self):
        object.__setattr__(self, "features", frozen(as_matrix(self.features)))
        targets = np.asarray(self.targets, dtype=np.int64).view()
        targets.setflags(write=False)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        object.__setattr__(self, "columns", tuple(self.columns))
        rows, cols = self.features.shape
        if self.targets.size and rows != self.targets.shape[0]:
            raise DimensionError(
                f"dataset has {rows} feature rows but {self.targets.shape[0]} targets"
            )
        if len(self.feature_names) != cols:
            raise DimensionError(
                f"dataset has {cols} feature columns but {len(self.feature_names)} feature names"
            )
        if self.targets.size and (
            self.targets.min() < 0 or self.targets.max() >= len(self.class_names)
        ):
            raise LabelError("target index outside [0, n_classes)")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class ScalerParams:
    """Per-column means and standard deviations fit on training rows."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "means", frozen(as_vector(self.means)))
        object.__setattr__(self, "stds", frozen(as_vector(self.stds)))
        if self.means.shape != self.stds.shape:
            raise DimensionError("scaler means and stds have different lengths")
        if np.any(self.stds <= 0.0):
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
        features=features,
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
    has zero-length targets. A numeric value that is not finite is a
    ParameterError naming its row and column.
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
            column = values[col.name] = np.asarray(cells[col.name], dtype=np.float64)
            if not np.isfinite(column).all():
                i = np.flatnonzero(~np.isfinite(column))[0]
                raise ParameterError(f"row {i + 1}, column '{col.name}': {column[i]} is not finite")
        elif col.kind != "skip" and col.name in cells:
            index = _category_index(col)
            values[col.name] = (_category_codes(col, cells[col.name], index), tuple(index))
    return _assemble(columns, values, n_rows)


# lines that load_csv reads, checks and encodes at a time
_CHUNK_ROWS = 8192


def _read_lines(fh, n: int, line_no: int, path) -> list[str]:
    lines: list[str] = []
    try:
        lines.extend(islice(fh, n))
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 after line {line_no + len(lines)} ({exc.reason})"
        ) from None
    return lines


def _reader_rows(lines: list[str], fh, line_no: int, path) -> tuple[list[list[str]], int]:
    """csv.reader's cells of the records that start in ``lines`` (``line_no``
    lines precede them), and the number of lines they span: more than
    ``lines`` when a quoted cell open on the last line reads on from ``fh``."""
    reader, rows = csv.reader(chain(lines, fh)), []
    try:
        for row in reader:
            rows.append(row)
            if reader.line_num >= len(lines):
                break
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 after line {line_no + reader.line_num} ({exc.reason})"
        ) from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {line_no + reader.line_num}: {exc}") from None
    return rows, reader.line_num


def _split_chunks(fh, path):
    """The header cells, then (row0, lines, rows) for every chunk of up to
    _CHUNK_ROWS lines: ``row0`` rows precede the chunk, and either ``lines``
    are its checked lines for numpy's text reader, or ``rows`` are
    csv.reader's cells of the records that start in it.

    The header, and a chunk holding a quote, a CR or one of \\x1c-\\x1f
    (which numpy's reader strips around a number and float() does not), go
    through csv.reader. In the other chunks a line of w fields is w - 1
    commas, except a blank line, which csv.reader reads as no fields, and
    str.split on ``,`` gives csv.reader's cells, as does numpy's reader.
    Neither of those has csv's field size limit, so it is checked here.
    A quoted cell can hold a line end, so rows and lines are counted apart.
    """
    limit = csv.field_size_limit()
    header, line_no = _reader_rows(_read_lines(fh, 1, 0, path), fh, 0, path)
    if not header:
        return
    width, row0 = len(header[0]), 0
    yield header[0]
    while lines := _read_lines(fh, _CHUNK_ROWS, line_no, path):
        # held to the next chunk: freed at once, it raised the predict peak
        # on the 76,519-row academic CSV by ~7 MB (glibc malloc placement)
        text = "".join(lines)
        if any(map(text.__contains__, '"\r\x1c\x1d\x1e\x1f')):
            rows, n_lines = _reader_rows(lines, fh, line_no, path)
            for i, row in enumerate(rows, row0 + 1):
                if len(row) != width:
                    raise ParseError(f"{path}: row {i} has {len(row)} values, expected {width}")
            yield row0, None, rows
            line_no, row0 = line_no + n_lines, row0 + len(rows)
            continue
        if max(map(len, lines)) > limit:  # no cell is longer than its line
            for i, line in enumerate(lines, line_no + 1):
                if max(map(len, line.rstrip("\n").split(","))) > limit:
                    raise ParseError(f"{path}: line {i}: field larger than field limit ({limit})")
        commas = list(map(str.count, lines, repeat(",")))
        if commas.count(width - 1) != len(lines) or "\n" in lines:
            for i, (line, count) in enumerate(zip(lines, commas), row0 + 1):
                got = count + 1 if line != "\n" else 0
                if got != width:
                    raise ParseError(f"{path}: row {i} has {got} values, expected {width}")
        yield row0, lines, None
        line_no, row0 = line_no + len(lines), row0 + len(lines)


def _read_columns(lines: list[str], usecols: list[int], dtype) -> np.ndarray:
    """Columns ``usecols`` of quote-free, checked ``lines`` as an
    (n, len(usecols)) array, read by numpy's C text reader: floats as
    float() parses them, or (dtype object) each cell as its str.

    ``comments=None``, since numpy's default '#' would cut a cell short;
    object rather than numpy string cells, which drop trailing NULs.
    ``max_rows`` makes the reader allocate the array once rather than grow
    it. Grown blocks left up to 10 MB more heap resident after loading the
    76,519-row academic CSV, and the train peak carried it (174 against
    164 MB at seed 0)."""
    return np.loadtxt(
        lines, dtype, delimiter=",", quotechar=None, comments=None, ndmin=2,
        usecols=usecols, max_rows=len(lines),
    )


def _read_numbers(lines: list[str], usecols: list[int]) -> np.ndarray | None:
    """The numeric columns ``usecols`` of a chunk, read by numpy's reader, or
    None when it rejects a cell or reads a number that is not finite. The
    per-cell path then names the first fault, or loads the cells float()
    accepts and the reader rejects (``1_0``, non-ASCII digits)."""
    try:
        numbers = _read_columns(lines, usecols, np.float64)
    except ValueError:
        return None
    return numbers if np.isfinite(numbers).all() else None


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
    numeric = [c for c in read if c.kind == "numeric"]
    labels = [c for c in read if c.kind != "numeric"]
    numeric_cols = [position[c.name] for c in numeric]
    label_cols = [position[c.name] for c in labels]
    n_rows = 0
    for row0, lines, rows in chunks:
        numbers = None if lines is None else _read_numbers(lines, numeric_cols)
        if numbers is not None:
            block = dict(zip((c.name for c in numeric), numbers.T))
            if labels:
                strings = _read_columns(lines, label_cols, object)
                block.update(zip((c.name for c in labels), strings.T))
        else:  # the per-cell path, also for lines that numpy's reader rejects
            rows = list(csv.reader(lines)) if rows is None else rows
            flat = list(chain.from_iterable(rows))
        for c in read:
            if numbers is not None:
                cells = block[c.name]
            else:
                cells = flat[position[c.name] :: width]
                if c.kind == "numeric":
                    cells = _parse_numeric(cells, c.name, path, row0)
            if c.kind != "numeric":
                cells = _category_codes(c, cells, index[c.name], row0, f"{path}: ")
            parts[c.name].append(cells)
        n_rows = row0 + len(rows if numbers is None else lines)
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

    The file is read once, front to back, and checked and encoded
    _CHUNK_ROWS lines at a time, so it is never held whole as Python
    strings. Numpy's C text reader reads a chunk without a double quote, a
    CR or \\x1c-\\x1f: its numeric columns as one float block, its other
    columns as str cells. On the 76,519-row academic CSV the load takes
    0.84-0.95 s, against 1.19-1.35 s with str.split and float() per cell.
    csv.reader reads the header and every other chunk, and reads on past a
    chunk's last line only to close a quoted cell. A chunk in which numpy's
    reader rejects a number or reads one that is not finite is split by
    csv.reader and read per cell instead, which loads every number float()
    accepts and names the first faulty cell. Text that is not UTF-8 or that
    csv.reader rejects (say a cell over its field size limit) is a
    ParseError naming the line, and every error naming a row starts with
    the file name.
    """
    _check_columns(columns)
    with open(path, encoding="utf-8", newline="") as fh:
        return _encode_chunks(path, columns, require_target, _split_chunks(fh, path))


def split_indices(n: int, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """The train and test row indices of a seeded uniform split of ``n``
    rows: a permutation seeded with ``spec.seed``, whose first
    round-half-up(n * train_fraction) rows are the train side. A side left
    empty is a SplitError."""
    if n < 2:
        raise SplitError(f"need at least 2 rows to split, got {n}")
    n_train = math.floor(n * spec.train_fraction + 0.5)
    if n_train < 1 or n - n_train < 1:
        raise SplitError(
            f"split of {n} rows at fraction {spec.train_fraction} leaves an empty side"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Seeded uniform row split of split_indices."""
    train, test = split_indices(ds.n_rows, spec)
    return (
        replace(ds, features=ds.features[train], targets=ds.targets[train]),
        replace(ds, features=ds.features[test], targets=ds.targets[test]),
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
        sq = xm - means  # the one temporary the size of x, squared in place
        np.multiply(sq, sq, out=sq)
        stds = np.sqrt(np.mean(sq, axis=0))
    bad = np.flatnonzero(~np.isfinite(stds))  # a non-finite mean leaves its std non-finite
    if bad.size:
        raise DegenerateDataError(
            f"fit_scaler: feature column {bad[0] + 1} is too large to standardize in float64"
        )
    stds = np.where(stds < 1e-12, 1.0, stds)
    return ScalerParams(means=means, stds=stds)


def transform(params: ScalerParams, x) -> np.ndarray:
    """Apply (value - mean) / std columnwise."""
    xm = as_matrix(x)
    if xm.shape[1] != params.means.shape[0]:
        raise DimensionError(
            f"transform: {xm.shape[1]} columns but scaler was fit on {params.means.shape[0]}"
        )
    return frozen(_standardize(params, xm, np.empty(xm.shape)))


def _standardize(params: ScalerParams, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """transform's values written into ``out``, which may be ``x`` itself to
    scale a matrix the caller owns in place; returns ``out``. The columns
    must match the scaler's."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(x, params.means, out=out)
        out /= params.stds
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        raise DegenerateDataError(
            f"transform: row {bad[0][0] + 1}, feature column {bad[0][1] + 1} "
            "is too large to standardize in float64"
        )
    return out


def inverse_transform(params: ScalerParams, x) -> np.ndarray:
    """Undo transform: value * std + mean columnwise."""
    xm = as_matrix(x)
    if xm.shape[1] != params.means.shape[0]:
        raise DimensionError(
            f"inverse_transform: {xm.shape[1]} columns but scaler was fit on {len(params.means)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = xm * params.stds + params.means
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        raise DegenerateDataError(
            f"inverse_transform: row {bad[0][0] + 1}, feature column {bad[0][1] + 1} "
            "overflows float64"
        )
    return frozen(out)

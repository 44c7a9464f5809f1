"""CSV ingestion and writing, categorical encoding, seeded splitting, and
standardization.

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

Column kinds: ``numeric`` (parsed as float), ``categorical`` (encoded as
category codes, one-hot expanded by ``assemble`` into one output column per
allowed or observed value), ``target`` (mapped to class indices), and
``skip`` (present in the file, excluded from features — e.g. row ids). A
schema needs one target and at least one numeric or categorical column.
Categorical values without an ``allowed_values`` list are encoded in
first-appearance order. Missing cells are an error, not imputed.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice, repeat
from types import MappingProxyType, SimpleNamespace

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
from .numcore import as_matrix, as_vector, frozen, own_pages

SCHEMA_VERSION = 1
COLUMN_KINDS = ("numeric", "categorical", "target", "skip")

__all__ = [
    "SCHEMA_VERSION",
    "CHUNK_ROWS",
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
    "CSV_BLOCK_ROWS",
    "csv_cells",
    "csv_blocks",
    "csv_pieces",
    "assemble",
    "split_indices",
    "split",
    "fit_scaler",
    "transform",
    "standardize",
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
    if not any(c.kind in ("numeric", "categorical") for c in columns):
        raise SchemaError("schema has no feature column (numeric or categorical)")


def _categories(columns) -> dict[str, tuple[str, ...]]:
    """The categories of each categorical column, by name."""
    return {c.name: c.allowed_values or () for c in columns if c.kind == "categorical"}


def _code_type(n_categories: int) -> np.dtype:
    """The narrowest unsigned type that holds the codes of ``n_categories``."""
    return np.min_scalar_type(max(n_categories - 1, 0))


@dataclass(frozen=True)
class Dataset:
    """The encoded table of a data source: one array per feature column, the
    class-index targets and the resolved schema. ``assemble`` builds its
    one-hot feature matrix, for any selection of its rows.

    ``features`` maps each feature column, in the order of the matrix's
    columns, to its values: a categorical column of ``columns`` to its
    category codes, held in the narrowest unsigned type that fits its
    categories, and any other (a numeric column, or one derived from them
    such as the style task's score_diff) to its float64 values.

    Unlabeled datasets (prediction inputs loaded with ``require_target=False``)
    carry empty targets; labeled datasets have one int64 target per row.
    ``columns`` is the schema the data was encoded against, with every open
    categorical and target value set pinned to the order the data showed:
    a categorical column's allowed_values there are its categories. Saving
    it with a model keeps the one-hot column order of later prediction
    inputs the same.

    The arrays are read-only views: of the given arrays themselves when
    they are C-ordered and of their type already, else of copies.
    """

    features: Mapping[str, np.ndarray]
    targets: np.ndarray
    columns: tuple[ColumnSchema, ...]

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        categories = _categories(self.columns)
        features = {}
        for name, values in self.features.items():
            if name in categories:
                codes, k = np.asarray(values), len(categories[name])
                if codes.dtype.kind not in "iu" or (
                    codes.size and (codes.min() < 0 or codes.max() >= k)
                ):
                    raise LabelError(f"column '{name}': category codes outside [0, {k})")
                features[name] = frozen(codes, _code_type(k))
            else:
                features[name] = frozen(as_vector(values))
        shapes = {values.shape for values in features.values()}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise DimensionError(
                f"dataset needs feature columns of one length, got shapes {sorted(shapes)}"
            )
        object.__setattr__(self, "features", MappingProxyType(features))
        object.__setattr__(self, "targets", frozen(self.targets, np.int64))
        if self.targets.size and self.n_rows != self.targets.shape[0]:
            raise DimensionError(
                f"dataset has {self.n_rows} feature rows but {self.targets.shape[0]} targets"
            )
        if self.targets.size and (
            self.targets.min() < 0 or self.targets.max() >= len(self.class_names)
        ):
            raise LabelError("target index outside [0, n_classes)")

    @property
    def n_rows(self) -> int:
        return next(iter(self.features.values())).shape[0]

    @property
    def feature_names(self) -> tuple[str, ...]:
        """The names of the matrix's columns: a categorical column's one per
        category, as ``name=category``."""
        categories = _categories(self.columns)
        return tuple(chain.from_iterable(
            (f"{name}={v}" for v in categories[name]) if name in categories else (name,)
            for name in self.features
        ))

    @property
    def class_names(self) -> tuple[str, ...]:
        return next((c.allowed_values or () for c in self.columns if c.kind == "target"), ())

    def take(self, rows) -> Dataset:
        """The Dataset of the labeled rows ``rows``, in that order."""
        features = {name: values[rows] for name, values in self.features.items()}
        return replace(self, features=features, targets=self.targets[rows])


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
    'yes\\x00' stays distinct from 'yes'. load_csv sends it the cells of an
    open column or of a column whose values numpy strings cannot hold (see
    _field_type), and every label cell of a chunk read per cell. The codes
    are in the narrowest unsigned type that holds the codes of ``index``
    after the call.
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
    return codes.astype(_code_type(len(index)))


def _category_index(col: ColumnSchema) -> dict:
    return {v: k for k, v in enumerate(col.allowed_values or ())}


def _encoded(columns: list[ColumnSchema], values: dict, index: dict) -> Dataset:
    """The Dataset of encoded columns. ``values`` holds the floats of every
    numeric column and the codes of every categorical and target column,
    whose categories are the keys of its ``index``; a target missing from
    it leaves the targets empty. The resolved schema pins every open value
    set to its categories."""
    target = next(c.name for c in columns if c.kind == "target")
    return Dataset(
        features={c.name: values[c.name] for c in columns if c.kind in ("numeric", "categorical")},
        targets=values.get(target, np.zeros(0, np.int64)),
        columns=[
            replace(c, allowed_values=tuple(index[c.name]) or None) if c.name in index else c
            for c in columns
        ],
    )


def assemble(ds: Dataset, rows=None, feature_major: bool = False, features=None) -> np.ndarray:
    """The one-hot feature matrix of ``ds``'s rows ``rows`` (all of them when
    None), in that order: an n x d float64 matrix, or with ``feature_major``
    its d x n transpose, C-ordered either way. Its columns follow
    ``ds.features``; each categorical expands in place into one indicator
    column per category, in category order. The matrix is new and writable,
    so its caller can scale it in place.

    ``features``, a dict that the caller hands over, stands in for
    ``ds.features``: the same columns, of any length, which ``rows`` selects
    from, while ``ds`` gives only the layout. The dict is emptied as the
    matrix fills, numeric columns first (each frees more than its row of the
    matrix takes), so a column of which it held the last reference is freed
    once its rows are in.
    """
    categories = _categories(ds.columns)
    widths = [len(categories[name]) if name in categories else 1 for name in ds.features]
    starts = dict(zip(ds.features, accumulate(widths, initial=0)))
    features = dict(ds.features) if features is None else features
    n = len(next(iter(features.values()))) if rows is None else len(rows)
    out = np.zeros((sum(widths), n) if feature_major else (n, sum(widths)))
    by_feature, cells = out if feature_major else out.T, np.arange(n)
    for name in sorted(starts, key=categories.__contains__):  # numeric columns first
        values, j = features.pop(name), starts[name]
        if rows is not None:
            values = values[rows]
        if name in categories:
            by_feature[np.add(values, j, dtype=np.intp), cells] = 1.0
        else:
            by_feature[j] = values
    return out


def encode_columns(columns: list[ColumnSchema], cells, require_target: bool = True) -> Dataset:
    """Encode typed columns into a Dataset.

    ``cells`` maps column names to equal-length sequences: floats for numeric
    columns, strings for categorical and target columns; skip columns and
    other names are ignored. Feature columns appear in schema order. With
    ``require_target=False`` the target is optional and never read; the
    dataset then has zero-length targets. A numeric value that is not
    finite is a ParameterError naming its row and column.
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

    values, index = {}, {}
    for col in columns:
        if col.kind == "numeric":
            column = values[col.name] = np.asarray(cells[col.name], dtype=np.float64)
            if not np.isfinite(column).all():
                i = np.flatnonzero(~np.isfinite(column))[0]
                raise ParameterError(f"row {i + 1}, column '{col.name}': {column[i]} is not finite")
        elif col.kind != "skip" and (require_target or col.kind != "target"):
            index[col.name] = _category_index(col)
            values[col.name] = _category_codes(col, cells[col.name], index[col.name])
    return _encoded(columns, values, index)


# lines that load_csv reads, checks and encodes at a time, and rows that
# pipelines.FitBundle.apply assembles, scales and scores at a time
CHUNK_ROWS = 8192


def _not_utf8(path, exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for text in ``path`` that is not UTF-8. It names the
    last line before the first bad byte: the text layer decodes in blocks,
    so the bytes are read again a line at a time (no UTF-8 sequence holds a
    CR or LF byte), with lines ending at LF, CR or CRLF as that layer reads."""
    line_no = 0
    with open(path, "rb") as fh:
        for line in fh:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                line_no, exc = line_no + line.count(b"\r", 0, bad.start), bad
                break
            line_no += line.count(b"\n") + line.count(b"\r") - line.count(b"\r\n")
    return ParseError(f"{path}: not UTF-8 after line {line_no} ({exc.reason})")


def _read_lines(fh, n: int, path) -> list[str]:
    try:
        return list(islice(fh, n))
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


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
        raise _not_utf8(path, exc) from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {line_no + reader.line_num}: {exc}") from None
    return rows, reader.line_num


# a pinned column whose longest value is longer than this is read as object
# cells: a numpy string field is as wide as its longest value in every row
_STRING_CAP = 64


def _field_type(col: ColumnSchema):
    """The type of column ``col``'s field in numpy's record of a line that
    load_csv reads. A pinned label column's cells are numpy strings one
    character longer than its longest value, so a longer cell, cut to that
    width, matches no value; an open column's, or one whose values hold a
    NUL (which numpy strings drop when trailing) or run past _STRING_CAP,
    are str objects."""
    if col.kind == "numeric":
        return np.float64
    values = col.allowed_values
    if values is None or any("\x00" in v for v in values) or max(map(len, values)) > _STRING_CAP:
        return object
    return f"U{max(map(len, values)) + 1}"


def load_csv(path, columns: list[ColumnSchema], require_target: bool = True) -> Dataset:
    """Load an RFC-4180-style CSV file against a column schema, as the
    encoded Dataset: float64 numeric columns and category codes, with no
    one-hot matrix (``assemble`` builds one).

    The header must match the schema names exactly (order-insensitive).
    With ``require_target=False`` (for prediction inputs) the target column
    is optional and its cells are never read, though the line checks
    (UTF-8, field size, row width) cover them; the returned dataset then
    has zero-length targets.

    The file is read once, front to back, and checked and encoded
    CHUNK_ROWS lines at a time, so it is never held whole as Python
    strings. Numpy's C text reader reads a chunk without a double quote, a
    CR, a NUL, \\x1c-\\x1f (which it strips around a number and float() does
    not), a blank line or a line over csv's field size limit in one call,
    into one record per line: numbers as floats, a pinned label column's
    cells as numpy strings, coded by a sorted lookup, and an open one's as
    str cells. On the 76,519-row academic CSV the load takes ~0.33 s on a
    2-vCPU x86-64 host, against ~0.43 s with one read for the numbers and
    one for the labels.
    csv.reader reads the header and every other chunk. A chunk in which
    numpy's reader meets a row of the wrong width or rejects a number, or
    which holds a number that is not finite or a label outside
    allowed_values, is split by csv.reader and read per cell instead, which
    names the fault and loads every number float() accepts. A chunk's text
    and records are freed before the next chunk is read, and its numbers
    and codes are copied into pages of their own, as each whole column is
    at the end (numcore.own_pages): the table never lands in malloc's heap,
    so dropping it gives its memory back at once.

    Text that is not UTF-8 or that csv.reader rejects (say a cell over its
    field size limit) is a ParseError naming the line, and every error
    naming a row starts with the file name. Faults are reported chunk by
    chunk in file order. Within a chunk, line faults (not UTF-8, a cell over
    the field size limit, then a row of the wrong width) come before cell
    faults, which come column by column in schema order, each column's
    first: a bad number on row 2 and an over-long cell on line 5 give line 5.
    """
    _check_columns(columns)
    with open(path, encoding="utf-8", newline="") as fh:
        header, line_no = _reader_rows(_read_lines(fh, 1, path), fh, 0, path)
        if not header:
            raise SchemaError(f"{path}: file is empty, expected a header row")
        header = header[0]
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
        read = [c for c in columns if c.kind != "skip" and (require_target or c.kind != "target")]
        parts = {
            c.name: [np.zeros(0) if c.kind == "numeric" else np.zeros(0, np.uint8)] for c in read
        }
        index = {c.name: _category_index(c) for c in read if c.kind != "numeric"}
        types = {c.name: _field_type(c) for c in read}  # a column not read is U1
        record = np.dtype([(f"f{j}", types.get(name, "U1")) for j, name in enumerate(header)])
        lookup = {}  # a numpy string column's sorted values and their codes
        for c in read:
            if record[position[c.name]].kind == "U":
                allowed = np.array(c.allowed_values)
                order = np.argsort(allowed)
                lookup[c.name] = allowed[order], order.astype(_code_type(len(order)))
        n_rows, where = 0, f"{path}: "
        while lines := _read_lines(fh, CHUNK_ROWS, path):
            text = "".join(lines)
            # numpy's reader drops a string cell's trailing NULs, skips a blank
            # line with a warning, and has no field size limit (csv.reader's)
            per_cell = (
                any(map(text.__contains__, '"\r\x00\x1c\x1d\x1e\x1f'))
                or "\n" in lines
                or max(map(len, lines)) > csv.field_size_limit()
            )
            chunk, n_lines = {}, len(lines)
            if not per_cell:
                # numpy's default comment mark '#' would cut a cell short, and
                # max_rows allocates the block once: grown blocks left up to
                # 10 MB more heap resident after the 76,519-row academic CSV
                try:
                    block = np.loadtxt(
                        lines, record, delimiter=",", quotechar=None, comments=None,
                        ndmin=1, max_rows=n_lines,
                    )
                    for c in read:
                        cells = block[f"f{position[c.name]}"]
                        if c.kind == "numeric":
                            chunk[c.name] = cells
                            if not np.isfinite(cells).all():
                                raise ValueError
                        elif c.name in lookup:
                            keys, codes = lookup[c.name]
                            at = np.minimum(np.searchsorted(keys, cells), len(keys) - 1)
                            if not (keys[at] == cells).all():
                                raise ValueError
                            chunk[c.name] = codes[at]
                        else:
                            chunk[c.name] = _category_codes(c, cells, index[c.name], n_rows, where)
                except ValueError:  # per cell: names the fault, or loads 1_0 as float() does
                    per_cell = True
            if per_cell:
                rows, n_lines = _reader_rows(lines, fh, line_no, path)
                for i, row in enumerate(rows, n_rows + 1):
                    if len(row) != width:
                        raise ParseError(f"{path}: row {i} has {len(row)} values, expected {width}")
                flat = list(chain.from_iterable(rows))
                for c in read:
                    cells = flat[position[c.name] :: width]
                    if c.kind == "numeric":
                        chunk[c.name] = _parse_numeric(cells, c.name, path, n_rows)
                    else:
                        chunk[c.name] = _category_codes(c, cells, index[c.name], n_rows, where)
            for name, cells in chunk.items():  # copied, so no chunk's block outlives it
                parts[name].append(own_pages(cells))
            line_no, n_rows = line_no + n_lines, n_rows + (len(rows) if per_cell else n_lines)
            # the chunk's text and records (cells can be a view of its block)
            # go before the next chunk is read: one chunk's are held at a time
            lines = text = block = rows = flat = chunk = cells = None
    # each chunk's codes are as narrow as its column's categories then were,
    # so the concatenation is as narrow as they are at the end. Every chunk
    # and column lives in pages of its own (numcore.own_pages), so none of
    # them is left in malloc's heap; the targets join as the Dataset's int64
    values = {}
    for c in read:
        dtype = np.int64 if c.kind == "target" else None
        values[c.name] = own_pages(*parts.pop(c.name), dtype=dtype)
    return _encoded(columns, values, index)


# rows of every CSV that csv_blocks formats at a time; one block's Python
# strings sit on top of what the command holds. At 8,192 an academic
# `generate` of 76,519 rows peaked at 97 MB, at 1,024 at 75 MB, no slower.
CSV_BLOCK_ROWS = 1024


def csv_cells(strings) -> np.ndarray:
    """An object array of the text csv.writer writes for each string as one
    cell of a row of two or more: the string, quoted where it holds a comma,
    a quote, CR or LF. Each distinct string is quoted once."""
    distinct = dict.fromkeys(strings)
    lines = []  # csv.writer writes each row with one call of write
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n").writerows(
        (s, "") for s in distinct
    )
    quoted = {s: line[:-2] for s, line in zip(distinct, lines)}  # less the ",\n"
    return np.array([quoted[s] for s in strings], dtype=object)


def _number_cells(values: np.ndarray) -> list[str]:
    """repr of each float64 or int64 of ``values``, which is what csv.writer
    writes for it. Each distinct bit pattern is formatted once (so -0.0 and
    each NaN keep their own repr): most academic columns hold a few
    distinct values per block."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if len(distinct) == len(values):  # nothing to share: skip the gather
        return list(map(repr, values.tolist()))
    table = np.array(list(map(repr, distinct.view(values.dtype).tolist())), dtype=object)
    return table[inverse].tolist()


def csv_blocks(columns) -> Iterator[list[list[str]]]:
    """Each CSV_BLOCK_ROWS rows of ``columns`` (equal-length float64 or int64
    arrays, or object arrays of csv_cells text) as columns of the text
    csv.writer writes for each cell."""
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        yield [c[rows].tolist() if c.dtype == object else _number_cells(c[rows]) for c in columns]


def csv_pieces(header, columns) -> Iterator[str]:
    """The text csv.writer writes for the ``header`` row and the rows of two
    or more ``columns`` (as csv_blocks takes them), one piece per block: a
    row's cell texts joined by commas, as csv.writer writes any row but one
    of a single empty cell."""
    yield ",".join(csv_cells(header)) + "\n"
    for block in csv_blocks(columns):
        yield "\n".join(map(",".join, zip(*block))) + "\n"


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
    """Seeded uniform row split of split_indices: the Datasets of its train
    and test rows."""
    return tuple(map(ds.take, split_indices(ds.n_rows, spec)))


def fit_scaler(x) -> ScalerParams:
    """Per-column mean and population standard deviation (divide by n) of an
    n x d matrix, row-major or the ``.T`` view of a feature-major one.

    Each column is reduced on its own, with no temporary the size of ``x``,
    to the bits of numpy's axis-0 mean over the row-major matrix: that adds
    the rows in order when d >= 2, and sums pairwise (as ``np.sum``) when
    d = 1. Columns with std below 1e-12 (constant columns) get std clamped
    to 1 so the transform is a pure centering for them.
    """
    xm = as_matrix(x)
    n, d = xm.shape
    if n < 1:
        raise DimensionError("fit_scaler needs at least one row")
    total = np.sum if d == 1 else (lambda column: np.add.accumulate(column)[-1])
    means, stds = np.empty(d), np.empty(d)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            means[j] = total(xm[:, j]) / n
            dev = xm[:, j] - means[j]
            np.multiply(dev, dev, out=dev)
            stds[j] = total(dev) / n
        np.sqrt(stds, out=stds)
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
    return frozen(standardize(params, xm, np.empty(xm.shape)))


def standardize(
    params: ScalerParams, x: np.ndarray, out: np.ndarray, first_row: int = 1
) -> np.ndarray:
    """transform's values written into ``out``, which may be ``x`` itself to
    scale a matrix the caller owns in place; returns ``out``. The columns
    must match the scaler's. A value that overflows is a DegenerateDataError
    naming its row, with the rows of ``x`` numbered from ``first_row``."""
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(x, params.means, out=out)
        out /= params.stds
    bad = np.argwhere(~np.isfinite(out))
    if bad.size:
        raise DegenerateDataError(
            f"transform: row {bad[0][0] + first_row}, feature column {bad[0][1] + 1} "
            "is too large to standardize in float64"
        )
    return out

import csv
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edulearn import data as data_mod
from edulearn.cli import dumps_canonical
from edulearn.data import (
    ColumnSchema,
    Dataset,
    ScalerParams,
    SplitSpec,
    assemble,
    encode_columns,
    fit_scaler,
    load_csv,
    read_schema,
    schema_to_doc,
    split,
    split_indices,
    standardize,
    transform,
)
from edulearn.errors import (
    DegenerateDataError,
    DimensionError,
    EdulearnError,
    LabelError,
    ParameterError,
    ParseError,
    SchemaError,
    SplitError,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


BASIC_SCHEMA = [
    ColumnSchema("x", "numeric"),
    ColumnSchema("Target", "target", allowed_values=("A", "B")),
]


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "d.csv", "x,Target\n1.5,A\n2.5,B\n")
    ds = load_csv(path, BASIC_SCHEMA)
    assert assemble(ds).tolist() == [[1.5], [2.5]]
    assert ds.targets.tolist() == [0, 1]
    assert ds.feature_names == ("x",)
    assert ds.class_names == ("A", "B")


def test_load_csv_one_hot(tmp_path):
    schema = [
        ColumnSchema("color", "categorical"),
        ColumnSchema("Target", "target", allowed_values=("A", "B")),
    ]
    path = _write(tmp_path, "d.csv", "color,Target\nred,A\nblue,B\nred,A\n")
    ds = load_csv(path, schema)
    assert ds.feature_names == ("color=red", "color=blue")
    assert assemble(ds).tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]


def test_load_csv_target_order_is_allowed_values(tmp_path):
    schema = [
        ColumnSchema("x", "numeric"),
        ColumnSchema("Target", "target", allowed_values=("Graduate", "Dropout", "Enrolled")),
    ]
    path = _write(tmp_path, "d.csv", "x,Target\n1,Graduate\n2,Enrolled\n")
    ds = load_csv(path, schema)
    assert ds.targets.tolist() == [0, 2]  # Graduate is index 0


def test_load_csv_header_order_insensitive(tmp_path):
    path = _write(tmp_path, "d.csv", "Target,x\nA,1.5\nB,2.5\n")
    ds = load_csv(path, BASIC_SCHEMA)
    assert assemble(ds).tolist() == [[1.5], [2.5]]


def test_load_csv_missing_column_named(tmp_path):
    path = _write(tmp_path, "d.csv", "x\n1.0\n")
    with pytest.raises(SchemaError, match="Target"):
        load_csv(path, BASIC_SCHEMA)


def test_load_csv_extra_column_named(tmp_path):
    path = _write(tmp_path, "d.csv", "x,bonus,Target\n1.0,7,A\n")
    with pytest.raises(SchemaError, match="bonus"):
        load_csv(path, BASIC_SCHEMA)


def test_load_csv_bad_numeric_names_row_and_column(tmp_path):
    path = _write(tmp_path, "d.csv", "x,Target\n1.0,A\noops,B\n")
    with pytest.raises(ParseError, match="row 2.*'x'"):
        load_csv(path, BASIC_SCHEMA)


def test_load_csv_missing_cell_is_error(tmp_path):
    path = _write(tmp_path, "d.csv", "x,Target\n,A\n")
    with pytest.raises(ParseError):
        load_csv(path, BASIC_SCHEMA)


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "d.csv", "x,Target\n1.0\n")
    with pytest.raises(ParseError, match="row 1"):
        load_csv(path, BASIC_SCHEMA)


def test_load_csv_target_outside_allowed(tmp_path):
    path = _write(tmp_path, "d.csv", "x,Target\n1.0,C\n")
    with pytest.raises(LabelError, match="'C'"):
        load_csv(path, BASIC_SCHEMA)
    path = _write(tmp_path, "d.csv", "x,Target\n1.0,A\n2.0,A\x00\n")
    with pytest.raises(LabelError, match="row 2"):
        load_csv(path, BASIC_SCHEMA)


# the csv module passes a NUL through; 'yes\x00' is not 'yes'
@pytest.mark.parametrize("cell", ["maybe", "yes\x00"], ids=["unknown", "trailing-nul"])
def test_load_csv_categorical_outside_allowed(tmp_path, cell):
    schema = [
        ColumnSchema("c", "categorical", allowed_values=("yes", "no")),
        ColumnSchema("Target", "target", allowed_values=("A", "B")),
    ]
    path = _write(tmp_path, "d.csv", f"c,Target\nno,A\n{cell},B\n")
    with pytest.raises(LabelError, match="row 2, column 'c'"):
        load_csv(path, schema)


def test_encode_columns_matches_load_csv(tmp_path):
    schema = [
        ColumnSchema("id", "skip"),
        ColumnSchema("c", "categorical"),
        ColumnSchema("x", "numeric"),
        ColumnSchema("Target", "target"),
    ]
    path = _write(tmp_path, "d.csv", "id,c,x,Target\nr1,red,1.5,yes\nr2,blue,2,no\nr3,red,-3,yes\n")
    cells = {"c": ["red", "blue", "red"], "x": [1.5, 2.0, -3.0], "Target": ["yes", "no", "yes"]}
    loaded, encoded = load_csv(path, schema), encode_columns(schema, cells)
    assert encoded.feature_names == loaded.feature_names == ("c=red", "c=blue", "x")
    assert np.array_equal(assemble(encoded), assemble(loaded))
    assert encoded.targets.tolist() == loaded.targets.tolist() == [0, 1, 0]
    assert encoded.class_names == loaded.class_names == ("yes", "no")
    assert encoded.columns == loaded.columns
    assert encoded.columns[1] == ColumnSchema("c", "categorical", ("red", "blue"))
    with pytest.raises(SchemaError, match="'x'"):
        encode_columns(schema, {"c": ["red"], "Target": ["yes"]})
    with pytest.raises(DimensionError):
        encode_columns(schema, {**cells, "x": [1.0]})
    unlabeled = encode_columns(schema, {"c": ["red"], "x": [1.0]}, require_target=False)
    assert unlabeled.targets.size == 0 and unlabeled.n_rows == 1

    # 300 categories: codes past one byte, indicator columns in first-appearance order
    wide = [f"v{(7 * i) % 300}" for i in range(600)]
    path = _write(tmp_path, "w.csv", "id,c,x,Target\n" + "".join(
        f"r{i},{v},{i},{'yes' if i % 2 else 'no'}\n" for i, v in enumerate(wide)))
    cells = {"c": wide, "x": list(map(float, range(600))), "Target": ["no", "yes"] * 300}
    loaded, encoded = load_csv(path, schema), encode_columns(schema, cells)
    _assert_same_dataset(loaded, encoded)
    order = list(dict.fromkeys(wide))
    assert len(order) == 300 and loaded.features["c"].dtype == np.uint16
    assert loaded.feature_names == (*(f"c={v}" for v in order), "x")
    want = np.zeros((600, 301))
    want[np.arange(600), [order.index(v) for v in wide]] = 1.0
    want[:, 300] = np.arange(600)
    assert assemble(loaded).tobytes() == want.tobytes()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_encode_columns_non_finite_number_names_row_and_column(value):
    schema = [ColumnSchema("x", "numeric"), ColumnSchema("Target", "target")]
    with pytest.raises(ParameterError, match=f"^row 2, column 'x': {value} is not finite$"):
        encode_columns(schema, {"x": [1.0, value], "Target": ["a", "b"]})


def test_load_csv_skip_column_excluded(tmp_path):
    schema = [
        ColumnSchema("id", "skip"),
        ColumnSchema("x", "numeric"),
        ColumnSchema("Target", "target", allowed_values=("A", "B")),
    ]
    path = _write(tmp_path, "d.csv", "id,x,Target\nr1,1.0,A\n")
    ds = load_csv(path, schema)
    assert ds.feature_names == ("x",)
    assert ds.columns == tuple(schema)


def test_load_csv_without_target(tmp_path):
    path = _write(tmp_path, "d.csv", "x\n1.5\n2.5\n")
    ds = load_csv(path, BASIC_SCHEMA, require_target=False)
    assert ds.n_rows == 2
    assert ds.targets.size == 0


def test_load_csv_quoted_cells(tmp_path):
    schema = [
        ColumnSchema("name", "categorical"),
        ColumnSchema("Target", "target", allowed_values=("A", "B")),
    ]
    path = _write(tmp_path, "d.csv", 'name,Target\n"ann, lee",A\nbob,B\n')
    ds = load_csv(path, schema)
    assert ds.feature_names == ("name=ann, lee", "name=bob")


def _assert_same_dataset(a, b):
    assert np.array_equal(assemble(a), assemble(b))
    assert [v.dtype for v in a.features.values()] == [v.dtype for v in b.features.values()]
    assert a.targets.tolist() == b.targets.tolist()
    assert a.feature_names == b.feature_names
    assert a.class_names == b.class_names
    assert a.columns == b.columns


# each chunk takes its own path: a row holding a quoted cell sends its chunk
# through csv.reader, and chunks of plain rows go to numpy's reader
_PATH_ROW = {"split": "1.0,A\n", "csv-reader": '"1.0",A\n'}


@pytest.mark.parametrize("path_kind", list(_PATH_ROW))
@pytest.mark.parametrize(
    "row, error, message",
    [
        ("1.0,A,x", ParseError, "row {row} has 3 values, expected 2"),
        ("1.0", ParseError, "row {row} has 1 values, expected 2"),
        ("", ParseError, "row {row} has 0 values, expected 2"),
        ("oops,B", ParseError, "row {row}, column 'x': cannot parse 'oops' as a number"),
        ("inf,B", ParseError, "row {row}, column 'x': non-finite value 'inf'"),
        ("nan,B", ParseError, "row {row}, column 'x': non-finite value 'nan'"),
        ("1.0,C", LabelError, "row {row}, target 'Target': value 'C' not in allowed_values"),
        ("y" * 131_073 + ",A", ParseError, "line {line}: field larger than field limit (131072)"),
    ],
    ids=[
        "extra-field", "missing-field", "blank-line", "bad-number", "inf", "nan", "label",
        "over-limit",
    ],
)
def test_load_csv_error_past_the_first_chunk_names_file_and_row(
    tmp_path, path_kind, row, error, message
):
    n = data_mod.CHUNK_ROWS
    text = "x,Target\n1.0,A\n" + "2.0,B\n" * (n - 1) + row + "\n" + _PATH_ROW[path_kind]
    path = _write(tmp_path, "d.csv", text)
    expected = message.format(row=n + 1, line=n + 2)
    with warnings.catch_warnings():  # numpy's reader warns when it skips a blank line
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {expected}')}$"):
            load_csv(path, BASIC_SCHEMA)


_NOTE_SCHEMA = [ColumnSchema("note", "skip"), *BASIC_SCHEMA]


@pytest.mark.parametrize("note", ["e", '"e"'], ids=list(_PATH_ROW))
@pytest.mark.parametrize(
    "row, error, message",
    [
        (",1.0,A,x", ParseError, "row 4 has 4 values, expected 3"),
        (",oops,B", ParseError, "row 4, column 'x': cannot parse 'oops' as a number"),
        (",1.0,C", LabelError, "row 4, target 'Target': value 'C' not in allowed_values"),
        ("," + "y" * 131_073 + ",A", ParseError, "line 6: field larger than field limit (131072)"),
    ],
    ids=["extra-field", "bad-number", "label", "over-limit"],
)
def test_load_csv_quoted_line_end_across_chunks_names_row_and_line(
    tmp_path, note, row, error, message
):
    """A quoted cell open on a chunk's last line is read on to its close, so
    in the next chunk, plain or quoted, rows and lines differ: row 4 is on
    line 6."""
    head = 'note,x,Target\na,1.0,A\n"b\nc",2.0,B\nd,3.0,A\n'
    plain = _write(tmp_path, "ok.csv", head + note + ",4.0,B\n")
    bad = _write(tmp_path, "d.csv", head + note + row + "\n")
    with mock.patch.object(data_mod, "CHUNK_ROWS", 2):
        ds = load_csv(plain, _NOTE_SCHEMA)
        assert assemble(ds).tolist() == [[1.0], [2.0], [3.0], [4.0]]
        assert ds.targets.tolist() == [0, 1, 0, 1]
        with pytest.raises(error, match=f"^{re.escape(f'{bad}: {message}')}$"):
            load_csv(bad, _NOTE_SCHEMA)


def test_load_csv_quoted_cell_open_at_a_chunk_end_into_non_utf8(tmp_path):
    """csv.reader reading on past a chunk to close a quoted cell is the one
    reader that meets text not yet decoded, here past the file's first
    100 kB."""
    path = tmp_path / "d.csv"
    path.write_bytes(b'note,x,Target\na,1.0,A\n"b\n' + b"c" * 100_000 + b'\xff",2.0,B\n')
    message = f"{path}: not UTF-8 after line 3 (invalid start byte)"
    with mock.patch.object(data_mod, "CHUNK_ROWS", 2):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_csv(path, _NOTE_SCHEMA)


# one column: a blank line has as many commas as a one-value row
@pytest.mark.parametrize("first", ["1.5", '"1.5"'], ids=list(_PATH_ROW))
def test_load_csv_blank_line_in_a_one_column_file(tmp_path, first):
    path = _write(tmp_path, "d.csv", f"x\n{first}\n\n2.5\n")
    with pytest.raises(ParseError, match="row 2 has 0 values, expected 1"):
        load_csv(path, BASIC_SCHEMA, require_target=False)


@pytest.mark.parametrize("late", ["green", '"green"'], ids=["split", "quote-in-second-chunk"])
def test_load_csv_open_categorical_first_seen_in_a_later_chunk(tmp_path, late):
    schema = [ColumnSchema("c", "categorical"), ColumnSchema("Target", "target")]
    n = data_mod.CHUNK_ROWS
    c = ["red", "blue"] * (n // 2) + ["green", "red", "blue"]
    target = ["yes"] * n + ["no", "yes", "no"]
    text = "c,Target\n" + "".join(f"{v},{t}\n" for v, t in zip(c, target))
    text = text.replace("\ngreen,", f"\n{late},")
    ds = load_csv(_write(tmp_path, "d.csv", text), schema)
    assert ds.columns == (
        ColumnSchema("c", "categorical", ("red", "blue", "green")),
        ColumnSchema("Target", "target", ("yes", "no")),
    )
    _assert_same_dataset(ds, encode_columns(schema, {"c": c, "Target": target}))


@pytest.mark.parametrize("path_kind", list(_PATH_ROW))
def test_load_csv_non_utf8_past_the_first_chunk(tmp_path, path_kind):
    path = tmp_path / "d.csv"
    first = _PATH_ROW[path_kind].encode()
    path.write_bytes(b"x,Target\n" + first + b"2.0,B\n" * 20_000 + b"\xff,A\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not UTF-8 after line "):
        load_csv(path, BASIC_SCHEMA)


@pytest.mark.parametrize(
    "text, chunk_rows, line",
    [
        (b"x,Target\n" + b"2.0,B\n" * 101 + b"\xff,A\n", 8192, 102),
        (b"x,Target\n" + b"2.0,B\n" * 5001 + b"\xff,A\n", 8192, 5002),
        (b"x,Target\r" + b"2.0,B\r" * 2000 + b"2.0,\xff\r", 8192, 2001),
        (b'x,Target\n2.0,B\n"3.0\n' + b"4\n" * 20_000 + b'\xff",A\n', 2, 20_003),
    ],
    ids=["101-rows", "5001-rows", "cr-line-ends", "quoted-cell-read-on"],
)
def test_load_csv_non_utf8_names_the_line_before_the_bad_byte(tmp_path, text, chunk_rows, line):
    """The text layer decodes the file in blocks; the message still names
    the last line before the bad byte, counting lines as that layer does."""
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    message = f"{path}: not UTF-8 after line {line} ("
    with mock.patch.object(data_mod, "CHUNK_ROWS", chunk_rows):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
            load_csv(path, BASIC_SCHEMA)


@pytest.mark.parametrize("first", ["1.0,A", '"1.0",A'], ids=list(_PATH_ROW))
@pytest.mark.parametrize("row2", ["oops,B", "1.0"], ids=["bad-number", "short-row"])
def test_load_csv_reports_line_faults_before_cell_faults(tmp_path, first, row2):
    """In one chunk, a cell over the field size limit on line 5 is reported
    before a bad number or a short row on row 2 (line 3)."""
    text = f"x,Target\n{first}\n{row2}\n2.0,B\n{'y' * 131_073},A\n"
    path = _write(tmp_path, "d.csv", text)
    message = f"{path}: line 5: field larger than field limit (131072)"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_csv(path, BASIC_SCHEMA)


def _reference_load(path, schema, require_target):
    """load_csv as one csv.reader pass plus encode_columns, or None where it
    must raise."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return None
    header, body = rows[0], rows[1:]
    names = {c.name for c in schema}
    allowed = [names] if require_target else [names, names - {"Target"}]
    if len(set(header)) != len(header) or set(header) not in allowed:
        return None
    if any(len(row) != len(header) for row in body):
        return None
    cells = {name: [row[j] for row in body] for j, name in enumerate(header)}
    for c in schema:
        if c.kind == "numeric":
            try:
                cells[c.name] = [float(v) for v in cells[c.name]]
            except ValueError:
                return None
            if not all(map(math.isfinite, cells[c.name])):
                return None
    try:
        return encode_columns(schema, cells, require_target)
    except EdulearnError:
        return None


# per column: plain cells, cells that quote or hold a quote, and faulty cells.
# The pools include cells on which numpy's text reader and float() or
# str.split could disagree: non-ASCII digits, Unicode and ASCII padding, '#'
# (numpy's default comment mark) and control characters. float() rejects the
# padding \x1c-\x1f, which numpy's reader strips, so those are faults.
_PROPERTY_CELLS = {
    "id": (["r1", "", "r 2"], ['"q,r"', '"r1"'], []),
    "x": (
        ["1.5", "-2", "0", " 4", "1e3", "1_0", "١٢", "\xa04\xa0", "+.5", " 4 "],
        ['"3.5"'],
        ["", "nan", "inf", "1e999", "oops", "\x1c4", "4\x1f"],
    ),
    "c": (
        ["red", "blue", "green", "", "yes\x00", "#red", "a#b", "a\x0bb", "a b"],
        ['"red"', '"a,b"', '"x""y"', 'x"y'],
        ["pink", "greenish"],
    ),
    "Target": (["A", "B"], ['"A"', '"B\r\nB"'], ["C", '"\r"']),
}


@st.composite
def _csv_texts(draw):
    """CSV text over the columns id/x/c/Target. Quoted cells and CR line ends
    (the csv.reader path) and faults each come in about half the texts. The
    faults: empty, nan/inf and unparsable numbers, unknown and over-long
    labels (cut short in numpy's string cells), ragged rows, blank lines, a
    BOM, and duplicate, missing or quoted header names."""
    quoted, faulty = draw(st.booleans()), draw(st.booleans())
    pools = {
        name: st.sampled_from(plain + quotes * quoted + faults * faulty)
        for name, (plain, quotes, faults) in _PROPERTY_CELLS.items()
    }
    names = draw(st.permutations(list(pools)))
    if faulty:
        names = draw(
            st.sampled_from(
                [names, names[:-1], [*names, names[0]], [f'"{names[0]}"', *names[1:]], names[1:]]
            )
        )
    rows = []
    for _ in range(draw(st.integers(0, 7))):
        cells = [draw(pools.get(n.strip('"'), st.just("1"))) for n in names]
        if faulty:
            cells = draw(st.sampled_from([cells, cells, cells, [], cells[:-1], [*cells, "1"]]))
        rows.append(",".join(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"] if quoted else ["\n"]))
    text = end.join([",".join(names), *rows]) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["", "\ufeff"] if faulty else [""])) + text


_PINNED_C = ("red", "blue", "green", "a,b", 'x"y', "", "#red", "a#b", "a\x0bb", "a b")


@settings(deadline=None, max_examples=300)
@given(
    _csv_texts(),
    st.sampled_from([None, (*_PINNED_C, "yes\x00"), _PINNED_C]),
    st.sampled_from([None, ("A", "B")]),
    st.booleans(),
    st.sampled_from([1, 2, 3, 8192]),
)
# a cell that numpy's string field cuts to 'greeni', which still matches nothing
@example("id,x,c,Target\nr1,1.5,red,A\nr2,-2,greenish,B\n", _PINNED_C, ("A", "B"), True, 8192)
def test_load_csv_matches_csv_reader_or_raises_edulearn_error(
    tmp_path_factory, text, categories, classes, require_target, chunk_rows
):
    schema = [
        ColumnSchema("id", "skip"),
        ColumnSchema("x", "numeric"),
        ColumnSchema("c", "categorical", categories),
        ColumnSchema("Target", "target", classes),
    ]
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _reference_load(path, schema, require_target)
    with mock.patch.object(data_mod, "CHUNK_ROWS", chunk_rows):
        if expected is None:
            with pytest.raises(EdulearnError):
                load_csv(path, schema, require_target)
        else:
            _assert_same_dataset(load_csv(path, schema, require_target), expected)


# the first fault in a row is the one in the earliest schema column
_COLOR = ColumnSchema("c", "categorical", ("red", "blue"))
_LABEL_THEN_NUMBER = [_COLOR, *BASIC_SCHEMA]
_NUMBER_THEN_LABEL = [BASIC_SCHEMA[0], _COLOR, BASIC_SCHEMA[1]]


@pytest.mark.parametrize("path_kind", list(_PATH_ROW))
@pytest.mark.parametrize(
    "schema, message",
    [
        (_LABEL_THEN_NUMBER, "row 3, column 'c': value 'pink' not in allowed_values"),
        (_NUMBER_THEN_LABEL, "row 3, column 'x': cannot parse 'oops' as a number"),
    ],
    ids=["label-first", "number-first"],
)
def test_load_csv_reports_the_fault_of_the_earlier_schema_column(
    tmp_path, path_kind, schema, message
):
    first = {"split": "red,1.0,A\n", "csv-reader": 'red,"1.0",A\n'}[path_kind]
    text = "c,x,Target\n" + first + "blue,2.0,B\npink,oops,A\nred,1.0,B\n"
    path = _write(tmp_path, "d.csv", text)
    with pytest.raises((LabelError, ParseError), match=f"^{re.escape(f'{path}: {message}')}$"):
        load_csv(path, schema)


# numpy's reader holds a pinned column's cells one character wider than its
# longest value, so a longer cell is cut short; the fault names it whole
@pytest.mark.parametrize("path_kind", list(_PATH_ROW))
@pytest.mark.parametrize("row", [2, data_mod.CHUNK_ROWS + 2], ids=["first-chunk", "later-chunk"])
@pytest.mark.parametrize(
    "cells, message",
    [
        ("blue-ish,{x},B", "column 'c': value 'blue-ish' not in allowed_values"),
        ("blue,{x},Bee", "target 'Target': value 'Bee' not in allowed_values"),
        ("blue ,{x},B", "column 'c': value 'blue ' not in allowed_values"),
    ],
    ids=["categorical", "target", "trailing-space"],
)
def test_load_csv_over_long_cell_of_a_pinned_column_is_named_whole(
    tmp_path, path_kind, row, cells, message
):
    x = {"split": "2.0", "csv-reader": '"2.0"'}[path_kind]
    rows = ["red,1.0,A"] * (row + 1)
    rows[row - 1] = cells.format(x=x)
    path = _write(tmp_path, "d.csv", "c,x,Target\n" + "\n".join(rows) + "\n")
    with pytest.raises(LabelError, match=f"^{re.escape(f'{path}: row {row}, {message}')}$"):
        load_csv(path, _LABEL_THEN_NUMBER)


def test_load_csv_pinned_value_holding_a_nul_loads_exactly(tmp_path):
    # numpy strings drop a trailing NUL: 'yes' in a chunk without a NUL must
    # not read as 'yes\x00'
    schema = [ColumnSchema("c", "categorical", ("no", "yes\x00")), *BASIC_SCHEMA]
    path = _write(tmp_path, "d.csv", "c,x,Target\nno,1.0,A\nyes\x00,2.0,B\n")
    ds = load_csv(path, schema)
    assert ds.features["c"].tolist() == [0, 1] and ds.targets.tolist() == [0, 1]
    path = _write(tmp_path, "e.csv", "c,x,Target\nno,1.0,A\nyes,2.0,B\n")
    message = f"{path}: row 2, column 'c': value 'yes' not in allowed_values"
    with pytest.raises(LabelError, match=f"^{re.escape(message)}$"):
        load_csv(path, schema)


def test_load_csv_pinned_values_past_the_string_cap_load_exactly(tmp_path):
    values = ("a" * 65, "b" * 300, "c")
    schema = [ColumnSchema("c", "categorical", values), *BASIC_SCHEMA]
    rows = [f"{v},{i}.0,{'AB'[i % 2]}\n" for i, v in enumerate([*values, "c", values[1]])]
    ds = load_csv(_write(tmp_path, "d.csv", "c,x,Target\n" + "".join(rows)), schema)
    assert ds.features["c"].tolist() == [0, 1, 2, 2, 1]
    assert ds.features["x"].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    path = _write(tmp_path, "e.csv", "c,x,Target\nc,1.0,A\n" + "a" * 64 + ",2.0,B\n")
    message = f"{path}: row 2, column 'c': value '{'a' * 64}' not in allowed_values"
    with pytest.raises(LabelError, match=f"^{re.escape(message)}$"):
        load_csv(path, schema)


@pytest.mark.parametrize(
    "schema, require_target, text, cells",
    [
        (
            [ColumnSchema("c", "categorical"), ColumnSchema("Target", "target")],
            True,
            "c,Target\nred,A\nblue,B\nred,B\n",
            {"c": ["red", "blue", "red"], "Target": ["A", "B", "B"]},
        ),
        (
            [ColumnSchema("id", "skip"), *BASIC_SCHEMA],
            False,
            "id,x\nr1,1.5\nr2,-2\nr3,1e3\n",
            {"x": [1.5, -2.0, 1e3]},
        ),
    ],
    ids=["no-numeric-column", "no-categorical-column"],
)
def test_load_csv_schema_without_a_column_kind(tmp_path, schema, require_target, text, cells):
    ds = load_csv(_write(tmp_path, "d.csv", text), schema, require_target)
    _assert_same_dataset(ds, encode_columns(schema, cells, require_target))


_FLOAT_CASES = [5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, -0.0, 0.0,
                0.1 + 0.2, 1 / 3, 1.7976931348623157e308, -1e-320, 2.0**53 + 2.0]


@settings(deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example(_FLOAT_CASES)
def test_load_csv_reads_float_reprs_bit_exact(tmp_path_factory, values):
    # repr is the shortest round-tripping form; %.17g is 17 digits, often longer
    rows = "".join(f"{v!r},{v:.17g}\n" for v in values)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text("x,y\n" + rows, encoding="utf-8")
    schema = [ColumnSchema("x", "numeric"), ColumnSchema("y", "numeric"),
              ColumnSchema("Target", "target", ("A",))]
    ds = load_csv(path, schema, require_target=False)
    want = np.array(values, dtype=np.float64).view(np.int64)
    assert ds.features["x"].view(np.int64).tolist() == want.tolist()
    assert ds.features["y"].view(np.int64).tolist() == want.tolist()


_NUMBER_TEXT = "0123456789+-.eE_ \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2003١٢infaINF\x00"


def _number_fault(row, cell):
    """load_csv's message for number cell ``cell`` at ``row``, or None."""
    try:
        value = float(cell)
    except ValueError:
        return f"row {row}, column 'x': cannot parse '{cell}' as a number"
    return None if math.isfinite(value) else f"row {row}, column 'x': non-finite value '{cell}'"


@settings(deadline=None, max_examples=300)
@given(st.lists(st.text(_NUMBER_TEXT, max_size=6), min_size=1, max_size=6))
@example(["1.5", "\x1c4"])
@example(["4\x1f", "1_0"])
@example(["+.5", "\xa04\xa0", "١٢", " 4 ", "\u20034", "4\x85"])
def test_load_csv_reads_numbers_as_float_does(tmp_path_factory, cells):
    """Every number cell loads to float()'s value; the first cell float()
    rejects, or reads as not finite, is the ParseError."""
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text("x\n" + "".join(f"{c}\n" for c in cells), encoding="utf-8")
    faults = [f for f in map(_number_fault, range(1, len(cells) + 1), cells) if f]
    if "" in cells:  # a row of one empty cell is a blank line, found before any number
        faults.insert(0, f"row {cells.index('') + 1} has 0 values, expected 1")
    if not faults:
        ds = load_csv(path, BASIC_SCHEMA, require_target=False)
        assert ds.features["x"].tobytes() == np.array(list(map(float, cells))).tobytes()
        return
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {faults[0]}')}$"):
        load_csv(path, BASIC_SCHEMA, require_target=False)


@pytest.mark.parametrize("c0", ["a\x1cb", "a"], ids=["separator-cell", "plain-cell"])
def test_load_csv_per_cell_chunk(tmp_path, c0):
    """A chunk holding a \\x1c-\\x1f cell, or a number numpy's reader rejects
    (1_0), is split by csv.reader and read per cell: its numbers load as
    float() reads them, and a fault in it names its row and cell."""
    schema = [
        ColumnSchema("x", "numeric"),
        ColumnSchema("c", "categorical"),
        ColumnSchema("Target", "target", ("A", "B")),
    ]
    path = _write(tmp_path, "d.csv", f"x,c,Target\n1_0,{c0},A\n2.5,b,B\n")
    ds = load_csv(path, schema)
    assert ds.feature_names == ("x", f"c={c0}", "c=b")
    assert assemble(ds).tolist() == [[10.0, 1.0, 0.0], [2.5, 0.0, 1.0]]
    assert ds.targets.tolist() == [0, 1]
    path = _write(tmp_path, "e.csv", f"x,c,Target\n1_0,{c0},A\n1__0,b,B\n")
    message = f"{path}: row 2, column 'x': cannot parse '1__0' as a number"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_csv(path, schema)


def _toy_dataset(n):
    return Dataset(
        features={"x": np.arange(n, dtype=float)},
        targets=np.zeros(n, dtype=np.int64),
        columns=BASIC_SCHEMA,
    )


def test_split_sizes():
    train, test = split(_toy_dataset(10), SplitSpec(0.7, seed=1))
    assert train.n_rows == 7 and test.n_rows == 3


def test_split_sizes_case_study_scale():
    train, test = split(_toy_dataset(76_519), SplitSpec(0.7, seed=1))
    assert train.n_rows == 53_563 and test.n_rows == 22_956


def test_split_deterministic():
    ds = _toy_dataset(40)
    a1, b1 = split(ds, SplitSpec(0.7, seed=9))
    a2, b2 = split(ds, SplitSpec(0.7, seed=9))
    assert np.array_equal(a1.features["x"], a2.features["x"])
    assert np.array_equal(b1.features["x"], b2.features["x"])


def test_split_partitions_rows():
    ds = _toy_dataset(23)
    train, test = split(ds, SplitSpec(0.6, seed=3))
    seen = sorted(train.features["x"].tolist() + test.features["x"].tolist())
    assert seen == list(range(23))


def test_split_seeds_differ():
    ds = _toy_dataset(20)
    a1, _ = split(ds, SplitSpec(0.5, seed=0))
    a2, _ = split(ds, SplitSpec(0.5, seed=1))
    assert not np.array_equal(a1.features["x"], a2.features["x"])


def test_split_takes_the_rows_of_split_indices():
    ds = _toy_dataset(31)
    train_rows, test_rows = split_indices(31, SplitSpec(0.7, seed=4))
    train, test = split(ds, SplitSpec(0.7, seed=4))
    assert len(train_rows) == 22 and len(test_rows) == 9  # round-half-up of 21.7
    assert train.features["x"].tolist() == train_rows.tolist()
    assert test.features["x"].tolist() == test_rows.tolist()
    for n, fraction in ((1, 0.5), (2, 0.05), (2, 0.95)):
        with pytest.raises(SplitError):
            split_indices(n, SplitSpec(fraction, seed=0))


def test_split_errors():
    with pytest.raises(SplitError):
        split(_toy_dataset(1), SplitSpec(0.5, seed=0))
    with pytest.raises(SplitError):
        split(_toy_dataset(2), SplitSpec(0.05, seed=0))  # train side would be empty
    with pytest.raises(ParameterError):
        SplitSpec(1.0, seed=0)


def test_fit_scaler_values():
    params = fit_scaler([[1.0], [2.0], [3.0]])
    assert params.means.tolist() == [2.0]
    assert params.stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_fit_scaler_constant_column_clamped():
    params = fit_scaler([[5.0], [5.0], [5.0]])
    assert params.means.tolist() == [5.0]
    assert params.stds.tolist() == [1.0]


def test_fit_scaler_single_row():
    params = fit_scaler([[0.0]])
    assert params.means.tolist() == [0.0]
    assert params.stds.tolist() == [1.0]


@settings(deadline=None, max_examples=50)
@given(n=st.integers(1, 300), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_fit_scaler_bits_do_not_depend_on_the_layout(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, d) + rng.uniform(-50.0, 50.0, d)
    means = x.mean(axis=0)
    stds = np.sqrt(np.mean((x - means) ** 2, axis=0))
    stds = np.where(stds < 1e-12, 1.0, stds)
    for view in (x, np.ascontiguousarray(x.T).T):  # row-major, and feature-major's .T
        params = fit_scaler(view)
        assert params.means.tobytes() == means.tobytes()
        assert params.stds.tobytes() == stds.tobytes()


def test_assemble_selects_rows_in_either_layout():
    schema = [
        ColumnSchema("c", "categorical", ("u", "v", "w")),
        ColumnSchema("x", "numeric"),
        ColumnSchema("Target", "target", ("A", "B")),
    ]
    cells = {"c": list("wuvw"), "x": [1.0, 2.0, 3.0, 4.0], "Target": list("ABAB")}
    ds = encode_columns(schema, cells)
    assert ds.features["c"].tolist() == [2, 0, 1, 2] and ds.features["c"].dtype == np.uint8
    whole = assemble(ds)
    assert whole.tolist() == [[0, 0, 1, 1], [1, 0, 0, 2], [0, 1, 0, 3], [0, 0, 1, 4]]
    rows = np.array([3, 0, 2])
    assert np.array_equal(assemble(ds, rows), whole[rows])
    xt = assemble(ds, rows, feature_major=True)
    assert xt.flags.c_contiguous and xt.flags.writeable
    assert np.array_equal(xt, whole[rows].T)
    with pytest.raises(LabelError, match="'c'"):
        Dataset(features={"c": np.array([3]), "x": [1.0]}, targets=[], columns=schema)
    with pytest.raises(DimensionError):
        Dataset(features={"c": np.array([0]), "x": [1.0, 2.0]}, targets=[], columns=schema)


def test_transform_values():
    x = [[1.0], [2.0], [3.0]]
    out = transform(fit_scaler(x), x)[:, 0]
    assert out == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)


def test_transform_standardizes():
    rng = np.random.default_rng(4)
    x = rng.normal(3.0, 2.5, size=(200, 4))
    out = transform(fit_scaler(x), x)
    assert np.max(np.abs(out.mean(axis=0))) <= 1e-9
    assert np.max(np.abs(np.sqrt((out**2).mean(axis=0)) - 1.0)) <= 1e-9


def test_transform_identity_params():
    params = ScalerParams(means=np.array([0.0, 0.0]), stds=np.array([1.0, 1.0]))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(transform(params, x), x)


def test_standardize_in_place_traces_one_block_not_the_matrix():
    # scaling the .T view of a feature-major matrix in place, as fit_dataset
    # does: the finiteness check holds one CHUNK_ROWS block's mask (~0.03 of
    # the matrix's bytes). Masking the whole matrix traced 0.125
    xt = np.random.default_rng(5).normal(size=(61, 40_000))
    scaler = fit_scaler(xt.T)
    standardize(scaler, xt.T[:10], np.empty((10, 61)))  # takes the one-time costs out
    tracemalloc.start()
    try:
        standardize(scaler, xt.T, xt.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.05 * xt.nbytes


def test_standardize_names_the_first_row_that_overflows():
    # the first in row order, in a later block of the check, ahead of a
    # value further down in an earlier column
    n = 2 * data_mod.CHUNK_ROWS + 7
    x = np.zeros((n, 4))
    x[data_mod.CHUNK_ROWS + 5, 2] = x[data_mod.CHUNK_ROWS + 9, 0] = 1e308
    params = ScalerParams(means=np.full(4, -1e308), stds=np.ones(4))
    with pytest.raises(DegenerateDataError,
                       match=rf"row {data_mod.CHUNK_ROWS + 6}, feature column 3 "):
        standardize(params, x, x)


def test_one_hot_rows_sum_to_one(tmp_path):
    rng = np.random.default_rng(6)
    values = rng.choice(["a", "b", "c"], size=30)
    text = "c,Target\n" + "".join(f"{v},A\n" for v in values)
    schema = [
        ColumnSchema("c", "categorical"),
        ColumnSchema("Target", "target", allowed_values=("A",)),
    ]
    ds = load_csv(_write(tmp_path, "d.csv", text), schema)
    assert np.allclose(assemble(ds).sum(axis=1), 1.0)


def test_schema_round_trip(tmp_path):
    columns = [
        ColumnSchema("id", "skip"),
        ColumnSchema("x", "numeric"),
        ColumnSchema("c", "categorical", allowed_values=("u", "v")),
        ColumnSchema("Target", "target", allowed_values=("A", "B")),
    ]
    path = _write(tmp_path, "schema.json", dumps_canonical(schema_to_doc(columns)) + "\n")
    assert read_schema(path) == columns


def test_schema_version_checked(tmp_path):
    path = _write(tmp_path, "s.json", '{"schema_version": 99, "columns": []}')
    with pytest.raises(SchemaError):
        read_schema(path)
    # malformed documents are SchemaErrors too, not KeyError/AttributeError
    for text in (
        "not json",
        '{"schema_version": 1, "columns": {"name": "x", "kind": "numeric"}}',
        '{"schema_version": 1, "columns": [1]}',
        '{"schema_version": 1, "columns": [{"name": "x"}]}',
        '{"schema_version": 1, "columns": [{"kind": "numeric"}]}',
        '{"schema_version": 1, "columns": [{"name": "c", "kind": "categorical", '
        '"allowed_values": "ab"}]}',
    ):
        with pytest.raises(SchemaError):
            read_schema(_write(tmp_path, "s.json", text))


def test_schema_validation():
    with pytest.raises(SchemaError):
        ColumnSchema("x", "strange")
    with pytest.raises(SchemaError):
        ColumnSchema("x", "numeric", allowed_values=("a",))
    with pytest.raises(SchemaError):
        ColumnSchema("c", "categorical", allowed_values=("a", "a"))
    with pytest.raises(SchemaError):
        schema_to_doc([ColumnSchema("x", "numeric")])  # no target
    with pytest.raises(SchemaError, match="no feature column"):
        schema_to_doc([ColumnSchema("id", "skip"), ColumnSchema("y", "target")])
    # a lone CR in a class name would break predictions.csv; CRLF is quoted
    with pytest.raises(SchemaError, match="'Target'.*lone carriage return"):
        ColumnSchema("Target", "target", allowed_values=("ok", "x\r"))
    assert ColumnSchema("Target", "target", allowed_values=("a\r\nb",)).allowed_values
    assert ColumnSchema("c", "categorical", allowed_values=("a\rb",)).allowed_values


def test_resolved_schema_pins_observed_orders(tmp_path):
    schema = [
        ColumnSchema("c", "categorical"),
        ColumnSchema("x", "numeric"),
        ColumnSchema("Target", "target"),
    ]
    path = _write(tmp_path, "d.csv", "c,x,Target\nred,1,yes\nblue,2,no\nred,3,yes\n")
    ds = load_csv(path, schema)
    resolved = ds.columns
    assert resolved[0].allowed_values == ("red", "blue")
    assert resolved[1].allowed_values is None
    assert resolved[2].allowed_values == ("yes", "no")

import builtins
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from conftest import cli_env, report_schema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edulearn import cli, errors, pipelines
from edulearn import data as data_mod
from edulearn.classify import LogisticModel, OptimizerConfig, compute_metrics, predict, predict_proba
from edulearn.data import ColumnSchema, ScalerParams, assemble, load_csv, transform
from edulearn.errors import ParameterError
from edulearn.cli import dumps_canonical, main, model_from_doc


def run_cli(args, cwd, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "edulearn", *args],
        cwd=cwd,
        env=cli_env(env_extra),
        capture_output=True,
        text=True,
    )


_finite = st.floats(allow_nan=False, allow_infinity=False)
_finite_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _model_parts(draw):
    """Weights, intercepts, scaler means and scaler stds of a binary (one
    weight row) or three-class model: any finite values, positive stds."""
    d = draw(st.integers(1, 5))
    k = draw(st.sampled_from([1, 3]))
    row = st.lists(_finite, min_size=d, max_size=d)
    return (
        draw(st.lists(row, min_size=k, max_size=k)),
        draw(st.lists(_finite, min_size=k, max_size=k)),
        draw(row),
        draw(st.lists(_finite_positive, min_size=d, max_size=d)),
    )


@settings(deadline=None)
@given(_model_parts())
@example(([[0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0]], [-0.0],
          [-0.0, 0.1, 1.0 / 3.0, 1e-300, 123456.789], [0.1, 1.0 / 3.0, 1e-300, 123456.789, 1.0]))
@example(([[5e-324, -2.2250738585072014e-308, 1e308], [3.0, -0.0, 2.0**53],
           [1e16, -1.7976931348623157e308, -7.0]], [-0.0, 1e308, 42.0],
          [5e-324, -1e308, 0.0], [5e-324, 1e308, 2.0]))
def test_model_doc_round_trips_exactly(parts):
    weights, intercepts, means, stds = parts
    class_names = ("a", "b") if len(intercepts) == 1 else ("a", "b", "c")
    model = LogisticModel(weights, intercepts, class_names, True, 1)
    scaler = ScalerParams(means, stds)
    features = tuple(f"f{j}" for j in range(len(means)))
    schema = (*(ColumnSchema(f, "numeric") for f in features),
              ColumnSchema("Target", "target", class_names))
    bundle = pipelines.FitBundle(model, scaler, features, "academic", schema)
    text = dumps_canonical(cli.model_to_doc(bundle, OptimizerConfig()))
    back = model_from_doc(json.loads(text))
    assert (back.feature_names, back.task, back.schema) == (features, "academic", schema)
    for a, b in (
        (model.weights, back.model.weights),
        (model.intercepts, back.model.intercepts),
        (scaler.means, back.scaler.means),
        (scaler.stds, back.scaler.stds),
    ):
        assert a.tobytes() == b.tobytes()


_csv_cell = st.one_of(st.text(max_size=6), st.text(alphabet='ab ,"\r\n', max_size=4))
_float_cell = st.one_of(
    st.floats(), st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 0.1])
)


@st.composite
def _csv_tables(draw):
    """Rows for csv.writer (floats as their repr), and the same table as a
    header and columns for data.csv_pieces: two to four cells a row, each
    column of strings or of floats."""
    width, n_rows = draw(st.integers(2, 4)), draw(st.integers(0, 9))
    header = draw(st.lists(_csv_cell, min_size=width, max_size=width))
    floats = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    columns = [draw(st.lists(_float_cell if f else _csv_cell, min_size=n_rows, max_size=n_rows))
               for f in floats]
    rows = [header, *zip(*(map(repr, c) if f else c for c, f in zip(columns, floats)))]
    return rows, header, [
        np.array(c, np.float64) if f else data_mod.csv_cells(c) for c, f in zip(columns, floats)
    ]


@st.composite
def _string_rows(draw):
    """Rows of two to four strings, all of one width: the rows the writer
    takes as a header and columns of csv_cells text."""
    width = draw(st.integers(2, 4))
    return draw(st.lists(st.lists(_csv_cell, min_size=width, max_size=width),
                         min_size=1, max_size=5))


@given(_string_rows())
@example([["row", "p_a"], ["0", "0.5"]])
@example([["drop, early", 'say "hi"'], ["", ""], ["a\nb", "c\rd"]])
def test_csv_text_is_what_csv_writer_writes(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    header, *body = rows
    columns = [data_mod.csv_cells(c) for c in zip(*body)] if body else [
        data_mod.csv_cells([]) for _ in header
    ]
    assert "".join(data_mod.csv_pieces(header, columns)) == buf.getvalue()


@given(_csv_tables(), st.integers(1, 4))
@example(([["row", "p_a"], ["0", "0.5"], ["1", "a,b"], ["2", "0.25"]], ["row", "p_a"],
          [np.arange(3), data_mod.csv_cells(["0.5", "a,b", "0.25"])]), 2)
@example(([["drop, early", 'say "hi"'], ["a\nb", "c\rd"], ["", ""]], ["drop, early", 'say "hi"'],
          [data_mod.csv_cells(["a\nb", ""]), data_mod.csv_cells(["c\rd", ""])]), 1)
def test_csv_pieces_join_to_what_csv_writer_writes(table, block_rows):
    rows, header, columns = table
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    with mock.patch.object(data_mod, "CSV_BLOCK_ROWS", block_rows):
        assert "".join(data_mod.csv_pieces(header, columns)) == buf.getvalue()


@given(st.lists(_float_cell, max_size=40))
@example([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
          -1e-310, 0.1, 0.1, -0.0, 1e16, 1.7976931348623157e308])
def test_number_cells_are_the_repr_of_each_value(values):
    a = np.array(values, np.float64)
    assert data_mod._number_cells(a) == list(map(repr, values))
    # a strided column, as predict takes each class's probabilities
    assert data_mod._number_cells(np.stack([a, a], axis=1)[:, 1]) == list(map(repr, values))
    ints = [int(v) for v in values if abs(v) < 2.0**63] + [-(2**63), 2**63 - 1]
    assert data_mod._number_cells(np.array(ints, np.int64)) == list(map(repr, ints))


def test_dumps_canonical_shapes():
    doc = {"a": 1, "b": [1.5, True, None], "c": {"d": "x"}}
    text = dumps_canonical(doc)
    assert json.loads(text) == {"a": 1, "b": [1.5, True, None], "c": {"d": "x"}}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dumps_canonical_rejects_non_finite(value):
    with pytest.raises(ValueError):
        dumps_canonical({"x": value})


def test_generate_style_deterministic(tmp_path):
    r1 = run_cli(["generate", "--kind", "style", "--n", "10", "--seed", "7", "--out", "a_"], tmp_path)
    r2 = run_cli(["generate", "--kind", "style", "--n", "10", "--seed", "7", "--out", "b_"], tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    assert (tmp_path / "a_data.csv").read_bytes() == (tmp_path / "b_data.csv").read_bytes()
    assert (tmp_path / "a_schema.json").read_bytes() == (tmp_path / "b_schema.json").read_bytes()
    assert len((tmp_path / "a_data.csv").read_text().splitlines()) == 31  # header + 10*3 rows
    assert r1.stdout.startswith("wrote 30 rows to a_data.csv")


def test_generate_academic_has_35_predictors(tmp_path):
    r = run_cli(["generate", "--kind", "academic", "--n", "50", "--seed", "1", "--out", "g_"], tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "g_data.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert len(header) == 36  # 35 predictors + Target
    assert header[-1] == "Target"
    assert len(lines) == 51
    assert r.stdout.startswith("wrote 50 rows to g_data.csv")


def test_train_writes_valid_report_and_model(tmp_path):
    r = run_cli(
        ["train", "--task", "academic", "--solver", "lbfgs", "--n", "400", "--seed", "3",
         "--out", "t_", "--json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "t_report.json").read_text())
    assert report["report_version"] == 3
    assert report["task"] == "academic"
    assert report["data_source"] == "synthetic"
    assert set(report["class_distribution"]) == {"Graduate", "Dropout", "Enrolled"}
    jsonschema.validate(report, report_schema())

    model_doc = json.loads((tmp_path / "t_model.json").read_text())
    bundle = model_from_doc(model_doc)
    assert bundle.task == "academic"
    assert bundle.model.n_classes == 3
    assert len(bundle.feature_names) == bundle.model.weights.shape[1]


def test_config_doc_echoes_every_optimizer_field():
    fields = [f.name for f in dataclasses.fields(OptimizerConfig)]
    assert list(cli.config_to_doc(OptimizerConfig())) == fields


def test_train_config_echo_reflects_flags(tmp_path):
    r = run_cli(
        ["train", "--task", "academic", "--solver", "sgd", "--learning-rate", "0.01",
         "--epochs", "100", "--n", "300", "--seed", "5", "--out", "e_", "--json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    echo = json.loads((tmp_path / "e_report.json").read_text())["config_echo"]
    assert echo["solver"] == "sgd"
    assert echo["learning_rate"] == 0.01
    assert echo["epochs"] == 100
    assert echo["seed"] == 5
    assert echo["train_fraction"] == 0.7


def test_train_deterministic_bytes(tmp_path):
    # any non-negative seed, past 64 bits too, is accepted and echoed exactly
    for seed in ("42", "123456789012345678901"):
        args = ["train", "--task", "style", "--n", "80", "--seed", seed, "--json"]
        r1 = run_cli([*args, "--out", f"x{seed}_"], tmp_path)
        r2 = run_cli([*args, "--out", f"y{seed}_"], tmp_path)
        assert r1.returncode == 0, r1.stderr
        assert r2.returncode == 0, r2.stderr
        report = (tmp_path / f"x{seed}_report.json").read_bytes()
        assert report == (tmp_path / f"y{seed}_report.json").read_bytes()
        model = (tmp_path / f"x{seed}_model.json").read_bytes()
        assert model == (tmp_path / f"y{seed}_model.json").read_bytes()
        assert json.loads(report)["config_echo"]["seed"] == int(seed)


def test_train_prints_text_block_by_default(tmp_path):
    r = run_cli(["train", "--task", "style", "--n", "40", "--seed", "1", "--out", "p_"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert "Class distribution in the training data:" in r.stdout
    assert "Test Accuracy:" in r.stdout
    assert "%" in r.stdout


def test_predict_round_trip(tmp_path):
    r = run_cli(["generate", "--kind", "style", "--n", "30", "--seed", "2", "--out", "d_"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["train", "--task", "style", "--input", "d_data.csv", "--seed", "2", "--out", "m_", "--json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["predict", "--model", "m_model.json", "--input", "d_data.csv", "--out", "m_"], tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "m_predictions.csv").read_text().splitlines()
    assert lines[0] == "row,predicted_class,p_auditory,p_visual"
    assert len(lines) == 91  # header + 30*3 rows


def test_predict_confident_on_noiseless_visual_row(tmp_path):
    r = run_cli(
        ["generate", "--kind", "style", "--n", "60", "--noise-std", "0", "--seed", "4", "--out", "n_"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["train", "--task", "style", "--input", "n_data.csv", "--seed", "4", "--l2", "0.0001",
         "--out", "n_", "--json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(["predict", "--model", "n_model.json", "--input", "n_data.csv", "--out", "n_"], tmp_path)
    assert r.returncode == 0, r.stderr
    data_rows = (tmp_path / "n_data.csv").read_text().splitlines()[1:]
    pred_rows = (tmp_path / "n_predictions.csv").read_text().splitlines()[1:]
    checked = 0
    for data_line, pred_line in zip(data_rows, pred_rows):
        if data_line.split(",")[-1] == "visual":
            cells = pred_line.split(",")
            assert cells[1] == "visual"
            assert float(cells[3]) >= 0.99
            checked += 1
    assert checked > 0


def test_predict_accepts_input_without_target_column(tmp_path):
    r = run_cli(["generate", "--kind", "style", "--n", "12", "--seed", "3", "--out", "q_"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["train", "--task", "style", "--input", "q_data.csv", "--seed", "3", "--out", "q_", "--json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "q_data.csv").read_text().splitlines()
    stripped = "\n".join(",".join(line.split(",")[:-1]) for line in lines)
    (tmp_path / "q_unlabeled.csv").write_text(stripped + "\n")
    r = run_cli(["predict", "--model", "q_model.json", "--input", "q_unlabeled.csv", "--out", "q_"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert len((tmp_path / "q_predictions.csv").read_text().splitlines()) == 37
    # a target column is never read: a value outside the model's classes
    # changes nothing
    relabeled = [lines[0]] + [line.rsplit(",", 1)[0] + ",kinesthetic" for line in lines[1:]]
    (tmp_path / "k.csv").write_text("\n".join(relabeled) + "\n")
    r = run_cli(["predict", "--model", "q_model.json", "--input", "k.csv", "--out", "k_"], tmp_path)
    assert r.returncode == 0, r.stderr
    predictions = (tmp_path / "k_predictions.csv").read_bytes()
    assert predictions == (tmp_path / "q_predictions.csv").read_bytes()


def test_predict_open_categorical_orders_survive_round_trip(tmp_path):
    # schema without allowed_values: the trained bundle must pin the observed
    # category order so prediction encodes identically
    (tmp_path / "c.csv").write_text(
        "c,x,Target\nzeta,1,yes\nalpha,2,no\nzeta,0,yes\nmid,4,no\n"
        "alpha,1,no\nmid,2,yes\nzeta,3,no\nalpha,5,yes\n"
    )
    (tmp_path / "c.schema.json").write_text(json.dumps({
        "schema_version": 1,
        "columns": [
            {"name": "c", "kind": "categorical"},
            {"name": "x", "kind": "numeric"},
            {"name": "Target", "kind": "target"},
        ],
    }))
    r = run_cli(["train", "--task", "academic", "--input", "c.csv", "--schema", "c.schema.json",
                 "--seed", "1", "--train-fraction", "0.5", "--out", "c_", "--json"], tmp_path)
    assert r.returncode == 0, r.stderr
    saved = json.loads((tmp_path / "c_model.json").read_text())["schema"]["columns"]
    assert saved[0]["allowed_values"] == ["zeta", "alpha", "mid"]  # first-appearance order
    r = run_cli(["predict", "--model", "c_model.json", "--input", "c.csv", "--out", "c_"], tmp_path)
    assert r.returncode == 0, r.stderr


def test_predict_csv_quotes_class_names(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    classes = ["drop, early", 'say "hi"']
    with open("q.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["x", "Target"]] + [
            [i % 2 + 0.1 * (i % 7), classes[i % 2]] for i in range(40)
        ])
    (tmp_path / "q.schema.json").write_text(json.dumps({
        "schema_version": 1,
        "columns": [
            {"name": "x", "kind": "numeric"},
            {"name": "Target", "kind": "target", "allowed_values": classes},
        ],
    }))
    assert main(["train", "--task", "academic", "--input", "q.csv", "--schema", "q.schema.json",
                 "--l2", "0.1", "--json", "--out", "q_"]) == 0
    assert main(["predict", "--model", "q_model.json", "--input", "q.csv", "--out", "q_"]) == 0
    with open("q_predictions.csv", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["row", "predicted_class", "p_drop, early", 'p_say "hi"']
    assert len(rows) == 40
    assert all(len(row) == 2 + len(classes) for row in rows)
    assert {row[1] for row in rows} == set(classes)


@pytest.mark.parametrize(
    "classes", [["pass", "fail", "late"], ["drop, early", "pass"]], ids=["plain", "comma"]
)
def test_predictions_csv_in_blocks_is_what_csv_writer_writes(tmp_path, monkeypatch, classes):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(data_mod, "CSV_BLOCK_ROWS", 3)
    with open("q.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["x", "Target"]] + [
            [i % 3 + 0.1 * (i % 7), classes[i % len(classes)]] for i in range(20)
        ])
    (tmp_path / "q.schema.json").write_text(json.dumps({
        "schema_version": 1,
        "columns": [
            {"name": "x", "kind": "numeric"},
            {"name": "Target", "kind": "target", "allowed_values": classes},
        ],
    }))
    assert main(["train", "--task", "academic", "--input", "q.csv", "--schema", "q.schema.json",
                 "--l2", "0.1", "--json", "--out", "q_"]) == 0
    assert main(["predict", "--model", "q_model.json", "--input", "q.csv", "--out", "q_"]) == 0
    bundle = model_from_doc(json.loads((tmp_path / "q_model.json").read_text()))
    x = transform(bundle.scaler, assemble(load_csv("q.csv", bundle.schema)))
    names = [classes[k] for k in predict(bundle.model, x).tolist()]
    proba = predict_proba(bundle.model, x).tolist()
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["row", "predicted_class", *(f"p_{name}" for name in classes)]]
        + [[str(i), names[i], *map(repr, proba[i])] for i in range(20)]
    )
    assert (tmp_path / "q_predictions.csv").read_bytes() == buf.getvalue().encode("utf-8")


def test_predict_writes_class_1_at_probability_one_half(style_model, tmp_path):
    # zero weights and intercept: every row's class-1 probability is exactly 0.5
    doc = json.loads((style_model / "m_model.json").read_text())
    doc["weights"] = [[0.0] * len(row) for row in doc["weights"]]
    doc["intercepts"] = [0.0]
    (tmp_path / "half_model.json").write_text(json.dumps(doc))
    assert main(["predict", "--model", str(tmp_path / "half_model.json"),
                 "--input", str(style_model / "d_data.csv"), "--out", str(tmp_path / "h_")]) == 0
    with open(tmp_path / "h_predictions.csv", encoding="utf-8", newline="") as fh:
        _, *rows = csv.reader(fh)
    assert len(rows) == 30
    assert all(row[1:] == [doc["class_names"][1], "0.5", "0.5"] for row in rows)


def test_train_saves_categories_of_prefix_sharing_columns(tmp_path, monkeypatch):
    # the one-hot columns of 'c=x' are named 'c=x=p', which also starts with 'c='
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.csv").write_text(
        "c,c=x,Target\na,p,yes\nb,q,no\na,q,yes\nb,p,no\na,p,no\nb,q,yes\n"
    )
    (tmp_path / "d.schema.json").write_text(json.dumps({
        "schema_version": 1,
        "columns": [
            {"name": "c", "kind": "categorical"},
            {"name": "c=x", "kind": "categorical"},
            {"name": "Target", "kind": "target"},
        ],
    }))
    assert main(["train", "--task", "academic", "--input", "d.csv", "--schema", "d.schema.json",
                 "--seed", "1", "--train-fraction", "0.5", "--json", "--out", "d_"]) == 0
    saved = json.loads((tmp_path / "d_model.json").read_text())["schema"]["columns"]
    assert [c.get("allowed_values") for c in saved] == [["a", "b"], ["p", "q"], ["yes", "no"]]
    assert main(["predict", "--model", "d_model.json", "--input", "d.csv", "--out", "d_"]) == 0


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "observed"])
def test_class_name_with_lone_cr_exits_1(tmp_path, declared):
    # csv.writer would leave 'a\rb' unquoted in predictions.csv, breaking its row
    with open(tmp_path / "r.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["x", "Target"]] + [[i, ["a\rb", "c"][i % 2]] for i in range(20)])
    target = {"name": "Target", "kind": "target"}
    if declared:
        target["allowed_values"] = ["c", "a\rb"]
    (tmp_path / "r.schema.json").write_text(json.dumps(
        {"schema_version": 1, "columns": [{"name": "x", "kind": "numeric"}, target]}
    ))
    r = run_cli(["train", "--task", "academic", "--input", "r.csv", "--schema", "r.schema.json",
                 "--out", "r_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error[SchemaError]: column 'Target'"), r.stderr
    assert "carriage return" in r.stderr and "Traceback" not in r.stderr, r.stderr
    assert not (tmp_path / "r_model.json").exists()


@pytest.mark.parametrize(
    "allowed, rows, got",
    [
        (["visual"], True, ["visual"]),
        (None, True, ["visual"]),
        (["auditory", "visual"], True, ["visual"]),
        (["auditory", "visual"], False, []),
        (None, None, ["auditory"]),
    ],
    ids=["declared", "observed", "declared-two-observed-one", "header-only", "synthetic"],
)
def test_train_one_class_target_exits_1(tmp_path, allowed, rows, got):
    """Rows that show one class are refused, from a CSV or (rows None) from
    the synthetic source: one student at seed 0 draws one latent style."""
    r = run_cli(["generate", "--kind", "style", "--n", "10", "--seed", "1",
                 "--visual-fraction", "1", "--out", "v_"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc = json.loads((tmp_path / "v_schema.json").read_text())
    target = doc["columns"][-1]
    assert target["name"] == "style"
    if allowed is None:
        del target["allowed_values"]
    else:
        target["allowed_values"] = allowed
    (tmp_path / "v_schema.json").write_text(json.dumps(doc))
    if rows is False:
        data = tmp_path / "v_data.csv"
        data.write_text(data.read_text().splitlines(keepends=True)[0])
    source = ["--n", "1", "--seed", "0"] if rows is None else [
        "--input", "v_data.csv", "--schema", "v_schema.json"]
    r = run_cli(["train", "--task", "style", *source, "--out", "o_"], tmp_path)
    assert r.returncode == 1, r.stderr
    where = "synthetic data" if rows is None else "v_data.csv"
    assert r.stderr == (
        f"error[LabelError]: {where}: target 'style': training needs at least 2 classes, "
        f"got {got}\n"
    ), r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v_data.csv", "v_schema.json"]


def test_train_split_with_one_class_exits_1(tmp_path):
    """A dataset of two classes whose train split shows one (here one row
    of 600) is refused before the fit, and nothing is written."""
    r = run_cli(["train", "--task", "style", "--train-fraction", "0.001", "--out", "o_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr == (
        "error[LabelError]: train split (fraction 0.001 of 600 rows): training needs at least "
        "2 classes, got ['auditory']\n"
    ), r.stderr
    assert list(tmp_path.iterdir()) == []


def test_schema_without_a_feature_column_exits_1(tmp_path):
    """A schema whose only non-skip column is the target has nothing to
    learn from: train refuses it rather than fit an intercept-only model,
    and predict refuses a model.json holding it."""
    (tmp_path / "d.csv").write_text("id,y\n" + "".join(f"r{i},{'abc'[i % 3]}\n" for i in range(60)))
    schema = {"schema_version": 1, "columns": [{"name": "id", "kind": "skip"},
                                               {"name": "y", "kind": "target"}]}
    (tmp_path / "s.json").write_text(json.dumps(schema))
    message = "schema has no feature column (numeric or categorical)"
    r = run_cli(["train", "--task", "academic", "--input", "d.csv", "--schema", "s.json",
                 "--out", "t_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr == f"error[SchemaError]: {message}\n", r.stderr
    schema["columns"][1]["allowed_values"] = ["a", "b", "c"]
    model = {
        "model_version": 1, "task": "academic", "model_type": "multinomial",
        "class_names": ["a", "b", "c"], "feature_names": [], "weights": [[], [], []],
        "intercepts": [0.5, 0.0, -0.5], "converged": True, "iterations_used": 3,
        "config": cli.config_to_doc(OptimizerConfig()),
        "scaler": {"means": [], "stds": []}, "schema": schema,
    }
    (tmp_path / "m.json").write_text(json.dumps(model))
    r = run_cli(["predict", "--model", "m.json", "--input", "d.csv", "--out", "p_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr == f"error[SchemaError]: malformed model document: {message}\n", r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.json", "s.json"]


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_generate_style_non_finite_noise_exits_2(tmp_path, value):
    r = run_cli(["generate", "--kind", "style", "--n", "20", "--seed", "1",
                 "--noise-std", value, "--out", "z_"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error[ParameterError]: noise_std"), r.stderr
    assert "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


_STYLE_20 = ["train", "--task", "style", "--n", "20"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["train", "--task", "style", "--schema", "s.json"], "--schema applies only with --input"),
        (["train", "--task", "style", "--input", "d.csv", "--n", "7"],
         "--n applies only without --input (the synthetic source)"),
        (["generate", "--kind", "academic", "--noise-std", "5", "--visual-fraction", "0.9",
          "--sessions-per-student", "9"], "--sessions-per-student applies only to --kind style"),
        ([*_STYLE_20, "--solver", "lbfgs", "--epochs", "5"], "--epochs applies only to --solver sgd"),
        ([*_STYLE_20, "--solver", "sgd", "--max-iter", "5"],
         "--max-iter applies only to --solver gd and lbfgs"),
        ([*_STYLE_20, "--solver", "lbfgs", "--learning-rate", "0.5"],
         "--learning-rate applies only to --solver sgd"),
        ([*_STYLE_20, "--solver", "sgd", "--tol", "1e-3"],
         "--tol applies only to --solver gd and lbfgs"),
    ],
    ids=["schema-without-input", "n-with-input", "style-flags-for-academic", "epochs-for-lbfgs",
         "max-iter-for-sgd", "learning-rate-for-lbfgs", "tol-for-sgd"],
)
def test_flag_that_would_do_nothing_exits_2(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    assert main([*args, "--out", "f_"]) == 2
    assert capsys.readouterr().err == f"error[ParameterError]: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "solver_args, warning",
    [
        (["--solver", "gd", "--max-iter", "2"],
         "warning: gd did not converge in 2 iterations; the model is written with converged false\n"),
        (["--solver", "sgd", "--epochs", "0"],
         "warning: sgd did not converge in 0 epochs; the model is written with converged false\n"),
        # a tol below what the loss can resolve: the search halves the step
        # until it no longer moves the weights, and the fit stops there
        (["--solver", "gd", "--tol", "1e-14"],
         "warning: gd stalled at the loss's float64 floor, gradient norm 1.16e-11; the model "
         "is written with converged false\n"),
        (["--solver", "lbfgs"], ""),
    ],
    ids=["gd-max-iter-2", "sgd-epochs-0", "gd-stalled", "converged"],
)
def test_train_that_does_not_converge_warns_once(tmp_path, monkeypatch, capsys, solver_args,
                                                warning):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EDULEARN_SEED", raising=False)
    assert main([*_STYLE_20, *solver_args, "--json", "--out", "w_"]) == 0
    model = json.loads((tmp_path / "w_model.json").read_text())
    assert model["converged"] is not bool(warning)
    assert capsys.readouterr().err == warning


def test_generate_academic_minimum_rows_exits_2(tmp_path):
    r = run_cli(["generate", "--kind", "academic", "--n", "5", "--seed", "0", "--out", "z_"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert not (tmp_path / "z_data.csv").exists()


def test_predict_missing_column_exits_1(tmp_path):
    r = run_cli(["generate", "--kind", "style", "--n", "10", "--seed", "2", "--out", "f_"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(
        ["train", "--task", "style", "--input", "f_data.csv", "--seed", "2", "--out", "f_", "--json"],
        tmp_path,
    )
    assert r.returncode == 0, r.stderr
    # drop the lesson_duration column from the input
    lines = (tmp_path / "f_data.csv").read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("lesson_duration")
    trimmed = "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines)
    (tmp_path / "f_broken.csv").write_text(trimmed + "\n")
    r = run_cli(["predict", "--model", "f_model.json", "--input", "f_broken.csv", "--out", "f_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert "lesson_duration" in r.stderr


def test_unknown_flag_exits_2(tmp_path):
    r = run_cli(["train", "--task", "style", "--frobnicate", "1"], tmp_path)
    assert r.returncode == 2, r.stderr


def test_bad_config_exits_2(tmp_path):
    r = run_cli(["train", "--task", "academic", "--solver", "lbfgs", "--l1", "0.5",
                 "--n", "100", "--seed", "0"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert "l1" in r.stderr


def test_unwritable_out_exits_2_no_partial_file(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    os.chmod(blocked, stat.S_IRUSR | stat.S_IXUSR)
    if os.access(blocked, os.W_OK):
        pytest.skip("running as privileged user; directory permissions not enforced")
    r = run_cli(["generate", "--kind", "style", "--n", "5", "--seed", "0",
                 "--out", "blocked/z_"], tmp_path)
    os.chmod(blocked, stat.S_IRWXU)
    assert r.returncode == 2, r.stderr
    assert list(blocked.iterdir()) == []


def test_out_prefix_under_a_file_exits_2_no_partial(tmp_path):
    # works even when permission bits are ignored (root): the prefix parent is a file
    (tmp_path / "somefile").write_text("x")
    r = run_cli(["generate", "--kind", "style", "--n", "5", "--seed", "0",
                 "--out", "somefile/z_"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert not (tmp_path / "somefile").is_dir()
    assert [p.name for p in tmp_path.iterdir()] == ["somefile"]


@pytest.mark.parametrize("argv, blocked", [
    (["train", "--task", "style", "--n", "20"], "model.json"),
    (["generate", "--kind", "style", "--n", "5"], "schema.json"),
], ids=["train", "generate"])
def test_a_failed_output_leaves_none_of_the_command_outputs(tmp_path, argv, blocked):
    # a directory where the command's second output goes: the first output,
    # written before it, goes too, and so does every temp file
    (tmp_path / f"z_{blocked}").mkdir()
    r = run_cli([*argv, "--seed", "0", "--out", "z_"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert [p.name for p in tmp_path.iterdir()] == [f"z_{blocked}"]
    assert list((tmp_path / f"z_{blocked}").iterdir()) == []


def test_env_seed_fallback(tmp_path):
    r1 = run_cli(["generate", "--kind", "style", "--n", "5", "--out", "v_"], tmp_path,
                 env_extra={"EDULEARN_SEED": "9"})
    r2 = run_cli(["generate", "--kind", "style", "--n", "5", "--seed", "9", "--out", "w_"], tmp_path)
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0, r2.stderr
    assert (tmp_path / "v_data.csv").read_bytes() == (tmp_path / "w_data.csv").read_bytes()
    # explicit flag beats the environment
    r3 = run_cli(["generate", "--kind", "style", "--n", "5", "--seed", "1", "--out", "u_"], tmp_path,
                 env_extra={"EDULEARN_SEED": "9"})
    assert r3.returncode == 0, r3.stderr
    assert (tmp_path / "u_data.csv").read_bytes() != (tmp_path / "w_data.csv").read_bytes()


def test_missing_input_file_exits_2(tmp_path):
    r = run_cli(["train", "--task", "academic", "--input", "nope.csv", "--seed", "0"], tmp_path)
    assert r.returncode == 2, r.stderr  # unreadable path is a usage error
    r = run_cli(["predict", "--model", "nope.json", "--input", "nope.csv"], tmp_path)
    assert r.returncode == 2, r.stderr


def test_main_returns_int_in_process(tmp_path):
    report = tmp_path / "r_"
    code = main(["train", "--task", "style", "--n", "30", "--seed", "0",
                 "--out", str(report), "--json"])
    assert code == 0
    assert (tmp_path / "r_report.json").exists()


def test_train_with_gd_solver(tmp_path):
    r = run_cli(["train", "--task", "style", "--solver", "gd", "--n", "40", "--seed", "6",
                 "--max-iter", "200", "--out", "gd_", "--json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "gd_report.json").read_text())["solver"] == "gd"


def test_train_with_explicit_schema(tmp_path):
    r = run_cli(["generate", "--kind", "academic", "--n", "120", "--seed", "8",
                 "--out", "s_"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["train", "--task", "academic", "--input", "s_data.csv",
                 "--schema", "s_schema.json", "--seed", "8", "--out", "s_", "--json"], tmp_path)
    assert r.returncode == 0, r.stderr
    assert json.loads((tmp_path / "s_report.json").read_text())["data_source"] == "external"


@pytest.fixture(scope="module")
def style_model(tmp_path_factory):
    """A style model trained in-process on a small generated classroom."""
    work = tmp_path_factory.mktemp("style_model")
    assert main(["generate", "--kind", "style", "--n", "10", "--seed", "2",
                 "--out", str(work / "d_")]) == 0
    assert main(["train", "--task", "style", "--input", str(work / "d_data.csv"),
                 "--seed", "2", "--out", str(work / "m_"), "--json"]) == 0
    return work


def _malformed_model(model_text):
    doc = json.loads(model_text)
    doc["weights"] = 3
    return json.dumps(doc)


def _model_with_nan_weight(model_text):
    doc = json.loads(model_text)
    doc["weights"][0][0] = math.nan
    return json.dumps(doc)


def _model_class_name_with_lone_cr(model_text):
    doc = json.loads(model_text)
    doc["class_names"][0] = "audi\rtory"
    return json.dumps(doc)


def _model_without_schema(model_text):
    doc = json.loads(model_text)
    del doc["schema"]
    return json.dumps(doc)


def _model_with_null_schema(model_text):
    doc = json.loads(model_text)
    doc["schema"] = None
    return json.dumps(doc)


def _model_field(**fields):
    def make_doc(model_text):
        return json.dumps({**json.loads(model_text), **fields})

    return make_doc


def _malformed_model_schema(model_text):
    doc = json.loads(model_text)
    doc["schema"]["columns"][0] = {"name": "student_id"}
    return json.dumps(doc)


@pytest.mark.parametrize(
    "make_doc",
    [
        lambda _: '{"model_version": 1}',
        lambda _: "not json {",
        _malformed_model,
        _malformed_model_schema,
        _model_class_name_with_lone_cr,
        _model_without_schema,
        _model_with_null_schema,
        _model_with_nan_weight,
        _model_field(converged="no"),
        _model_field(converged=None),
        _model_field(iterations_used=2.7),
        _model_field(iterations_used=True),
        _model_field(iterations_used="12"),
        _model_field(iterations_used=-5),
        _model_field(model_type="multinomial"),
    ],
    ids=["missing-fields", "not-json", "wrong-type", "bad-schema", "class-names-not-the-schemas",
         "no-schema", "null-schema", "nan-weight", "converged-string", "converged-null",
         "iterations-float", "iterations-bool", "iterations-string", "iterations-negative",
         "model-type-not-binary"],
)
def test_predict_malformed_model_exits_1(style_model, tmp_path, make_doc):
    text = make_doc((style_model / "m_model.json").read_text())
    (tmp_path / "bad_model.json").write_text(text)
    r = run_cli(["predict", "--model", "bad_model.json",
                 "--input", str(style_model / "d_data.csv"), "--out", "b_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error[SchemaError]"), r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "b_predictions.csv").exists()


def _csv_not_utf8(header):
    return header[:12] + b"\xff\n"


def _csv_cell_over_field_limit(header):
    return header + b"\n" + b"x" * (csv.field_size_limit() + 1) + b"\n"


@pytest.mark.parametrize("command", ["train", "predict"])
@pytest.mark.parametrize(
    "make_csv", [_csv_not_utf8, _csv_cell_over_field_limit], ids=["not-utf8", "cell-over-limit"]
)
def test_unreadable_csv_exits_1(style_model, tmp_path, command, make_csv):
    header = (style_model / "d_data.csv").read_bytes().splitlines()[0]
    (tmp_path / "bad.csv").write_bytes(make_csv(header))
    if command == "train":
        args = ["train", "--task", "style", "--seed", "0", "--json"]
    else:
        args = ["predict", "--model", str(style_model / "m_model.json")]
    r = run_cli([*args, "--input", "bad.csv", "--out", "o_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error[ParseError]: bad.csv: "), r.stderr
    assert "Traceback" not in r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


@pytest.fixture(scope="module")
def academic_csv(tmp_path_factory):
    """A 60-row generated academic CSV, its schema, and a model trained on it."""
    work = tmp_path_factory.mktemp("academic_csv")
    assert main(["generate", "--kind", "academic", "--n", "60", "--seed", "3",
                 "--out", str(work / "d_")]) == 0
    assert main(["train", "--task", "academic", "--input", str(work / "d_data.csv"),
                 "--schema", str(work / "d_schema.json"), "--seed", "3", "--json",
                 "--out", str(work / "m_")]) == 0
    return work


# what a mutation inserts or writes over: CSV syntax, line ends, a NUL, a
# byte that is not UTF-8, one that numpy's reader strips around a number,
# numbers that are not finite, padding, and a label longer than any class
_CSV_PIECES = [b'"', b",", b"\r", b"\n", b"\x00", b"\xff", b"\x1c", b"1e999", b"nan", b" ",
               b"Graduated_early"]
_OUTPUTS = {"train": ["o_report.json", "o_model.json"], "predict": ["o_predictions.csv"]}


@settings(max_examples=120, deadline=None)
@given(
    command=st.sampled_from(list(_OUTPUTS)),
    edits=st.lists(
        st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.integers(0, 2**20),
                  st.sampled_from(_CSV_PIECES), st.integers(1, 8)),
        min_size=1, max_size=3,
    ),
)
def test_csv_mutations_end_in_a_named_error_and_leave_no_output(academic_csv, command, edits):
    """train and predict, in-process, on the CSV with bytes inserted, written
    over or deleted: exit 0 with every output written, or exit 1 or 2 (2 for
    a ParameterError or OSError) with one error line that names an
    EdulearnError or OSError, and no output file."""
    data = (academic_csv / "d_data.csv").read_bytes()
    for op, at, piece, n in edits:
        at %= len(data) + 1
        end = at + {"insert": 0, "replace": len(piece), "delete": n}[op]
        data = data[:at] + (b"" if op == "delete" else piece) + data[end:]
    if command == "train":
        argv = ["train", "--task", "academic", "--schema", str(academic_csv / "d_schema.json"),
                "--seed", "3", "--json"]
    else:
        argv = ["predict", "--model", str(academic_csv / "m_model.json")]
    with tempfile.TemporaryDirectory(dir=academic_csv) as work:
        (Path(work) / "in.csv").write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", f"{work}/in.csv", "--out", f"{work}/o_"])
        written = sorted(p.name for p in Path(work).iterdir())
    _check_outcome(code, err.getvalue(), written, ["in.csv"], _OUTPUTS[command])


def _check_outcome(code, stderr, written, inputs, outputs):
    """Exit 0 with every output written, or exit 1 or 2 (2 for a
    ParameterError or OSError) with one error line that names an
    EdulearnError or OSError, and no output file."""
    if code == 0:
        assert written == sorted([*inputs, *outputs])
        return
    errors_named = re.findall(r"^error\[(\w+)\]: ", stderr, re.MULTILINE)
    assert stderr.startswith("error[") and len(errors_named) == 1, stderr
    named = getattr(errors, errors_named[0], None) or getattr(builtins, errors_named[0], None)
    assert isinstance(named, type) and issubclass(named, (errors.EdulearnError, OSError))
    assert code == (2 if issubclass(named, (ParameterError, OSError)) else 1)
    assert written == sorted(inputs)


# what a mutation writes over a leaf of a JSON document
_JSON_LEAVES = [None, True, False, 0, -1, 1e30, 1e308, "x", [], {}]


def _json_places(doc, op, path=()):
    """The path of every place in ``doc`` that ``op`` applies to: every leaf
    (replace), key or list element (delete), or list element (duplicate)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        here, nested = (*path, key), isinstance(value, (dict, list)) and value
        if {"replace": not nested, "delete": True, "duplicate": isinstance(doc, list)}[op]:
            yield here
        if nested:
            yield from _json_places(value, op, here)


def _mutate_json(doc, edits):
    """``doc`` with each edit applied in turn: a leaf replaced, a key or
    list element deleted, or a list element duplicated. An edit picks its
    place among those it applies to, modulo their number."""
    for op, at, leaf in edits:
        places = list(_json_places(doc, op))
        if not places:
            continue
        *parent_path, key = places[at % len(places)]
        parent = doc
        for step in parent_path:
            parent = parent[step]
        if op == "replace":
            parent[key] = json.loads(json.dumps(leaf))
        elif op == "delete":
            del parent[key]
        else:
            parent.insert(key, json.loads(json.dumps(parent[key])))
    return doc


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(list(_OUTPUTS)),
    edits=st.lists(
        st.tuples(st.sampled_from(["replace", "delete", "duplicate"]), st.integers(0, 2**20),
                  st.sampled_from(_JSON_LEAVES)),
        min_size=1, max_size=3,
    ),
)
def test_json_mutations_end_in_a_named_error_and_leave_no_output(academic_csv, command, edits):
    """predict with a mutated model.json, and train --schema with a mutated
    schema document, in-process: the outcomes the CSV mutations have."""
    name = "m_model.json" if command == "predict" else "d_schema.json"
    doc = _mutate_json(json.loads((academic_csv / name).read_text()), edits)
    with tempfile.TemporaryDirectory(dir=academic_csv) as work:
        (Path(work) / "in.json").write_text(json.dumps(doc))
        if command == "train":
            argv = ["train", "--task", "academic", "--schema", f"{work}/in.json",
                    "--seed", "3", "--json"]
        else:
            argv = ["predict", "--model", f"{work}/in.json"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--input", str(academic_csv / "d_data.csv"),
                         "--out", f"{work}/o_"])
        written = sorted(p.name for p in Path(work).iterdir())
    _check_outcome(code, err.getvalue(), written, ["in.json"], _OUTPUTS[command])


@pytest.mark.parametrize(
    "columns",
    [{"name": "x", "kind": "numeric"}, [1], [{"name": "x"}]],
    ids=["columns-not-a-list", "entry-not-an-object", "entry-without-kind"],
)
def test_train_malformed_schema_exits_1(style_model, tmp_path, columns):
    (tmp_path / "s.json").write_text(json.dumps({"schema_version": 1, "columns": columns}))
    r = run_cli(["train", "--task", "style", "--input", str(style_model / "d_data.csv"),
                 "--schema", "s.json", "--seed", "0", "--out", "s_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error[SchemaError]"), r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["umask-022", "umask-027"]
)
def test_outputs_take_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        assert main(["generate", "--kind", "style", "--n", "10", "--seed", "0",
                     "--out", str(tmp_path / "g_")]) == 0
        assert main(["train", "--task", "style", "--n", "10", "--seed", "0",
                     "--out", str(tmp_path / "t_"), "--json"]) == 0
    finally:
        os.umask(old)
    names = ["g_data.csv", "g_schema.json", "t_report.json", "t_model.json"]
    assert {n: stat.S_IMODE((tmp_path / n).stat().st_mode) for n in names} == dict.fromkeys(
        names, mode
    )


# Every train option except --out, --json and --schema, as (base arguments,
# arguments that set the option to a non-default value). The base picks a
# solver the option applies to; a later repeat of an option overrides it.
_BASE = ["train", "--task", "academic", "--n", "200", "--seed", "1"]
_SGD = [*_BASE, "--solver", "sgd", "--epochs", "5"]
FLAG_CASES = {
    "--task": (_BASE, ["--task", "style"]),
    "--input": (["train", "--task", "style", "--seed", "1"], ["--input", "in_data.csv"]),
    "--solver": (_BASE, ["--solver", "gd"]),
    "--seed": (_BASE, ["--seed", "2"]),
    "--n": (_BASE, ["--n", "150"]),
    "--max-iter": (_BASE, ["--max-iter", "3"]),
    "--tol": ([*_BASE, "--solver", "gd"], ["--tol", "0.01"]),
    "--epochs": ([*_BASE, "--solver", "sgd"], ["--epochs", "3"]),
    "--learning-rate": (_SGD, ["--learning-rate", "0.1"]),
    "--l1": (_SGD, ["--l1", "0.01"]),
    "--l2": (_BASE, ["--l2", "0.5"]),
    "--train-fraction": (_BASE, ["--train-fraction", "0.5"]),
}


def test_flag_cases_cover_every_train_option():
    subcommands = next(a for a in cli._build_parser()._actions if a.choices)
    train = subcommands.choices["train"]
    options = {a.option_strings[-1] for a in train._actions if a.option_strings}
    assert options - {"--help", "--out", "--json", "--schema"} == set(FLAG_CASES)


def _written_outside_echo(argv, prefix):
    assert main([*argv, "--json", "--out", prefix]) == 0
    report = json.loads(Path(prefix + "report.json").read_text())
    model = json.loads(Path(prefix + "model.json").read_text())
    del report["config_echo"], model["config"]
    return report, model


@pytest.mark.parametrize("flag", sorted(FLAG_CASES))
def test_train_option_changes_the_outputs(tmp_path, monkeypatch, flag):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EDULEARN_SEED", raising=False)
    assert main(["generate", "--kind", "style", "--n", "20", "--seed", "9", "--out", "in_"]) == 0
    base, extra = FLAG_CASES[flag]
    assert _written_outside_echo(base, "a_") != _written_outside_echo([*base, *extra], "b_")


def test_schema_file_and_generate_write_the_same_bytes(tmp_path):
    from edulearn.data import ColumnSchema, read_schema, schema_to_doc

    columns = [
        ColumnSchema("größe", "numeric"),
        ColumnSchema("c", "categorical", allowed_values=("née", "x")),
        ColumnSchema("Target", "target", allowed_values=("A", "B")),
    ]
    (tmp_path / "s.json").write_text(dumps_canonical(schema_to_doc(columns)) + "\n", "utf-8")
    assert read_schema(tmp_path / "s.json") == columns
    assert main(["generate", "--kind", "style", "--n", "10", "--out", str(tmp_path / "g_")]) == 0
    text = (tmp_path / "g_schema.json").read_text(encoding="utf-8")
    assert text == dumps_canonical(schema_to_doc(pipelines.style_schema())) + "\n"


@pytest.mark.parametrize(
    "task, n, solver_args",
    [
        ("style", "30", ["--solver", "lbfgs"]),
        ("style", "30", ["--solver", "sgd", "--epochs", "3"]),
        ("academic", "300", ["--solver", "lbfgs"]),
        ("academic", "300", ["--solver", "sgd", "--epochs", "3"]),
    ],
    ids=["style-lbfgs", "style-sgd", "academic-lbfgs", "academic-sgd"],
)
def test_synthetic_train_equals_generate_then_train(tmp_path, monkeypatch, task, n, solver_args):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EDULEARN_SEED", raising=False)
    train = ["train", "--task", task, *solver_args, "--seed", "3", "--json"]
    assert main([*train, "--n", n, "--out", "a_"]) == 0
    assert main(["generate", "--kind", task, "--n", n, "--seed", "3", "--out", "g_"]) == 0
    assert main([*train, "--input", "g_data.csv", "--schema", "g_schema.json", "--out", "b_"]) == 0
    assert (tmp_path / "a_model.json").read_bytes() == (tmp_path / "b_model.json").read_bytes()
    a = (tmp_path / "a_report.json").read_text().splitlines()
    b = (tmp_path / "b_report.json").read_text().splitlines()
    assert len(a) == len(b)
    assert [(x, y) for x, y in zip(a, b) if x != y] == [
        ('  "data_source": "synthetic",', '  "data_source": "external",')
    ]


def _set_cells(src, dst, column, values):
    lines = src.read_text().splitlines()
    j = lines[0].split(",").index(column)
    for row, value in values.items():
        cells = lines[row].split(",")
        cells[j] = value
        lines[row] = ",".join(cells)
    dst.write_text("\n".join(lines) + "\n")


def test_features_too_large_to_standardize_exit_1(tmp_path):
    r = run_cli(["generate", "--kind", "style", "--n", "50", "--seed", "1", "--out", "s_"], tmp_path)
    assert r.returncode == 0, r.stderr
    clean = tmp_path / "s_data.csv"
    _set_cells(clean, tmp_path / "t_data.csv", "comprehension_time", {1: "1e308", 2: "-1e308"})
    _set_cells(clean, tmp_path / "p_data.csv", "prior_preferred_style", {3: "1e308"})
    r = run_cli(["train", "--task", "style", "--input", "s_data.csv", "--json", "--out", "m_"],
                tmp_path)
    assert r.returncode == 0, r.stderr
    for argv in (
        ["train", "--task", "style", "--input", "t_data.csv", "--out", "t_"],
        ["predict", "--model", "m_model.json", "--input", "p_data.csv", "--out", "p_"],
    ):
        r = run_cli(argv, tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error[DegenerateDataError]"), r.stderr
        assert "Traceback" not in r.stderr and "Warning" not in r.stderr, r.stderr


def test_score_diff_overflow_exits_1(style_model, tmp_path):
    # both scores are finite, but visual_score - auditory_score is 2e308
    _set_cells(style_model / "d_data.csv", tmp_path / "o_data.csv", "visual_score", {2: "1e308"})
    _set_cells(tmp_path / "o_data.csv", tmp_path / "o_data.csv", "auditory_score", {2: "-1e308"})
    for argv in (
        ["train", "--task", "style", "--input", "o_data.csv", "--json", "--out", "t_"],
        ["predict", "--model", str(style_model / "m_model.json"), "--input", "o_data.csv",
         "--out", "p_"],
    ):
        r = run_cli(argv, tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error[DegenerateDataError]: row 2: score_diff"), r.stderr
        assert "Traceback" not in r.stderr and "Warning" not in r.stderr, r.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["o_data.csv"]


def test_predict_with_other_features_than_the_model_exits_1(style_model, tmp_path, monkeypatch,
                                                           capsys):
    doc = json.loads((style_model / "m_model.json").read_text())
    names = doc["feature_names"]
    names[names.index("lesson_duration")] = "lesson_minutes"
    (tmp_path / "m.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["predict", "--model", "m.json", "--input", str(style_model / "d_data.csv"),
                 "--out", "p_"]) == 1
    assert capsys.readouterr().err == (
        "error[SchemaError]: input features do not match the model "
        "(missing ['lesson_minutes'], unexpected ['lesson_duration'])\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


@pytest.fixture(scope="module")
def academic_model(tmp_path_factory):
    """A three-class academic model trained in-process on a small generated set."""
    work = tmp_path_factory.mktemp("academic_model")
    assert main(["generate", "--kind", "academic", "--n", "200", "--seed", "4",
                 "--out", str(work / "d_")]) == 0
    assert main(["train", "--task", "academic", "--input", str(work / "d_data.csv"),
                 "--schema", str(work / "d_schema.json"), "--seed", "4",
                 "--out", str(work / "m_"), "--json"]) == 0
    return work


@pytest.mark.parametrize("model_dir", ["style_model", "academic_model"],
                         ids=["binary", "multinomial"])
def test_predict_logit_overflow_exits_1(request, tmp_path, model_dir):
    # finite weights, so model.json is valid, whose logits overflow float64
    work = request.getfixturevalue(model_dir)
    doc = json.loads((work / "m_model.json").read_text())
    doc["weights"] = [[1e308] * len(row) for row in doc["weights"]]
    (tmp_path / "big_model.json").write_text(json.dumps(doc))
    r = run_cli(["predict", "--model", "big_model.json", "--input", str(work / "d_data.csv"),
                 "--out", "b_"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error[DegenerateDataError]: predict_proba: row "), r.stderr
    assert "logits overflow" in r.stderr
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr, r.stderr
    assert [p.name for p in tmp_path.iterdir()] == ["big_model.json"]


def test_cli_import_leaves_jsonschema_out():
    r = subprocess.run(
        [sys.executable, "-c", "import sys, edulearn.cli; print('jsonschema' in sys.modules)"],
        env=cli_env(), capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "flag, solver", [("--tol", "lbfgs"), ("--l2", "lbfgs"), ("--l1", "sgd"), ("--learning-rate", "sgd")]
)
def test_train_non_finite_optimizer_value_exits_2(tmp_path, flag, solver, value):
    r = run_cli(["train", "--task", "academic", "--n", "300", "--seed", "1", "--solver", solver,
                 flag, value, "--out", "n_"], tmp_path)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("error[ParameterError]"), r.stderr
    assert "Traceback" not in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_generate_academic_negative_seed_exits_2(tmp_path):
    for argv, env in (
        (["--seed", "-1"], None),
        ([], {"EDULEARN_SEED": "-1"}),
    ):
        r = run_cli(["generate", "--kind", "academic", "--n", "300", *argv, "--out", "z_"],
                    tmp_path, env_extra=env)
        assert r.returncode == 2, r.stderr
        assert r.stderr.startswith("error[ParameterError]"), r.stderr
        assert "Traceback" not in r.stderr
        assert list(tmp_path.iterdir()) == []


_any_float = st.one_of(_finite_positive, st.sampled_from([0.0, -1.0, math.nan, math.inf]))


@st.composite
def _case_study_reports(draw):
    """A CaseStudyReport from any OptimizerConfig that constructs, plus
    class names and label vectors for its train and test metrics."""
    solver = draw(st.sampled_from(["lbfgs", "sgd", "gd"]))
    try:
        opt = OptimizerConfig(
            solver=solver,
            max_iter=draw(st.integers(0, 10**6)),
            epochs=draw(st.integers(0, 10**6)),
            learning_rate=draw(_any_float),
            tol=draw(_any_float),
            l2=draw(st.one_of(st.just(0.0), _any_float)),
            l1=draw(st.one_of(st.just(0.0), _any_float)) if solver == "sgd" else 0.0,
            seed=draw(st.integers(0, 2**63 - 1)),
        )
    except ParameterError:
        opt = OptimizerConfig(solver=solver)
    names = draw(st.lists(st.text(max_size=12), min_size=2, max_size=4, unique=True))
    k = len(names)

    def metrics():
        n = draw(st.integers(1, 30))
        labels = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
        return compute_metrics(draw(labels), draw(labels), k)

    report = pipelines.CaseStudyReport(
        train_metrics=metrics(),
        test_metrics=metrics(),
        class_distribution={name: draw(st.integers(0, 10**6)) for name in names},
        config_echo=opt,
        data_source=draw(st.sampled_from(["external", "synthetic"])),
    )
    return report, names


@settings(deadline=None)
@given(
    case=_case_study_reports(),
    task=st.sampled_from(["style", "academic"]),
    train_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_report_doc_matches_the_schema(case, task, train_fraction):
    report, names = case
    doc = cli.report_to_doc(report, task, names, train_fraction)
    jsonschema.validate(json.loads(dumps_canonical(doc)), report_schema())


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("solver", ["lbfgs", "gd"])
def test_train_bytes_do_not_depend_on_the_host_thread_count(tmp_path, solver):
    """With the thread variables unset the CLI picks one BLAS thread itself,
    so it writes what an explicit 1 writes. At 10,000 rows a multi-threaded
    BLAS sums the logits in another order and changes the weights' last
    digits."""
    args = ["train", "--task", "academic", "--solver", solver, "--n", "10000", "--seed", "0"]
    unset = run_cli([*args, "--out", "u_"], tmp_path, dict.fromkeys(BLAS_THREAD_VARS))
    one = run_cli([*args, "--out", "o_"], tmp_path, dict.fromkeys(BLAS_THREAD_VARS, "1"))
    assert unset.returncode == 0, unset.stderr
    assert one.returncode == 0, one.stderr
    assert (tmp_path / "u_model.json").read_bytes() == (tmp_path / "o_model.json").read_bytes()
    assert (tmp_path / "u_report.json").read_bytes() == (tmp_path / "o_report.json").read_bytes()


def _child_stdout(code, env_extra=None):
    """What ``python -c code`` prints, run with the CLI tests' environment."""
    r = subprocess.run([sys.executable, "-c", code], env=cli_env(env_extra),
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def _thread_vars_after(module, env_extra):
    """The three thread variables, as a child sees them after importing ``module``."""
    show = f"print([os.environ.get(v) for v in {BLAS_THREAD_VARS}])"
    return _child_stdout(f"import os, {module}; {show}", env_extra)


def test_main_module_defaults_blas_to_one_thread():
    unset = dict.fromkeys(BLAS_THREAD_VARS)
    assert _thread_vars_after("edulearn.__main__", unset) == str(["1", "1", "1"])


def test_main_module_keeps_a_thread_count_the_user_set():
    chosen = dict.fromkeys(BLAS_THREAD_VARS, "3")
    assert _thread_vars_after("edulearn.__main__", chosen) == str(["3", "3", "3"])


def test_main_module_draws_seeded_numbers_without_openssl():
    """The first ``default_rng`` imports ``secrets`` and so ``hmac``; under
    the entry point that loads neither ``_hashlib`` nor ``libcrypto``."""
    code = ("import os, sys, edulearn.__main__, numpy as np; np.random.default_rng(0); "
            "maps = '/proc/self/maps'; "
            "mapped = os.path.exists(maps) and 'libcrypto' in open(maps).read(); "
            "print(sys.modules.get('_hashlib') is None, mapped)")
    assert _child_stdout(code).split() == ["True", "False"]


def test_main_module_keeps_hashing_and_unseeded_draws():
    code = ("import hashlib, hmac, edulearn.__main__, numpy as np; "
            "print(hashlib.sha256(b'x').hexdigest(), "
            "hmac.compare_digest(b'a', b'a'), hmac.compare_digest(b'a', b'b'), "
            "np.random.default_rng().random() != np.random.default_rng().random())")
    assert _child_stdout(code).split() == [
        "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881", "True", "False", "True",
    ]


def test_library_import_leaves_openssl_loadable():
    pytest.importorskip("_hashlib")
    code = ("import sys, edulearn.cli, numpy as np; np.random.default_rng(0); "
            "print(sys.modules.get('_hashlib') is not None)")
    assert _child_stdout(code) == "True"


def test_predict_process_never_imports_numpy_random(style_model, tmp_path):
    """``predict`` draws no random numbers, so its peak stays at the import
    floor: it must not import ``numpy.random`` at all."""
    argv = ["predict", "--model", str(style_model / "m_model.json"),
            "--input", str(style_model / "d_data.csv"), "--out", str(tmp_path / "p_")]
    code = f"import sys, edulearn.__main__ as m; print(m.main({argv!r}), 'numpy.random' in sys.modules)"
    assert _child_stdout(code).split()[-2:] == ["0", "False"]


def test_train_writes_nothing_to_stderr(tmp_path):
    """The builtin digests that stand in for OpenSSL log nothing."""
    r = run_cli(["train", "--task", "style", "--json", "--out", "o_"], tmp_path)
    assert (r.returncode, r.stderr) == (0, "")


def test_library_import_leaves_the_thread_count_alone():
    unset = dict.fromkeys(BLAS_THREAD_VARS)
    assert _thread_vars_after("edulearn.cli", unset) == str([None, None, None])


def test_package_import_leaves_numpy_unloaded():
    """The thread settings in ``__main__`` work only because numpy loads
    after them: ``import edulearn`` must not import it."""
    assert _child_stdout("import sys, edulearn; print('numpy' in sys.modules)") == "False"


def test_console_script_is_the_main_module_entry_point():
    """The ``edulearn`` script and ``python -m edulearn`` run the same
    function, so both get the one-thread default."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["edulearn"]
    module, _, attr = target.partition(":")
    code = (f"import importlib, edulearn.__main__ as m; "
            f"f = getattr(importlib.import_module({module!r}), {attr!r}); "
            f"print(callable(f), f is m.entrypoint)")
    assert _child_stdout(code).split() == ["True", "True"]

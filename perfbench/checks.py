"""Correctness checks for the benchmark, computed apart from the program.

Every check rebuilds what it needs from the CLI's inputs and the documented
conventions (schema-ordered one-hot encoding, the seeded 70:30 split, scalers
fit on training rows, softmax or sigmoid of the saved weights) with plain
numpy, and compares the program's output files against that. No check
compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import jsonschema
import numpy as np

TRAIN_FRACTION = 0.7
PROB_TOL = 1e-9
# ten times the solvers' default gradient tolerance (1e-6): the benchmark
# sums in another order than the program, so allow for rounding
GRAD_TOL = 1e-5


class CheckFailure(Exception):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


@dataclass
class Table:
    """Features of one input, encoded by the benchmark itself."""

    names: tuple[str, ...]
    x: np.ndarray  # unscaled features, one row per CSV row
    y: np.ndarray | None  # class indices, None when the input has no target
    class_names: tuple[str, ...]
    cells: dict[str, list[str]]  # raw cells by column name


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def encode(schema_doc: dict, header: list[str], rows: list[list[str]], task: str) -> Table:
    """One-hot encode rows in schema order.

    Numeric columns become one feature each and categorical columns one
    indicator per allowed value. For the style task the visual and auditory
    scores become one ``score_diff`` feature placed first, as the style
    pipeline documents.
    """
    columns = list(zip(*rows)) if rows else [() for _ in header]
    cells = {name: list(col) for name, col in zip(header, columns)}
    names: list[str] = []
    blocks: list[np.ndarray] = []
    y = None
    class_names: tuple[str, ...] = ()
    for col in schema_doc["columns"]:
        name, kind = col["name"], col["kind"]
        if kind == "numeric":
            names.append(name)
            blocks.append(np.array(cells[name], dtype=np.float64)[:, None])
        elif kind == "categorical":
            values = np.array(cells[name])
            for v in col["allowed_values"]:
                names.append(f"{name}={v}")
                blocks.append((values == v).astype(np.float64)[:, None])
        elif kind == "target":
            class_names = tuple(col["allowed_values"])
            if name in cells:
                index = {v: k for k, v in enumerate(class_names)}
                y = np.array([index[v] for v in cells[name]], dtype=np.int64)
    x = np.hstack(blocks)
    if task == "style":
        vi, ai = names.index("visual_score"), names.index("auditory_score")
        keep = [j for j in range(len(names)) if j not in (vi, ai)]
        x = np.column_stack([x[:, vi] - x[:, ai], x[:, keep]])
        names = ["score_diff"] + [names[j] for j in keep]
    return Table(tuple(names), x, y, class_names, cells)


def encode_csv(csv_path, schema_path, task: str) -> Table:
    header, rows = read_csv(csv_path)
    return encode(load_json(schema_path), header, rows, task)


def split_rows(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Train and test row indices of the program's documented split: a
    numpy permutation seeded with the train seed, train size round-half-up
    of 0.7 * n."""
    n_train = math.floor(n * TRAIN_FRACTION + 0.5)
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_train], perm[n_train:]


def check_generated(csv_path, schema_path, n_rows: int) -> None:
    """A generated CSV has the schema's columns in order and n_rows rows."""
    schema = load_json(schema_path)
    with open(csv_path, encoding="utf-8", newline="") as fh:
        header = next(csv.reader(fh))
        lines = sum(1 for _ in fh)
    require(
        header == [c["name"] for c in schema["columns"]],
        f"{csv_path}: header does not follow the schema",
    )
    require(lines == n_rows, f"{csv_path}: {lines} data rows, expected {n_rows}")


def probabilities(model: dict, x: np.ndarray) -> np.ndarray:
    """Class probabilities of the saved model on unscaled features x,
    standardized with the saved scaler."""
    xs = (x - np.array(model["scaler"]["means"])) / np.array(model["scaler"]["stds"])
    w = np.array(model["weights"])
    b = np.array(model["intercepts"])
    z = xs @ w.T + b
    if model["model_type"] == "binary":
        e = np.exp(-np.abs(z[:, 0]))
        p1 = np.where(z[:, 0] >= 0, 1.0, e) / (1.0 + e)
        return np.column_stack([1.0 - p1, p1])
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def decide(model: dict, p: np.ndarray) -> np.ndarray:
    """Predicted class indices: p >= 0.5 for binary models, else the argmax
    with the lowest index winning ties."""
    if model["model_type"] == "binary":
        return (p[:, 1] >= 0.5).astype(np.int64)
    return np.argmax(p, axis=1)


def check_model_matches(model: dict, table: Table) -> None:
    require(
        tuple(model["feature_names"]) == table.names,
        "model feature_names differ from the schema's encoding",
    )
    require(
        tuple(model["class_names"]) == table.class_names,
        "model class_names differ from the schema's target values",
    )


def check_scaler(model: dict, x_train: np.ndarray) -> None:
    """The saved scaler is the population mean and std of the training rows
    (constant columns keep std 1)."""
    means = x_train.mean(axis=0)
    stds = np.sqrt(((x_train - means) ** 2).mean(axis=0))
    stds = np.where(stds < 1e-12, 1.0, stds)
    require(
        np.allclose(model["scaler"]["means"], means, rtol=1e-9, atol=1e-9)
        and np.allclose(model["scaler"]["stds"], stds, rtol=1e-9, atol=1e-12),
        "saved scaler is not the mean/std of the training rows",
    )


def check_report(report: dict, report_schema: dict, n_rows: int) -> None:
    """report.json follows its schema and its confusion matrices count the
    train and test rows of the split."""
    try:
        jsonschema.validate(report, report_schema)
    except jsonschema.ValidationError as exc:
        raise CheckFailure(f"report.json does not validate: {exc.message}") from None
    n_train = math.floor(n_rows * TRAIN_FRACTION + 0.5)
    for key, want in (("train_metrics", n_train), ("test_metrics", n_rows - n_train)):
        total = sum(sum(row) for row in report[key]["confusion"])
        require(total == want, f"{key} confusion sums to {total}, expected {want}")


def confusion(y_true: np.ndarray, y_pred: np.ndarray, k: int) -> list[list[int]]:
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (y_true, y_pred), 1)
    return out.tolist()


def check_fit(report: dict, model: dict, table: Table, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Cross-check a training run on its own rows: encoding, scaler and both
    confusion matrices. Returns the train and test row indices."""
    check_model_matches(model, table)
    train, test = split_rows(len(table.x), seed)
    check_scaler(model, table.x[train])
    k = len(table.class_names)
    for key, rows in (("train_metrics", train), ("test_metrics", test)):
        pred = decide(model, probabilities(model, table.x[rows]))
        require(
            confusion(table.y[rows], pred, k) == report[key]["confusion"],
            f"{key} confusion differs from the saved model's own predictions",
        )
        acc = float(np.trace(np.array(report[key]["confusion"]))) / len(rows)
        require(
            abs(report[key]["accuracy"] - acc) <= 1e-12,
            f"{key} accuracy does not match its confusion matrix",
        )
    return train, test


def loss_and_grad_norm(model: dict, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy on (x, y) at the saved weights and the infinity
    norm of its gradient in the model's packed parameters (no penalty)."""
    xs = (x - np.array(model["scaler"]["means"])) / np.array(model["scaler"]["stds"])
    p = probabilities(model, x)
    n = len(y)
    loss = float(-np.mean(np.log(np.maximum(p[np.arange(n), y], 1e-300))))
    resid = p.copy()
    resid[np.arange(n), y] -= 1.0
    if model["model_type"] == "binary":
        resid = resid[:, 1:]
    grad_w = resid.T @ xs / n
    grad_b = resid.mean(axis=0)
    return loss, float(max(np.abs(grad_w).max(), np.abs(grad_b).max()))


def check_predictions(path, model: dict, table: Table) -> None:
    """predictions.csv: one row per input row, probabilities equal to the
    benchmark's own softmax/sigmoid within 1e-9, each row summing to 1 and
    naming the class the model's decision rule picks."""
    check_model_matches(model, table)
    names = list(model["class_names"])
    header, rows = read_csv(path)
    require(
        header == ["row", "predicted_class"] + [f"p_{c}" for c in names],
        "predictions.csv header is wrong",
    )
    require(len(rows) == len(table.x), f"{len(rows)} predictions for {len(table.x)} rows")
    cols = list(zip(*rows))
    require(list(cols[0]) == [str(i) for i in range(len(rows))], "row numbers are wrong")
    got = np.array(list(zip(*cols[2:])), dtype=np.float64)
    want = probabilities(model, table.x)
    err = float(np.abs(got - want).max())
    require(err <= PROB_TOL, f"probabilities differ from the saved weights' by {err:.3g}")
    require(
        float(np.abs(got.sum(axis=1) - 1.0).max()) <= PROB_TOL,
        "a row's probabilities do not sum to 1",
    )
    picked = np.array(names)[decide(model, got)]
    require(list(cols[1]) == picked.tolist(), "a predicted class is not the model's decision")

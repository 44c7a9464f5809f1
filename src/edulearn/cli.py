"""Command-line interface: synthetic data generation, training, and
prediction with deterministic, machine-readable outputs.

A command's output files are written all or none (temp files, renamed
once every one is written). JSON is what ``json.dumps`` writes. CSV is what
``csv.writer`` writes, built by ``data.csv_pieces`` a block of columns at a
time: each distinct string is quoted once, and each distinct number
formatted once per block. So every float is its shortest round-tripping
repr and a CSV cell is quoted where it needs to be; a rerun with the same
flags and seed is byte-identical. Exit codes: 0 success, 1 runtime/data
error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import data as data_mod
from . import pipelines
from .classify import SOLVERS, LogisticModel, OptimizerConfig, classes_from_proba
from .data import ScalerParams
from .errors import EdulearnError, ParameterError, SchemaError

REPORT_VERSION = 3
MODEL_VERSION = 1

OUTPUT_REPORT = "report.json"
OUTPUT_MODEL = "model.json"
OUTPUT_PREDICTIONS = "predictions.csv"
OUTPUT_DATA = "data.csv"
OUTPUT_SCHEMA = "schema.json"


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def dumps_canonical(value) -> str:
    """JSON with 2-space indentation and each float as its shortest
    round-tripping repr. A non-finite float is a ValueError: it has no JSON."""
    return json.dumps(value, indent=2, allow_nan=False)


def atomic_write_text(outputs: dict) -> None:
    """Write each ``path: text`` of ``outputs``, where text is a str or an
    iterable of text pieces, via a temp file in the path's directory. The
    temp files are renamed into place only once every one is written; on
    any failure the temp files and the outputs already renamed are removed,
    so a failed command leaves none of its outputs behind."""
    umask = os.umask(0)
    os.umask(umask)
    temps, renamed = {}, []
    try:
        for path, text in outputs.items():
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            fd, temps[path] = tempfile.mkstemp(dir=directory or ".", prefix=".edulearn-")
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                # mkstemp creates the file 0600; give it the mode open() would
                os.fchmod(fh.fileno(), 0o666 & ~umask)
                fh.writelines([text] if isinstance(text, str) else text)
        for path in outputs:
            os.replace(temps[path], path)
            renamed.append(path)
            del temps[path]
    except BaseException:
        for path in [*temps.values(), *renamed]:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise


# ---------------------------------------------------------------------------
# JSON document builders
# ---------------------------------------------------------------------------


def metrics_to_doc(metrics, class_names) -> dict:
    return {
        "accuracy": float(metrics.accuracy),
        "per_class": [
            {
                "class": name,
                "precision": float(m.precision),
                "recall": float(m.recall),
                "f1": float(m.f1),
            }
            for name, m in zip(class_names, metrics.per_class)
        ],
        "macro": {
            "precision": float(metrics.macro.precision),
            "recall": float(metrics.macro.recall),
            "f1": float(metrics.macro.f1),
        },
        "confusion": [[int(v) for v in row] for row in metrics.confusion],
    }


def config_to_doc(opt: OptimizerConfig) -> dict:
    return {
        "solver": opt.solver,
        "max_iter": int(opt.max_iter),
        "epochs": int(opt.epochs),
        "learning_rate": float(opt.learning_rate),
        "tol": float(opt.tol),
        "l2": float(opt.l2),
        "l1": float(opt.l1),
        "seed": int(opt.seed),
    }


def text_block(report: pipelines.CaseStudyReport, class_names) -> str:
    """Human-readable metrics block (class counts, then percentage lines)."""
    width = max(len(name) for name in class_names) + 4
    lines = ["Class distribution in the training data:", "", "Target"]
    for name in class_names:
        lines.append(f"{name:<{width}}{report.class_distribution[name]}")
    lines.append("")
    for split_name, metrics in (("Training", report.train_metrics), ("Test", report.test_metrics)):
        lines.append(f"{split_name} Accuracy: {metrics.accuracy * 100:.2f}%")
        lines.append(f"{split_name} Precision: {metrics.macro.precision * 100:.2f}%")
        lines.append(f"{split_name} Recall: {metrics.macro.recall * 100:.2f}%")
        lines.append(f"{split_name} F1 Score: {metrics.macro.f1 * 100:.2f}%")
    return "\n".join(lines)


def report_to_doc(
    report: pipelines.CaseStudyReport,
    task: str,
    class_names,
    train_fraction: float,
) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "task": task,
        "solver": report.config_echo.solver,
        "data_source": report.data_source,
        "config_echo": {
            **config_to_doc(report.config_echo),
            "train_fraction": float(train_fraction),
        },
        "class_distribution": {k: int(v) for k, v in report.class_distribution.items()},
        "train_metrics": metrics_to_doc(report.train_metrics, class_names),
        "test_metrics": metrics_to_doc(report.test_metrics, class_names),
        "text_block": text_block(report, class_names),
    }


def model_to_doc(bundle: pipelines.FitBundle, opt: OptimizerConfig) -> dict:
    model: LogisticModel = bundle.model
    return {
        "model_version": MODEL_VERSION,
        "task": bundle.task,
        "model_type": "binary" if model.is_binary else "multinomial",
        "class_names": list(model.class_names),
        "feature_names": list(bundle.feature_names),
        "weights": model.weights.tolist(),
        "intercepts": model.intercepts.tolist(),
        "converged": bool(model.converged),
        "iterations_used": int(model.iterations_used),
        "config": config_to_doc(opt),
        "scaler": {
            "means": bundle.scaler.means.tolist(),
            "stds": bundle.scaler.stds.tolist(),
        },
        "schema": data_mod.schema_to_doc(bundle.schema),
    }


def model_from_doc(doc) -> pipelines.FitBundle:
    """Rebuild the FitBundle that model_to_doc wrote from model.json.

    A missing, null or wrong-typed field, a weight or scaler value that is not
    finite, or lengths that disagree, is a SchemaError.
    """
    if not isinstance(doc, dict) or doc.get("model_version") != MODEL_VERSION:
        raise SchemaError(f"unsupported model document (want model_version {MODEL_VERSION})")
    try:
        converged, iterations = doc["converged"], doc["iterations_used"]
        if not isinstance(converged, bool) or type(iterations) is not int or iterations < 0:
            raise TypeError("converged must be a bool and iterations_used an int >= 0")
        model = LogisticModel(
            weights=doc["weights"],
            intercepts=doc["intercepts"],
            class_names=tuple(doc["class_names"]),
            converged=converged,
            iterations_used=iterations,
        )
        scaler = ScalerParams(means=doc["scaler"]["means"], stds=doc["scaler"]["stds"])
        model_type, task = doc["model_type"], doc["task"]
        feature_names = tuple(doc["feature_names"])
        columns = tuple(data_mod.schema_from_doc(doc["schema"]))
    except KeyError as exc:
        raise SchemaError(f"model document has no field {exc}") from None
    except (TypeError, ValueError, EdulearnError) as exc:
        raise SchemaError(f"malformed model document: {exc}") from None
    arrays = (model.weights, model.intercepts, scaler.means, scaler.stds)
    if not all(np.isfinite(a).all() for a in arrays):
        raise SchemaError("malformed model document: non-finite weights or scaler values")
    if model_type != ("binary" if model.is_binary else "multinomial"):
        raise SchemaError(
            f"malformed model document: model_type {model_type!r} for {model.n_classes} classes"
        )
    if task not in ("style", "academic") or not all(
        isinstance(name, str) for name in model.class_names + feature_names
    ):
        raise SchemaError("malformed model document: task, class and feature names")
    if not len(feature_names) == model.n_features == len(scaler.means):
        raise SchemaError("malformed model document: feature_names, weights and scaler lengths")
    # train saves the schema's target values (checked by ColumnSchema) as class_names
    if model.class_names != next(c.allowed_values for c in columns if c.kind == "target"):
        raise SchemaError("malformed model document: class_names differ from the schema's target")
    return pipelines.FitBundle(model, scaler, feature_names, task, columns)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args, seed: int) -> int:
    n = pipelines.DEFAULT_SIZES[args.kind] if args.n is None else args.n
    style = {
        key: getattr(args, key)
        for key in ("sessions_per_student", "visual_fraction", "noise_std")
        if getattr(args, key) is not None
    }
    if args.kind == "style":
        cfg = pipelines.StyleGenConfig(n_students=n, seed=seed, **style)
        sessions = pipelines.style_session_columns(pipelines.generate_style_sessions(cfg))
        header, columns = list(sessions), [
            data_mod.csv_cells(c) if isinstance(c[0], str) else np.asarray(c)
            for c in sessions.values()
        ]
        schema, n = pipelines.style_schema(), len(columns[0])
    elif style:
        flag = "--" + next(iter(style)).replace("_", "-")
        raise ParameterError(f"{flag} applies only to --kind style")
    else:
        header, columns = pipelines.academic_csv_columns(n, seed)
        schema = pipelines.academic_schema()

    csv_path = args.out + OUTPUT_DATA
    schema_path = args.out + OUTPUT_SCHEMA
    atomic_write_text({
        csv_path: data_mod.csv_pieces(header, columns),
        schema_path: dumps_canonical(data_mod.schema_to_doc(schema)) + "\n",
    })
    print(f"wrote {n} rows to {csv_path} (schema: {schema_path})")
    return 0


# the train flags that only some solvers read, and those solvers
_SOLVER_FLAGS = {
    "max_iter": ("gd", "lbfgs"),
    "epochs": ("sgd",),
    "learning_rate": ("sgd",),
    "tol": ("gd", "lbfgs"),
}


def _build_optimizer(args, seed: int) -> OptimizerConfig:
    kwargs: dict = {"solver": args.solver, "seed": seed}
    for key in ("max_iter", "epochs", "learning_rate", "tol", "l1", "l2"):
        if getattr(args, key) is not None:
            if args.solver not in _SOLVER_FLAGS.get(key, SOLVERS):
                flag, readers = "--" + key.replace("_", "-"), " and ".join(_SOLVER_FLAGS[key])
                raise ParameterError(f"{flag} applies only to --solver {readers}")
            kwargs[key] = getattr(args, key)
    if args.task == "style" and "l2" not in kwargs:
        kwargs["l2"] = 0.1  # separable planted data: keep weights finite
    return OptimizerConfig(**kwargs)


def cmd_train(args, seed: int) -> int:
    if args.input is None and args.schema is not None:
        raise ParameterError("--schema applies only with --input")
    if args.input is not None and args.n is not None:
        raise ParameterError("--n applies only without --input (the synthetic source)")
    opt = _build_optimizer(args, seed)
    split_spec = data_mod.SplitSpec(train_fraction=args.train_fraction, seed=seed)
    data_source = "synthetic" if args.input is None else "external"
    # fit_dataset frees the unsplit rows only when it holds the last
    # reference to the dataset, so no variable here keeps one
    report, bundle = pipelines.fit_dataset(
        pipelines.task_dataset(args.task, args.input, args.schema, args.n, seed),
        opt,
        split_spec,
        data_source,
        args.task,
    )

    doc = report_to_doc(report, args.task, bundle.model.class_names, args.train_fraction)
    atomic_write_text({
        args.out + OUTPUT_REPORT: dumps_canonical(doc) + "\n",
        args.out + OUTPUT_MODEL: dumps_canonical(model_to_doc(bundle, opt)) + "\n",
    })
    model = bundle.model
    if not model.converged:
        steps = "epochs" if opt.solver == "sgd" else "iterations"
        why = f"did not converge in {model.iterations_used} {steps}"
        if model.grad_norm is not None and model.iterations_used < opt.max_iter:
            why = f"stalled at the loss's float64 floor, gradient norm {model.grad_norm:.3g}"
        print(f"warning: {opt.solver} {why}; the model is written with converged false",
              file=sys.stderr)
    if not args.json:
        print(doc["text_block"])
    return 0


def cmd_predict(args) -> int:
    bundle = model_from_doc(data_mod.read_json(args.model))
    model = bundle.model
    proba = bundle.apply(pipelines.task_features(
        bundle.task, data_mod.load_csv(args.input, bundle.schema, require_target=False)
    ))
    names = data_mod.csv_cells(model.class_names)[classes_from_proba(proba)]

    header = ["row", "predicted_class"] + [f"p_{name}" for name in model.class_names]
    columns = [np.arange(len(names)), names, *proba.T]
    atomic_write_text({args.out + OUTPUT_PREDICTIONS: data_mod.csv_pieces(header, columns)})
    print(f"wrote {len(names)} predictions to {args.out + OUTPUT_PREDICTIONS}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edulearn",
        description="Learning-style and academic-risk classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic CSV plus matching schema")
    gen.add_argument("--kind", choices=["style", "academic"], required=True)
    gen.add_argument("--n", type=int, help="students (style) or rows (academic)")
    gen.add_argument("--sessions-per-student", type=int, help="style only")
    gen.add_argument("--visual-fraction", type=float, help="style only")
    gen.add_argument("--noise-std", type=float, help="style only")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", default="", help="output path prefix")

    train = sub.add_parser("train", help="train a pipeline and write report + model")
    train.add_argument("--task", choices=["style", "academic"], required=True)
    train.add_argument("--input", help="CSV path; omitted = synthetic source")
    train.add_argument("--schema", help="schema JSON path (default: packaged/task schema)")
    train.add_argument("--solver", choices=SOLVERS, default=OptimizerConfig.solver)
    train.add_argument("--seed", type=int)
    train.add_argument("--n", type=int, help="synthetic size when --input is omitted")
    train.add_argument("--max-iter", type=int, dest="max_iter")
    train.add_argument("--epochs", type=int)
    train.add_argument("--learning-rate", type=float, dest="learning_rate")
    train.add_argument("--l1", type=float)
    train.add_argument("--l2", type=float)
    train.add_argument("--tol", type=float)
    train.add_argument("--train-fraction", type=float, default=0.7, dest="train_fraction")
    train.add_argument("--json", action="store_true", help="suppress the text metrics block")
    train.add_argument("--out", default="", help="output path prefix")

    pred = sub.add_parser("predict", help="apply a saved model to a feature CSV")
    pred.add_argument("--model", required=True)
    pred.add_argument("--input", required=True)
    pred.add_argument("--out", default="", help="output path prefix")
    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("EDULEARN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"EDULEARN_SEED must be an integer, got '{env}'") from None
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args, _resolve_seed(args))
        if args.command == "train":
            return cmd_train(args, _resolve_seed(args))
        return cmd_predict(args)
    except (EdulearnError, OSError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParameterError, OSError)) else 1

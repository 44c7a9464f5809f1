"""Every numeric field and return value of edulearn is a read-only C-ordered
float64 ndarray (but for integer codes and targets, and the one-hot matrix
its caller owns), and no run builds a DenseMatrix or DenseVector."""

import numpy as np
import pytest

from edulearn import cli, numcore, pipelines
from edulearn.classify import (
    OptimizerConfig,
    binary_loss_grad,
    predict_proba,
    softmax_loss_grad,
)
from edulearn.data import SplitSpec, assemble, split, transform
from edulearn.regress import (
    LinearModel,
    fit_lasso,
    fit_multiple,
    fit_ridge,
    fit_simple,
    polynomial_features,
)

_RUNS = [("style", "lbfgs"), ("academic", "gd"), ("academic", "lbfgs"), ("academic", "sgd")]


def _assert_read_only(arr):
    assert type(arr) is np.ndarray
    assert arr.dtype == np.float64 and arr.flags.c_contiguous
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 1.0


def _bundle_arrays(bundle):
    return (bundle.model.weights, bundle.model.intercepts, bundle.scaler.means, bundle.scaler.stds)


@pytest.mark.parametrize("task, solver", _RUNS)
def test_datasets_and_bundles_hold_read_only_arrays(task, solver):
    ds = pipelines.task_dataset(task, None, None, 20 if task == "style" else 200, 5)
    train, test = split(ds, SplitSpec(0.7, 5))
    opt = OptimizerConfig(solver=solver, max_iter=30, epochs=3, l2=0.1)
    _, bundle = pipelines.fit_dataset(ds, opt, SplitSpec(0.7, 5), "synthetic", task)
    loaded = cli.model_from_doc(cli.model_to_doc(bundle, opt))
    x = transform(bundle.scaler, assemble(test))
    columns = [v for d in (ds, train, test) for v in d.features.values()]
    for codes in [v for v in columns if v.dtype != np.float64] + [ds.targets]:
        assert codes.dtype.kind in "iu" and not codes.flags.writeable
    for arr in (
        *(v for v in columns if v.dtype == np.float64),
        *_bundle_arrays(bundle),
        *_bundle_arrays(loaded),
        x,
        predict_proba(bundle.model, x),
    ):
        _assert_read_only(arr)


def test_linear_models_and_numeric_returns_are_read_only_arrays():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=20)
    for model in (
        fit_simple(x[:, 0], y),
        fit_multiple(x, y),
        fit_ridge(x, y, 0.5),
        fit_lasso(x, y, 0.01),
        LinearModel(intercept=0.0, coefficients=[1.0, 2.0]),
    ):
        _assert_read_only(model.coefficients)
    _, binary_grad = binary_loss_grad(np.zeros(4), x, (y > 0).astype(float))
    _, softmax_grad = softmax_loss_grad(np.zeros((3, 3)), np.zeros(3), x, np.arange(20) % 3)
    for arr in (
        binary_grad,
        softmax_grad,
        polynomial_features(x[:, 0], 3),
        numcore.solve_spd(x.T @ x, x.T @ y),
    ):
        _assert_read_only(arr)


@pytest.fixture
def no_legacy_wrappers(monkeypatch):
    def refuse(self):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in (numcore.DenseMatrix, numcore.DenseVector):
        monkeypatch.setattr(cls, "__post_init__", refuse)


@pytest.mark.parametrize("task, solver", _RUNS)
def test_no_command_builds_a_legacy_wrapper(no_legacy_wrappers, tmp_path, monkeypatch,
                                            task, solver):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EDULEARN_SEED", raising=False)
    n = "20" if task == "style" else "200"
    epochs = ["--epochs", "3"] if solver == "sgd" else []
    train = ["train", "--task", task, "--solver", solver, *epochs, "--seed", "5", "--json"]
    assert cli.main(["generate", "--kind", task, "--n", n, "--seed", "5", "--out", "g_"]) == 0
    assert cli.main([*train, "--n", n, "--out", "a_"]) == 0
    assert cli.main([*train, "--input", "g_data.csv", "--schema", "g_schema.json",
                     "--out", "b_"]) == 0
    assert cli.main(["predict", "--model", "b_model.json", "--input", "g_data.csv",
                     "--out", "p_"]) == 0
    assert (tmp_path / "p_predictions.csv").exists()

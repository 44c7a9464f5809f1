import numpy as np
import pytest

from edulearn.errors import DegenerateDataError, ParameterError, SingularMatrixError
from edulearn.regress import (
    LinearModel,
    fit_lasso,
    fit_multiple,
    fit_ridge,
    fit_simple,
    fit_stat,
    lsr_objective,
    polynomial_features,
    r_squared,
)


def test_fit_simple_exact_line():
    m = fit_simple([1.0, 2.0, 3.0], [3.0, 5.0, 7.0])
    assert m.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    assert m.intercept == pytest.approx(1.0, abs=1e-12)


def test_fit_simple_zero_slope():
    # numerator sum((y-ybar)(x-xbar)) is 0 by hand for these points
    m = fit_simple([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert m.coefficients[0] == pytest.approx(0.0, abs=1e-12)
    assert m.intercept == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_fit_simple_constant_predictor():
    with pytest.raises(DegenerateDataError):
        fit_simple([5.0, 5.0], [9.0, 9.0])


def test_fit_multiple_noiseless_plane():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 2))
    y = 1.0 + 2.0 * x[:, 0] + 3.0 * x[:, 1]
    m = fit_multiple(x, y)
    assert m.intercept == pytest.approx(1.0, abs=1e-8)
    assert m.coefficients == pytest.approx([2.0, 3.0], abs=1e-8)


def test_fit_multiple_duplicate_column_suggests_ridge():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(SingularMatrixError, match="ridge"):
        fit_multiple(x, y)


def test_fit_multiple_normal_equation_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n, d = 30, 4
        x = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        m = fit_multiple(x, y)
        resid = y - m.predict(x)
        g = np.hstack([x, np.ones((n, 1))])
        assert np.max(np.abs(g.T @ resid)) <= 1e-7 * (1.0 + np.abs(y).max())


def test_fit_simple_matches_single_column_multiple():
    rng = np.random.default_rng(2)
    x = rng.normal(size=25)
    y = 0.5 - 1.5 * x + rng.normal(size=25)
    simple = fit_simple(x, y)
    multiple = fit_multiple(x[:, None], y)
    assert abs(simple.intercept - multiple.intercept) <= 1e-10
    assert abs(simple.coefficients[0] - multiple.coefficients[0]) <= 1e-10


def test_polynomial_features_examples():
    assert polynomial_features([2.0], 3).tolist() == [[2.0, 4.0, 8.0]]
    assert polynomial_features([1.0, 1.0], 4).tolist() == [[1.0] * 4, [1.0] * 4]
    assert polynomial_features([-1.0], 2).tolist() == [[-1.0, 1.0]]
    with pytest.raises(ParameterError):
        polynomial_features([1.0], 0)


def test_lsr_objective_values():
    x = np.array([[1.0], [2.0], [3.0]])
    y = 3.0 + 2.0 * x[:, 0]
    m = fit_simple(x[:, 0], y)
    assert lsr_objective(m, x, y) == pytest.approx(0.0, abs=1e-20)

    zero = LinearModel(intercept=0.0, coefficients=np.array([0.0]))
    assert lsr_objective(zero, [[1.0], [1.0]], [3.0, 4.0]) == 25.0


def test_lsr_objective_is_minimized_at_fit():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    y = rng.normal(size=40)
    m = fit_multiple(x, y)
    base = lsr_objective(m, x, y)
    for _ in range(10):
        bumped = LinearModel(
            intercept=m.intercept + rng.normal() * 0.1,
            coefficients=m.coefficients + rng.normal(size=3) * 0.1,
        )
        assert lsr_objective(bumped, x, y) >= base


def test_r_squared_perfect_and_baseline():
    x = np.array([[1.0], [2.0], [3.0]])
    y = np.array([3.0, 5.0, 7.0])
    assert r_squared(fit_simple(x[:, 0], y), x, y) == pytest.approx(1.0, abs=1e-12)

    baseline = LinearModel(intercept=float(y.mean()), coefficients=np.array([0.0]))
    assert r_squared(baseline, x, y) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_equals_squared_pearson():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([3.0, 5.0, 8.0])
    # independent oracle: hand-computed Pearson correlation
    xc, yc = x - x.mean(), y - y.mean()
    r = float(xc @ yc) / np.sqrt(float(xc @ xc) * float(yc @ yc))
    m = fit_simple(x, y)
    assert abs(r_squared(m, x[:, None], y) - r * r) <= 1e-10


def test_r_squared_constant_target():
    m = LinearModel(intercept=0.0, coefficients=np.array([1.0]))
    with pytest.raises(DegenerateDataError):
        r_squared(m, [[1.0], [2.0]], [4.0, 4.0])


def test_fit_stat_fields():
    x = np.array([[1.0], [2.0], [4.0]])
    y = np.array([1.0, 2.0, 3.0])
    stat = fit_stat(fit_simple(x[:, 0], y), x, y)
    assert stat.lsr >= 0.0
    assert stat.r_squared <= 1.0


def test_ridge_zero_lambda_matches_ols():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    ols = fit_multiple(x, y)
    ridge = fit_ridge(x, y, 0.0)
    assert ridge.intercept == pytest.approx(ols.intercept, abs=1e-8)
    assert ridge.coefficients == pytest.approx(ols.coefficients, abs=1e-8)


def test_ridge_infinite_penalty_limit():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 3))
    y = 2.0 + x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=30) * 0.1
    ols = fit_multiple(x, y)
    heavy = fit_ridge(x, y, 1e9)
    assert np.max(np.abs(heavy.coefficients)) <= 1e-6 * np.max(np.abs(ols.coefficients))
    assert heavy.intercept == pytest.approx(float(y.mean()), abs=1e-6)


def test_ridge_fixes_exact_collinearity():
    x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    m = fit_ridge(x, y, 1e-3)
    assert np.all(np.isfinite(m.coefficients))


def test_ridge_shrinkage_monotone():
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.normal(size=(40, 4))
        y = rng.normal(size=40)
        lambdas = [0.0, 0.1, 1.0, 10.0, 100.0]
        norms = [np.linalg.norm(fit_ridge(x, y, lam).coefficients) for lam in lambdas]
        for small, large in zip(norms, norms[1:]):
            assert small >= large - 1e-12


def _standardized(x):
    return (x - x.mean(axis=0)) / x.std(axis=0)


def test_lasso_zero_lambda_matches_ols():
    rng = np.random.default_rng(7)
    x = _standardized(rng.normal(size=(50, 3)))
    y = 1.0 + x @ np.array([1.0, 0.0, -0.5]) + rng.normal(size=50) * 0.1
    tol = 1e-8
    lasso = fit_lasso(x, y, 0.0, tol=tol)
    ols = fit_multiple(x, y)
    assert lasso.converged
    assert np.max(np.abs(lasso.coefficients - ols.coefficients)) <= 10 * tol


def test_lasso_deactivation_bound():
    rng = np.random.default_rng(8)
    x = _standardized(rng.normal(size=(40, 4)))
    y = 0.5 + x @ np.array([2.0, -1.0, 0.0, 0.3]) + rng.normal(size=40) * 0.2
    bound = np.max(np.abs(x.T @ (y - y.mean()))) / len(y)
    m = fit_lasso(x, y, bound * 1.0001)
    assert np.all(m.coefficients == 0.0)
    assert m.intercept == pytest.approx(float(y.mean()), abs=1e-9)


def test_lasso_one_dimensional_soft_threshold():
    rng = np.random.default_rng(9)
    x = _standardized(rng.normal(size=(60, 1)))
    y = 0.3 + 1.7 * x[:, 0] + rng.normal(size=60) * 0.3
    lam = 0.25
    m = fit_lasso(x, y, lam, tol=1e-12)
    # closed form: soft-threshold of the OLS slope (unit column variance)
    rho = float(x[:, 0] @ (y - y.mean())) / len(y)
    expected = np.sign(rho) * max(abs(rho) - lam, 0.0) / float((x**2).mean())
    assert m.coefficients[0] == pytest.approx(expected, abs=1e-9)


def test_lasso_objective_path_non_increasing():
    rng = np.random.default_rng(10)
    x = _standardized(rng.normal(size=(50, 5)))
    y = rng.normal(size=50)
    m = fit_lasso(x, y, 0.05)
    path = np.array(m.objective_path)
    assert np.all(np.diff(path) <= 1e-12 * (1.0 + np.abs(path[:-1])))


def test_lasso_non_convergence_flagged():
    rng = np.random.default_rng(11)
    x = _standardized(rng.normal(size=(50, 5)))
    y = rng.normal(size=50)
    m = fit_lasso(x, y, 1e-4, tol=1e-14, max_sweeps=1)
    assert not m.converged


def test_lasso_rejects_bad_lambda():
    with pytest.raises(ParameterError):
        fit_lasso([[1.0]], [1.0], -0.1)

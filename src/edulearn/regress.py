"""Closed-form least squares: simple, multiple, and polynomial regression,
plus ridge and coordinate-descent lasso.

All fits minimize the sum of squared residuals (optionally penalized);
multiple regression goes through the normal equations and the shared SPD
solver. Intercepts are never penalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    DimensionError,
    ParameterError,
    SingularMatrixError,
)
from .numcore import as_matrix, as_vector, frozen, solve_spd

__all__ = [
    "LinearModel",
    "FitStat",
    "fit_simple",
    "fit_multiple",
    "polynomial_features",
    "lsr_objective",
    "r_squared",
    "fit_stat",
    "fit_ridge",
    "fit_lasso",
]

# variance below this is treated as "constant" for predictors/targets
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class LinearModel:
    """Fitted linear model: y_hat = intercept + X @ coefficients.

    ``converged`` is only meaningful for iterative fits (lasso); closed-form
    fits always set it. ``objective_path`` records the per-sweep lasso
    objective for diagnostics and is empty for closed-form fits.
    """

    intercept: float
    coefficients: np.ndarray
    converged: bool = True
    objective_path: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", frozen(as_vector(self.coefficients)))

    def predict(self, x) -> np.ndarray:
        xm = as_matrix(x)
        d = self.coefficients.shape[0]
        if xm.shape[1] != d:
            raise DimensionError(f"model has {d} coefficients but input has {xm.shape[1]} columns")
        return self.intercept + xm @ self.coefficients


@dataclass(frozen=True)
class FitStat:
    """Residual sum of squares and coefficient of determination."""

    lsr: float
    r_squared: float

    def __post_init__(self):
        if self.lsr < 0:
            raise ParameterError("lsr must be non-negative")


def fit_simple(x, y) -> LinearModel:
    """Slope/intercept of one-variable least squares.

    slope = sum((y - ybar)(x - xbar)) / sum((x - xbar)^2), intercept =
    ybar - slope * xbar.
    """
    xv, yv = as_vector(x), as_vector(y)
    if xv.shape[0] != yv.shape[0]:
        raise DimensionError(f"fit_simple: lengths differ ({xv.shape[0]} vs {yv.shape[0]})")
    if xv.shape[0] < 2:
        raise ParameterError("fit_simple needs at least 2 points")
    xbar, ybar = xv.mean(), yv.mean()
    sxx = float(((xv - xbar) ** 2).sum())
    if sxx < _DEGENERATE_TOL:
        raise DegenerateDataError("fit_simple: predictor is constant")
    slope = float(((yv - ybar) * (xv - xbar)).sum()) / sxx
    return LinearModel(intercept=float(ybar - slope * xbar), coefficients=[slope])


def fit_multiple(x, y) -> LinearModel:
    """Multiple linear regression via the normal equations on [X | 1]."""
    xm, yv = as_matrix(x), as_vector(y)
    n, d = xm.shape
    if n != yv.shape[0]:
        raise DimensionError(f"fit_multiple: {n} rows but {yv.shape[0]} targets")
    if n < d + 1:
        raise ParameterError(f"fit_multiple needs at least {d + 1} rows for {d} predictors")
    g = np.hstack([xm, np.ones((n, 1))])
    try:
        beta = solve_spd(g.T @ g, g.T @ yv)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"normal matrix is singular (exactly collinear predictors); "
            f"consider fit_ridge with a small lambda [{exc}]",
            pivot=exc.pivot,
        ) from exc
    return LinearModel(intercept=float(beta[-1]), coefficients=beta[:-1])


def polynomial_features(x, degree: int) -> np.ndarray:
    """Powers x^1 .. x^degree as columns of a design matrix."""
    if degree < 1:
        raise ParameterError(f"degree must be >= 1, got {degree}")
    xv = as_vector(x)
    return frozen(np.column_stack([xv**k for k in range(1, degree + 1)]))


def lsr_objective(model: LinearModel, x, y) -> float:
    """Sum of squared residuals of the model on (x, y)."""
    yv = as_vector(y)
    pred = model.predict(x)
    if pred.shape[0] != yv.shape[0]:
        raise DimensionError(f"lsr_objective: {pred.shape[0]} rows but {yv.shape[0]} targets")
    r = yv - pred
    return float(r @ r)


def r_squared(model: LinearModel, x, y) -> float:
    """1 - SSE/SST with SST about the target mean."""
    yv = as_vector(y)
    sst = float(((yv - yv.mean()) ** 2).sum())
    if sst < _DEGENERATE_TOL:
        raise DegenerateDataError("r_squared: target is constant")
    return 1.0 - lsr_objective(model, x, y) / sst


def fit_stat(model: LinearModel, x, y) -> FitStat:
    return FitStat(lsr=lsr_objective(model, x, y), r_squared=r_squared(model, x, y))


def fit_ridge(x, y, lam: float) -> LinearModel:
    """L2-penalized least squares with an unpenalized intercept.

    Solves (Xc^T Xc + lam I) beta = Xc^T yc on centered data; the intercept
    is ybar - beta . xbar. Callers should standardize X so the penalty is
    scale-consistent.
    """
    if lam < 0:
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    xm, yv = as_matrix(x), as_vector(y)
    if xm.shape[0] != yv.shape[0]:
        raise DimensionError(f"fit_ridge: {xm.shape[0]} rows but {yv.shape[0]} targets")
    xbar = xm.mean(axis=0)
    ybar = yv.mean()
    xc = xm - xbar
    a = xc.T @ xc + lam * np.eye(xm.shape[1])
    beta = solve_spd(a, xc.T @ (yv - ybar))
    return LinearModel(intercept=float(ybar - beta @ xbar), coefficients=beta)


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def fit_lasso(x, y, lam: float, tol: float = 1e-8, max_sweeps: int = 10_000) -> LinearModel:
    """Coordinate-descent minimizer of (1/2n)||y - b0 - X beta||^2 + lam ||beta||_1.

    The intercept is unpenalized. Stops when the largest coefficient change
    in a sweep (intercept included) drops below ``tol``; if ``max_sweeps``
    runs out first the model is returned with ``converged=False``. The
    per-sweep objective is recorded in ``objective_path`` and must never
    increase.
    """
    if lam < 0:
        raise ParameterError(f"lambda must be >= 0, got {lam}")
    if tol <= 0 or max_sweeps < 1:
        raise ParameterError("fit_lasso needs tol > 0 and max_sweeps >= 1")
    xm, yv = as_matrix(x), as_vector(y)
    n, d = xm.shape
    if n != yv.shape[0]:
        raise DimensionError(f"fit_lasso: {n} rows but {yv.shape[0]} targets")
    if n < 1:
        raise DimensionError("fit_lasso needs at least one row")

    col_sq = (xm**2).sum(axis=0) / n
    beta = np.zeros(d)
    intercept = float(yv.mean())
    resid = yv - intercept

    def objective() -> float:
        return float(resid @ resid) / (2 * n) + lam * float(np.abs(beta).sum())

    path = [objective()]
    converged = False
    for _ in range(max_sweeps):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] == 0.0:
                continue
            rho = float(xm[:, j] @ resid) / n + col_sq[j] * beta[j]
            new = _soft_threshold(rho, lam) / col_sq[j]
            if new != beta[j]:
                resid -= (new - beta[j]) * xm[:, j]
                max_delta = max(max_delta, abs(new - beta[j]))
                beta[j] = new
        shift = float(resid.mean())
        if shift != 0.0:
            intercept += shift
            resid -= shift
            max_delta = max(max_delta, abs(shift))
        obj = objective()
        assert obj <= path[-1] + 1e-10 * (1.0 + abs(path[-1])), "lasso objective increased"
        path.append(obj)
        if max_delta < tol:
            converged = True
            break

    return LinearModel(
        intercept=intercept,
        coefficients=beta,
        converged=converged,
        objective_path=tuple(path),
    )

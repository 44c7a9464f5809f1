"""Shape checks, read-only arrays and the symmetric positive definite solver.

Every numeric field and return value in edulearn is a C-ordered float64
ndarray made read-only by ``frozen``. The shape checks check only the number
of dimensions: finiteness is checked where values enter the program.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, SingularMatrixError

__all__ = ["frozen", "as_vector", "as_matrix", "solve_spd"]


def frozen(arr) -> np.ndarray:
    """A read-only view of ``arr`` as a C-ordered float64 array; it copies
    only an array that is not one already."""
    view = np.ascontiguousarray(arr, dtype=np.float64).view()
    view.setflags(write=False)
    return view


def as_vector(x) -> np.ndarray:
    """``x`` as a 1-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"expected a vector, got shape {arr.shape}")
    return arr


def as_matrix(x) -> np.ndarray:
    """``x`` as a 2-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {arr.shape}")
    return arr


# unused by edulearn: kept, unchanged, while perfbench/tracer.py wraps the two classes below
def _validated(values, ndim: int, what: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise DimensionError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DenseVector:
    """Ordered sequence of 64-bit floats; immutable after construction."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated(self.values, 1, "vector"))

    def __len__(self) -> int:
        return self.values.shape[0]

    def to_list(self) -> list[float]:
        return [float(v) for v in self.values]


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Row-major dense matrix of 64-bit floats; immutable after construction."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _validated(self.values, 2, "matrix"))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def row_major(self) -> list[float]:
        """Entries flattened in row-major order."""
        return [float(v) for v in self.values.ravel(order="C")]


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor; raises SingularMatrixError at the first bad pivot.

    Only the lower triangle of ``a`` is read; symmetry is the caller's
    responsibility per the solve_spd contract.
    """
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - lower[j, :j] @ lower[j, :j]
        if not np.isfinite(d) or d <= 0.0:
            raise SingularMatrixError(
                f"matrix is not positive definite: pivot {j} is {d:.6e}", pivot=j
            )
        ljj = math.sqrt(d)
        lower[j, j] = ljj
        if j + 1 < n:
            lower[j + 1 :, j] = (a[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / ljj
    return lower


def solve_spd(a, b) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky."""
    am, bv = as_matrix(a), as_vector(b)
    if am.shape[0] != am.shape[1]:
        raise DimensionError(f"solve_spd: matrix is {am.shape[0]}x{am.shape[1]}, not square")
    if am.shape[0] != bv.shape[0]:
        raise DimensionError(
            f"solve_spd: matrix order {am.shape[0]} but right-hand side length {bv.shape[0]}"
        )
    lower = _cholesky_lower(am)
    n = am.shape[0]
    # forward substitution L y = b
    y = np.zeros(n)
    for i in range(n):
        y[i] = (bv[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    # back substitution L^T x = y
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - lower[i + 1 :, i] @ x[i + 1 :]) / lower[i, i]
    return frozen(x)

import numpy as np
import pytest

from edulearn.errors import DimensionError, ParameterError, SingularMatrixError
from edulearn.numcore import DenseMatrix, DenseVector, solve_spd


def test_solve_spd_identity():
    x = solve_spd(np.eye(3), [1.0, 2.0, 3.0])
    assert x.tolist() == [1.0, 2.0, 3.0]


def test_solve_spd_diagonal():
    x = solve_spd([[4.0, 0.0], [0.0, 9.0]], [8.0, 27.0])
    assert x.tolist() == [2.0, 3.0]


def test_solve_spd_rank_deficient_names_pivot():
    with pytest.raises(SingularMatrixError) as excinfo:
        solve_spd([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
    assert excinfo.value.pivot == 1
    assert "1" in str(excinfo.value)


def test_solve_spd_random_spd_residual():
    # A = M^T M + 1e-6 I, n <= 8: residual bounded by 1e-8 * (1 + ||b||_inf)
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = rng.normal(size=(n, n))
        a = m.T @ m + 1e-6 * np.eye(n)
        b = rng.normal(size=n)
        x = solve_spd(a, b)
        residual = np.max(np.abs(a @ x - b))
        assert residual <= 1e-8 * (1.0 + np.max(np.abs(b)))


def test_solve_spd_shape_errors():
    with pytest.raises(DimensionError):
        solve_spd([[1.0, 0.0]], [1.0])
    with pytest.raises(DimensionError):
        solve_spd(np.eye(2), [1.0, 2.0, 3.0])


def test_vector_rejects_non_finite():
    with pytest.raises(ParameterError):
        DenseVector([1.0, float("nan")])
    with pytest.raises(ParameterError):
        DenseMatrix([[float("inf")]])


def test_wrong_dimensionality_rejected():
    with pytest.raises(DimensionError):
        DenseVector([[1.0]])
    with pytest.raises(DimensionError):
        DenseMatrix([1.0, 2.0])


def test_matrix_row_major_layout():
    m = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.rows == 2 and m.cols == 2
    assert m.row_major() == [1.0, 2.0, 3.0, 4.0]


def test_values_are_immutable():
    v = DenseVector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.values[0] = 9.0

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edulearn import classify
from edulearn.classify import (
    _OBJECTIVE_BLOCK,
    _SGD_BLOCK,
    _sigmoid_scalar,
    ClassMetrics,
    LogisticModel,
    OptimizerConfig,
    binary_loss_grad,
    compute_metrics,
    fit_gd,
    fit_lbfgs,
    fit_sgd,
    predict,
    predict_proba,
    sigmoid,
    softmax_loss_grad,
    train_logistic,
)
from edulearn.errors import (
    DimensionError,
    DivergenceError,
    ParameterError,
    StalledDescentError,
)


def test_sigmoid_examples():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(math.log(3.0)) == pytest.approx(0.75, abs=1e-15)
    hi, lo = sigmoid(100.0), sigmoid(-100.0)
    assert hi == pytest.approx(1.0, abs=1e-9) and hi < 1.0
    assert lo == pytest.approx(0.0, abs=1e-9) and lo > 0.0


def test_sigmoid_symmetry():
    for z in (0.1, 1.0, 10.0, 50.0):
        assert abs(sigmoid(z) + sigmoid(-z) - 1.0) <= 1e-15


def test_sigmoid_array_input():
    out = sigmoid(np.array([0.0, 100.0, -100.0]))
    assert out.shape == (3,)
    assert out[0] == 0.5


def test_binary_loss_at_zero_weights():
    rng = np.random.default_rng(0)
    for _ in range(5):
        n, d = int(rng.integers(1, 10)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        loss, _ = binary_loss_grad(np.zeros(d + 1), x, y)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_binary_grad_hand_example():
    loss, grad = binary_loss_grad([0.0, 0.0], [[1.0]], [1.0])
    assert grad.tolist() == pytest.approx([-0.5, -0.5], abs=1e-15)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def _central_diff(f, theta, h=1e-6):
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        out[i] = (f(up) - f(down)) / (2 * h)
    return out


def test_binary_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        l2 = float(rng.uniform(0.0, 0.5))
        theta = rng.normal(size=d + 1)
        _, grad = binary_loss_grad(theta, x, y, l2)
        fd = _central_diff(lambda t: binary_loss_grad(t, x, y, l2)[0], theta)
        denom = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-5


def test_softmax_loss_at_zero_weights():
    rng = np.random.default_rng(2)
    for k in (2, 3, 5):
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, k, 6)
        loss, _ = softmax_loss_grad(np.zeros((k, 3)), np.zeros(k), x, y)
        assert loss == pytest.approx(math.log(k), abs=1e-12)


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, d, k = int(rng.integers(2, 9)), int(rng.integers(1, 5)), 3
        x = rng.normal(size=(n, d))
        y = rng.integers(0, k, n)
        l2 = float(rng.uniform(0.0, 0.5))
        w = rng.normal(size=(k, d))
        b = rng.normal(size=k)

        def value(theta):
            return softmax_loss_grad(theta[: k * d].reshape(k, d), theta[k * d :], x, y, l2)[0]

        theta = np.concatenate([w.ravel(), b])
        _, grad = softmax_loss_grad(w, b, x, y, l2)
        fd = _central_diff(value, theta)
        denom = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / denom) <= 1e-5


def _softmax_loss_grad_per_row(w, b, x, y, l2):
    """The multinomial loss and packed gradient, one row at a time."""
    n = x.shape[0]
    loss, gw, gb = 0.0, np.zeros_like(w), np.zeros_like(b)
    for xi, yi in zip(x, y):
        z = w @ xi + b
        lse = z.max() + math.log(np.exp(z - z.max()).sum())
        loss += lse - z[yi]
        p = np.exp(z - lse)
        p[yi] -= 1.0
        gw += np.outer(p, xi)
        gb += p
    loss = loss / n + 0.5 * l2 * float((w * w).sum())
    return loss, np.concatenate([(gw / n + l2 * w).ravel(), gb / n])


def _with_rows(cases, row_counts):
    """Each case once per row count; the first count keeps the case's id,
    the others add "-n<rows>" to it."""
    return [
        pytest.param(*case, n, id="-".join(map(str, case)) + (f"-n{n}" if i else ""))
        for i, n in enumerate(row_counts)
        for case in cases
    ]


# 60 rows fit in one block of the objective; the others end one row short
# of a block, on a block boundary, one row into a second block and five rows
# into a third
@pytest.mark.parametrize(
    "k, l2, n",
    _with_rows(
        [(k, l2) for k in (3, 4) for l2 in (0.0, 0.1)],
        [60, *(_OBJECTIVE_BLOCK + i for i in (-1, 0, 1)), 2 * _OBJECTIVE_BLOCK + 5],
    ),
)
def test_softmax_loss_grad_matches_per_row_reference(k, l2, n):
    rng = np.random.default_rng(40 + k)
    d = 5
    x = rng.normal(size=(n, d))
    x[:3] *= 300.0  # rows with logits in the hundreds, one class far ahead
    y = rng.integers(0, k, n)
    w = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    loss, grad = softmax_loss_grad(w, b, x, y, l2)
    ref_loss, ref_grad = _softmax_loss_grad_per_row(w, b, x, y, l2)
    assert abs(w @ x[0] + b).max() > 100.0
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda x, y, k: binary_loss_grad(np.zeros(3), x, y.astype(float)),
        lambda x, y, k: softmax_loss_grad(np.zeros((k, 2)), np.zeros(k), x, y),
        *(
            lambda x, y, k, fit=fit: fit(x, y, OptimizerConfig(solver=fit.__name__[4:]), "abc"[:k])
            for fit in (fit_gd, fit_lbfgs, fit_sgd)
        ),
    ],
    ids=["binary_loss_grad", "softmax_loss_grad", "fit_gd", "fit_lbfgs", "fit_sgd"],
)
def test_zero_rows_raise_dimension_error(call, k):
    """A mean loss over no rows is 0/0: every entry point names the empty
    input instead of returning nan, a zero model, or a divergence."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionError, match="at least one row"):
            call(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), k)


@pytest.mark.parametrize("fit", [fit_gd, fit_lbfgs, fit_sgd])
def test_trainers_reject_a_label_count_unlike_the_row_count(fit):
    x = np.zeros((3, 2))
    with pytest.raises(DimensionError, match="3 rows but 2 labels"):
        fit(x, np.array([0, 1]), OptimizerConfig(solver=fit.__name__[4:]))


@st.composite
def _softmax_problems(draw):
    n, d, k = draw(st.integers(1, 8)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    values = st.floats(-5.0, 5.0)
    return (
        draw(arrays(np.float64, (k, d), elements=values)),
        draw(arrays(np.float64, k, elements=values)),
        draw(arrays(np.float64, (n, d), elements=values)),
        draw(arrays(np.int64, n, elements=st.integers(0, k - 1))),
        draw(st.sampled_from([0.0, 0.1])),
    )


@settings(deadline=None)
@given(_softmax_problems(), st.floats(-50.0, 50.0))
def test_softmax_loss_grad_invariant_to_intercept_shift(problem, shift):
    """Adding one constant to every intercept adds it to every logit, which
    softmax ignores: the loss and gradient stay the same up to rounding."""
    w, b, x, y, l2 = problem
    loss, grad = softmax_loss_grad(w, b, x, y, l2)
    shifted_loss, shifted_grad = softmax_loss_grad(w, b + shift, x, y, l2)
    assert shifted_loss == pytest.approx(loss, rel=1e-12, abs=1e-11)
    assert np.allclose(shifted_grad, grad, rtol=0.0, atol=1e-11)


def test_fit_gd_separable_sign():
    x = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    cfg = OptimizerConfig(solver="gd", l2=0.1, tol=1e-8, max_iter=10_000)
    model = fit_gd(x, y, cfg)
    assert model.converged
    assert model.weights[0, 0] > 0.0
    # cross-check against the L-BFGS minimizer of the same strictly convex objective
    ref = fit_lbfgs(x, y, OptimizerConfig(solver="lbfgs", l2=0.1, tol=1e-10))
    assert model.weights[0, 0] == pytest.approx(ref.weights[0, 0], abs=1e-4)


def test_fit_gd_huge_tol_stops_immediately():
    x = np.array([[1.0], [2.0]])
    y = np.array([0, 1])
    model = fit_gd(x, y, OptimizerConfig(solver="gd", tol=1e6))
    assert model.iterations_used == 0
    assert model.converged
    assert model.weights.tolist() == [[0.0]]
    assert model.loss_path[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_fit_gd_loss_path_non_increasing():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, 30)
    model = fit_gd(x, y, OptimizerConfig(solver="gd", l2=0.01, max_iter=200))
    path = np.array(model.loss_path)
    assert np.all(np.diff(path) <= 0.0)


@st.composite
def _descent_problems(draw):
    """A binary or multinomial problem of up to 40 rows, or of one to two
    blocks of the objective, drawn from a seed: (x, y, l2)."""
    k = draw(st.integers(2, 4))
    n = draw(st.one_of(st.integers(1, 40), st.integers(_OBJECTIVE_BLOCK + 1, 2 * _OBJECTIVE_BLOCK)))
    d = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([0.5, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = scale * rng.normal(size=(n, d))
    y = np.argmax(x[:, :1] * np.arange(k) + scale * rng.normal(size=(n, k)), axis=1)
    return x, y, draw(st.sampled_from([0.0, 0.1]))


@settings(deadline=None, max_examples=60)
@given(_descent_problems(), st.sampled_from([fit_gd, fit_lbfgs]))
def test_descent_loss_paths_never_increase(problem, fit):
    """Every accepted GD or L-BFGS step passes the Armijo test with a
    descent direction, so no loss on the path exceeds the one before it."""
    x, y, l2 = problem
    model = fit(x, y, OptimizerConfig(solver=fit.__name__[4:], l2=l2, max_iter=60))
    path = np.array(model.loss_path)
    assert len(path) == model.iterations_used + 1
    assert np.all(np.diff(path) <= 0.0)


def test_fit_sgd_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 4))
    y = rng.integers(0, 2, 40)
    cfg = OptimizerConfig(solver="sgd", learning_rate=0.05, epochs=10, seed=7)
    m1, m2 = fit_sgd(x, y, cfg), fit_sgd(x, y, cfg)
    assert np.array_equal(m1.weights, m2.weights)
    assert np.array_equal(m1.intercepts, m2.intercepts)


def test_fit_sgd_zero_epochs():
    x = np.array([[1.0], [2.0]])
    y = np.array([0, 1])
    model = fit_sgd(x, y, OptimizerConfig(solver="sgd", epochs=0))
    assert not model.converged
    assert model.iterations_used == 0
    assert np.all(model.weights == 0.0)


# at 1e200 the binary weights overflow to inf within the first epoch
@pytest.mark.parametrize("learning_rate", [1.0, 1e200])
def test_fit_sgd_divergence_names_epoch_and_rate(learning_rate):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 2))
    y = rng.integers(0, 2, 20)
    cfg = OptimizerConfig(solver="sgd", learning_rate=learning_rate, l2=5.0, epochs=50, seed=0)
    with pytest.raises(DivergenceError) as excinfo:
        fit_sgd(x, y, cfg)
    assert excinfo.value.epoch is not None
    assert excinfo.value.learning_rate == learning_rate


def _reference_sgd(x, y, cfg):
    """Per-sample SGD as one numpy step per row: the semantics fit_sgd keeps,
    with none of its regrouping. Returns (weights, intercepts, loss_path)."""
    xm = np.ascontiguousarray(x, dtype=np.float64)
    yi = np.asarray(y, dtype=np.int64)
    n, d = xm.shape
    k = max(2, int(yi.max()) + 1)
    lr, l1, l2 = cfg.learning_rate, cfg.l1, cfg.l2
    rng = np.random.default_rng(cfg.seed)
    loss_path = []
    if k == 2:
        w = np.zeros(d)
        b = 0.0
        yb = yi.astype(np.float64)
        buf = np.empty(d)
        for epoch in range(cfg.epochs):
            for i in rng.permutation(n):
                xi = xm[i]
                gs = _sigmoid_scalar(float(w @ xi) + b) - yb[i]
                if l2 > 0.0:
                    w *= 1.0 - lr * l2  # the l2 part of the per-sample gradient
                np.multiply(xi, lr * gs, out=buf)
                w -= buf
                b -= lr * gs
                if l1 > 0.0:
                    w = np.sign(w) * np.maximum(np.abs(w) - lr * l1, 0.0)
            loss_path.append(binary_loss_grad(np.concatenate([w, [b]]), xm, yb, l2)[0])
        return w[None, :], np.array([b]), loss_path
    w = np.zeros((k, d))
    b = np.zeros(k)
    delta = np.empty(k)
    buf = np.empty((k, d))
    for epoch in range(cfg.epochs):
        for i in rng.permutation(n):
            xi = xm[i]
            np.matmul(w, xi, out=delta)
            delta += b
            delta -= delta.max()
            np.exp(delta, out=delta)
            delta /= delta.sum()
            delta[yi[i]] -= 1.0
            delta *= lr
            if l2 > 0.0:
                w *= 1.0 - lr * l2
            np.multiply(delta[:, None], xi, out=buf)
            w -= buf
            b -= delta
            if l1 > 0.0:
                w = np.sign(w) * np.maximum(np.abs(w) - lr * l1, 0.0)
        loss_path.append(softmax_loss_grad(w, b, xm, yi, l2)[0])
    return w, b, loss_path


def _assert_matches_reference(x, y, cfg):
    weights, intercepts, loss_path = _reference_sgd(x, y, cfg)
    model = fit_sgd(x, y, cfg)
    got = np.concatenate([model.weights.ravel(), model.intercepts])
    ref = np.concatenate([weights.ravel(), intercepts])
    assert model.weights.shape == weights.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)
    assert len(model.loss_path) == len(loss_path) == cfg.epochs
    assert np.all(np.abs(np.subtract(model.loss_path, loss_path)) <= 1e-12 * np.abs(loss_path))
    return model


# row counts below one block, a whole number of blocks, and neither; three
# classes take their own walk, and four the generic multinomial one
@pytest.mark.parametrize("n", [_SGD_BLOCK - 3, 2 * _SGD_BLOCK, 2 * _SGD_BLOCK + 5])
@pytest.mark.parametrize("l2", [0.0, 0.1])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_fit_sgd_matches_per_sample_reference(k, l2, n):
    rng = np.random.default_rng(100 * k + n)
    x = rng.normal(size=(n, 4))
    y = np.arange(n) % k
    cfg = OptimizerConfig(solver="sgd", learning_rate=0.1, l2=l2, epochs=6, seed=3)
    model = _assert_matches_reference(x, y, cfg)
    assert np.all(model.weights != 0.0)


@st.composite
def _sgd_problems(draw):
    """(x, y, cfg) with 2, 3 or 4 classes, up to three rows short of or past
    one or two SGD blocks, and some all-zero rows, whose logits are the
    intercepts alone and tie while those are equal (at the first step)."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.sampled_from([1, 2])) * _SGD_BLOCK + draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, draw(st.integers(1, 4))))
    x[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    y = rng.permutation(np.arange(n) % k)
    l2 = draw(st.sampled_from([0.0, 0.1]))
    return x, y, OptimizerConfig(solver="sgd", learning_rate=0.1, l2=l2, epochs=3, seed=5)


@settings(deadline=None, max_examples=40)
@given(_sgd_problems())
def test_fit_sgd_matches_per_sample_reference_on_drawn_problems(problem):
    _assert_matches_reference(*problem)


# with l1 the walk takes one-row blocks: binary, three-class and generic
@pytest.mark.parametrize("k", [2, 3, 4])
def test_fit_sgd_l1_matches_per_sample_reference(k):
    rng = np.random.default_rng(17)
    x = rng.normal(size=(2 * _SGD_BLOCK + 5, 5))
    y = np.arange(len(x)) % k
    for l2 in (0.0, 0.1):
        cfg = OptimizerConfig(solver="sgd", learning_rate=0.1, l1=0.05, l2=l2, epochs=6, seed=4)
        _assert_matches_reference(x, y, cfg)


@pytest.mark.parametrize("k", [2, 3])
def test_fit_sgd_zero_epochs_gives_zero_weights(k):
    x = np.arange(12.0).reshape(6, 2)
    model = fit_sgd(x, np.arange(6) % k, OptimizerConfig(solver="sgd", epochs=0))
    assert model.weights.shape == (1 if k == 2 else k, 2)
    assert np.all(model.weights == 0.0) and np.all(model.intercepts == 0.0)
    assert model.loss_path == ()


@pytest.mark.parametrize("k", [2, 3])
def test_fit_sgd_overflow_is_divergence_at_epoch_1_without_warnings(k):
    # c = 1 - lr*l2 = -5e200: without l1 its powers overflow as soon as they
    # are built; with l1 (one-row blocks) the weights overflow within a few
    # rows, and the soft threshold reads them
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 2))
    y = np.arange(20) % k
    for l1 in (0.0, 0.05):
        cfg = OptimizerConfig(solver="sgd", learning_rate=1e200, l2=5.0, l1=l1, epochs=50, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="epoch 1 ") as excinfo:
                fit_sgd(x, y, cfg)
        assert excinfo.value.epoch == 1


def test_fit_sgd_multinomial_runs():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 3))
    y = rng.integers(0, 3, 60)
    model = fit_sgd(x, y, OptimizerConfig(solver="sgd", epochs=5, seed=1))
    assert model.weights.shape[0] == 3
    assert model.iterations_used == 5


def test_fit_sgd_l1_soft_threshold_sparsifies():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(80, 5))
    y = (x[:, 0] > 0).astype(int)
    # per-step threshold lr*l1 = 0.05 exceeds any per-sample gradient step here,
    # so every coordinate is clamped back to exactly 0
    strong = fit_sgd(x, y, OptimizerConfig(solver="sgd", epochs=20, l1=5.0, seed=2))
    assert np.all(strong.weights == 0.0)
    # a mild threshold shrinks without zeroing everything
    mild = fit_sgd(x, y, OptimizerConfig(solver="sgd", epochs=20, l1=0.05, seed=2))
    plain = fit_sgd(x, y, OptimizerConfig(solver="sgd", epochs=20, seed=2))
    assert np.linalg.norm(mild.weights) < np.linalg.norm(plain.weights)


def test_fit_lbfgs_heavy_l2_converges_fast():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(100, 5))
    y = rng.integers(0, 2, 100)
    model = fit_lbfgs(x, y, OptimizerConfig(solver="lbfgs", l2=10.0, tol=1e-8))
    assert model.converged
    assert model.iterations_used <= 50
    assert np.all(np.diff(np.array(model.loss_path)) <= 0.0)


def test_gd_and_lbfgs_agree_on_strictly_convex_problems():
    rng = np.random.default_rng(10)
    for _ in range(10):
        n, d = 40, int(rng.integers(1, 6))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n)
        l2 = float(rng.uniform(0.01, 1.0))
        gd = fit_gd(x, y, OptimizerConfig(solver="gd", l2=l2, tol=1e-8, max_iter=100_000))
        lb = fit_lbfgs(x, y, OptimizerConfig(solver="lbfgs", l2=l2, tol=1e-8, max_iter=5000))
        assert gd.converged and lb.converged
        gap = max(
            np.max(np.abs(gd.weights - lb.weights)),
            np.max(np.abs(gd.intercepts - lb.intercepts)),
        )
        assert gap <= 1e-4


def test_lbfgs_multinomial_matches_gd():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 3))
    y = rng.integers(0, 3, 50)
    gd = fit_gd(x, y, OptimizerConfig(solver="gd", l2=0.1, tol=1e-8, max_iter=100_000))
    lb = fit_lbfgs(x, y, OptimizerConfig(solver="lbfgs", l2=0.1, tol=1e-8))
    assert np.max(np.abs(gd.weights - lb.weights)) <= 1e-4


def _packed_objective(x, y, k, l2):
    """The trainers' objective at a packed parameter vector, from the public
    loss functions: (loss, gradient array)."""
    d = x.shape[1]
    if k == 2:
        def objective(theta):
            loss, grad = binary_loss_grad(theta, x, y.astype(float), l2)
            return loss, grad
        return objective, d + 1

    def objective(theta):
        loss, grad = softmax_loss_grad(theta[: k * d].reshape(k, d), theta[k * d :], x, y, l2)
        return loss, grad
    return objective, k * d + k


def _reference_descent(objective, n_params, tol, max_iter, memory, unit_steps=False):
    """Barzilai-Borwein gradient descent (memory 0; steepest descent with
    ``unit_steps``) or textbook two-loop L-BFGS (Nocedal & Wright, Algorithm
    7.4), each step an Armijo backtracking search that halves a unit step
    along the direction; returns (theta, iterations, loss path, objective
    evaluations)."""
    theta = np.zeros(n_params)
    f, g = objective(theta)
    path, evaluations = [f], 1
    pairs = []  # (s, y) with s.y > 1e-12, oldest first
    newest = None  # the newest such pair, kept at every memory
    while np.max(np.abs(g)) >= tol and len(path) - 1 < max_iter:
        if not memory and newest is not None and not unit_steps:
            p = -(float(newest[0] @ newest[1]) / float(newest[1] @ newest[1])) * g
        elif pairs:
            q = g.copy()
            alphas = []
            for s, yv in reversed(pairs):
                alphas.append(1.0 / float(s @ yv) * float(s @ q))
                q -= alphas[-1] * yv
            q *= float(pairs[-1][0] @ pairs[-1][1]) / float(pairs[-1][1] @ pairs[-1][1])
            for (s, yv), a in zip(pairs, reversed(alphas)):
                q += (a - 1.0 / float(s @ yv) * float(yv @ q)) * s
            p = -q
            if float(p @ g) >= 0.0:
                p = -g
        else:
            p = -g
        slope, step = float(g @ p), 1.0
        while True:
            new = theta + step * p
            f_new, g_new = objective(new)
            evaluations += 1
            if math.isfinite(f_new) and f_new <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        if not (new - theta).any():
            break  # a fixed point: every later iteration would repeat this one
        if float((new - theta) @ (g_new - g)) > 1e-12:
            newest = (new - theta, g_new - g)
            if memory:
                pairs = [*pairs, newest][-memory:]
        theta, f, g = new, f_new, g_new
        path.append(f)
    return theta, len(path) - 1, path, evaluations


# 80 rows fit in one block of the multinomial objective; the other count
# takes three blocks, the last one partial
@pytest.mark.parametrize(
    "solver, memory, k, l2, n",
    _with_rows(
        [(s, m, k, l2) for s, m in (("gd", 0), ("lbfgs", 10)) for k in (2, 3) for l2 in (0.0, 0.1)],
        [80, 2 * _OBJECTIVE_BLOCK + 5],
    ),
)
def test_descent_trainers_follow_the_reference_trajectory(solver, memory, k, l2, n):
    # features this wide make unit steps overshoot, so the line search halves
    # some GD steps, and L-BFGS runs long enough to drop its oldest pairs
    rng = np.random.default_rng(20 + k)
    x = 4.0 * rng.normal(size=(n, 4))
    y = np.argmax(x[:, :k] + 4.0 * rng.normal(size=(n, k)), axis=1)
    cfg = OptimizerConfig(solver=solver, l2=l2, tol=1e-8, max_iter=150)
    model = (fit_gd if solver == "gd" else fit_lbfgs)(x, y, cfg)
    objective, n_params = _packed_objective(x, y, k, l2)
    theta, iterations, path, evaluations = _reference_descent(
        objective, n_params, cfg.tol, 150, memory
    )
    m = model.weights.shape[0]
    assert model.weights.tobytes() == theta[: m * 4].tobytes()
    assert model.intercepts.tobytes() == theta[m * 4 :].tobytes()
    assert (model.iterations_used, model.loss_path) == (iterations, tuple(path))
    if solver == "gd":  # one evaluation per iteration, the first point's, and a halving
        assert evaluations > iterations + 1


def test_gd_takes_a_third_of_the_unit_step_iterations():
    # feature scales 1 to 0.2 spread the Hessian's eigenvalues ~25-fold;
    # measured: 145 Barzilai-Borwein iterations against 1,253 unit steps
    rng = np.random.default_rng(0)
    scales = np.array([1.0, 0.5, 0.3, 0.2])
    x = rng.normal(size=(200, 4)) * scales
    y = np.argmax(x / scales @ rng.normal(size=(4, 3)) + 2.0 * rng.normal(size=(200, 3)), axis=1)
    cfg = OptimizerConfig(solver="gd", tol=1e-8, max_iter=5000)
    objective, n_params = _packed_objective(x, y, 3, 0.0)
    theta, unit_iterations, _, _ = _reference_descent(
        objective, n_params, cfg.tol, cfg.max_iter, 0, unit_steps=True
    )
    assert np.max(np.abs(objective(theta)[1])) < cfg.tol
    model = fit_gd(x, y, cfg)
    assert model.converged
    assert 3 * model.iterations_used <= unit_iterations


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_descent_at_the_loss_rounding_floor_stops_short_of_max_iter(seed, monkeypatch):
    # features scaled 1 to 4 leave GD's gradient at 1.1e-8 to 1.5e-8 where
    # the loss stops changing in float64. There the line search halves each
    # step until it no longer moves the weights; these fits then repeated
    # that to max_iter, 54,482-56,979 objective evaluations. Measured with
    # the stop: 192-232 iterations and 272-435 evaluations.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(300, 4)) * np.array([1.0, 2.0, 3.0, 4.0])
    y = np.argmax(x @ rng.normal(size=(4, 3)) + rng.normal(size=(300, 3)), axis=1)
    cfg = OptimizerConfig(solver="gd", l2=0.01, tol=1e-8, max_iter=2000)
    objective, n_params = _packed_objective(x, y, 3, cfg.l2)
    theta, iterations, path, ref_evaluations = _reference_descent(
        objective, n_params, cfg.tol, cfg.max_iter, 0
    )
    evaluations = []
    value_grad = classify._multinomial_value_grad
    monkeypatch.setattr(
        classify, "_multinomial_value_grad", lambda *a: evaluations.append(1) or value_grad(*a)
    )
    model = fit_gd(x, y, cfg)
    assert not model.converged and model.grad_norm >= cfg.tol
    assert model.iterations_used < 400 and len(evaluations) < 1000
    assert model.weights.tobytes() + model.intercepts.tobytes() == theta.tobytes()
    assert (model.iterations_used, model.loss_path) == (iterations, tuple(path))
    assert len(evaluations) == ref_evaluations
    assert model.grad_norm == np.max(np.abs(objective(theta)[1]))


@pytest.mark.parametrize("fit, solver", [(fit_gd, "gd"), (fit_lbfgs, "lbfgs")])
def test_line_search_stall_is_named_and_keeps_the_iterate(fit, solver):
    # every trial step overflows the loss, down to 2**-50 of the first
    x = np.array([[1e200], [-1e200]])
    with np.errstate(all="ignore"), pytest.raises(StalledDescentError) as info:
        fit(x, np.array([0, 1]), OptimizerConfig(solver=solver))
    assert info.value.iterate.tolist() == [0.0, 0.0]


def test_flipped_labels_flip_predictions():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, 40)
    cfg = OptimizerConfig(solver="lbfgs", l2=0.05, tol=1e-8)
    m_orig = fit_lbfgs(x, y, cfg)
    m_flip = fit_lbfgs(x, 1 - y, cfg)
    assert m_orig.converged and m_flip.converged
    x_new = rng.normal(size=(25, 3))
    assert np.array_equal(predict(m_orig, x_new), 1 - predict(m_flip, x_new))


@pytest.mark.parametrize("fit, solver", [(fit_gd, "gd"), (fit_lbfgs, "lbfgs")])
@pytest.mark.parametrize("k", [3, 4])
def test_permuted_labels_permute_predictions(fit, solver, k):
    """Renaming class c to perm[c] permutes the objective's classes, so the
    fitted weight rows and the predicted classes move the same way."""
    rng = np.random.default_rng(30 + k)
    x = rng.normal(size=(60, 3))
    y = np.argmax(x @ rng.normal(size=(3, k)) + rng.normal(size=(60, k)), axis=1)
    perm = np.roll(np.arange(k), 1)  # no class keeps its index
    cfg = OptimizerConfig(solver=solver, l2=0.05, tol=1e-8, max_iter=100_000)
    m_orig = fit(x, y, cfg)
    m_perm = fit(x, perm[y], cfg)
    assert m_orig.converged and m_perm.converged
    assert np.allclose(m_perm.weights[perm], m_orig.weights, rtol=0, atol=1e-6)
    x_new = rng.normal(size=(25, 3))
    assert np.array_equal(perm[predict(m_orig, x_new)], predict(m_perm, x_new))
    assert len(set(predict(m_orig, x_new))) > 1


def _zero_model(n_classes, d):
    rows = 1 if n_classes == 2 else n_classes
    return LogisticModel(
        weights=np.zeros((rows, d)),
        intercepts=np.zeros(rows),
        class_names=tuple(str(c) for c in range(n_classes)),
        converged=True,
        iterations_used=0,
    )


def test_predict_proba_zero_weight_models():
    x = np.ones((4, 2))
    binary = predict_proba(_zero_model(2, 2), x)
    assert np.all(binary == 0.5)
    multi = predict_proba(_zero_model(3, 2), x)
    assert multi == pytest.approx(np.full((4, 3), 1.0 / 3.0), abs=1e-15)


def test_predict_proba_rows_sum_to_one():
    rng = np.random.default_rng(13)
    model = LogisticModel(
        weights=rng.normal(size=(3, 4)) * 5,
        intercepts=rng.normal(size=3),
        class_names=("a", "b", "c"),
        converged=True,
        iterations_used=1,
    )
    proba = predict_proba(model, rng.normal(size=(50, 4)))
    assert np.max(np.abs(proba.sum(axis=1) - 1.0)) <= 1e-12


def test_predict_boundary_and_ties():
    x = np.zeros((1, 2))
    assert predict(_zero_model(2, 2), x).tolist() == [1]  # p = 0.5 goes to class 1
    assert predict(_zero_model(3, 2), x).tolist() == [0]  # exact tie -> lowest index


def test_predict_dominant_logit():
    model = LogisticModel(
        weights=np.array([[0.0], [0.0], [4.0]]),
        intercepts=np.array([0.0, 0.0, 1.0]),
        class_names=("a", "b", "c"),
        converged=True,
        iterations_used=1,
    )
    assert predict(model, [[2.0]]).tolist() == [2]


def test_predict_feature_mismatch():
    with pytest.raises(DimensionError):
        predict(_zero_model(2, 3), np.zeros((2, 2)))


def test_predict_proba_binary_expansion():
    out = predict_proba(_zero_model(2, 2), np.zeros((3, 2)))
    assert out.shape == (3, 2)
    assert np.all(out == 0.5)


def test_predict_proba_binary_columns_are_one_minus_p_and_p():
    rng = np.random.default_rng(15)
    model = LogisticModel(
        weights=rng.normal(size=(1, 3)) * 4,
        intercepts=rng.normal(size=1),
        class_names=("no", "yes"),
        converged=True,
        iterations_used=1,
    )
    x = rng.normal(size=(40, 3)) * 3
    proba = predict_proba(model, x)
    assert proba.shape == (40, 2)
    assert proba[:, 1].tobytes() == sigmoid(x @ model.weights[0] + model.intercepts[0]).tobytes()
    assert proba[:, 0].tobytes() == (1.0 - proba[:, 1]).tobytes()


def test_softmax_shift_invariance_at_argmax():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    x = rng.normal(size=(200, 4))
    logits = x @ w.T + b
    shifted = logits + rng.normal(size=(200, 1))  # constant per row
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(shifted, axis=1))


def test_compute_metrics_hand_counted():
    report = compute_metrics([0, 0, 1, 1], [0, 1, 1, 1], 2)
    assert report.accuracy == 0.75
    assert report.confusion == ((1, 1), (0, 2))
    cls1 = report.per_class[1]
    assert cls1.precision == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert cls1.recall == 1.0
    assert cls1.f1 == pytest.approx(0.8, abs=1e-15)


def test_compute_metrics_perfect():
    report = compute_metrics([0, 1, 2, 1], [0, 1, 2, 1], 3)
    assert report.accuracy == 1.0
    assert all(m.f1 == 1.0 for m in report.per_class)


def test_compute_metrics_never_predicted_class():
    report = compute_metrics([0, 1, 1], [1, 1, 1], 2)
    assert report.per_class[0].precision == 0.0
    assert report.per_class[0].recall == 0.0
    assert report.per_class[0].f1 == 0.0


def test_compute_metrics_row_sums_match_true_counts():
    rng = np.random.default_rng(15)
    y_true = rng.integers(0, 3, 200)
    y_pred = rng.integers(0, 3, 200)
    report = compute_metrics(y_true, y_pred, 3)
    for c in range(3):
        assert sum(report.confusion[c]) == int((y_true == c).sum())
    assert sum(sum(row) for row in report.confusion) == 200


def test_compute_metrics_errors():
    with pytest.raises(DimensionError):
        compute_metrics([0, 1], [0], 2)
    with pytest.raises(DimensionError):
        compute_metrics([], [], 2)
    with pytest.raises(ParameterError):
        compute_metrics([0, 5], [0, 1], 2)


def test_optimizer_config_validation():
    with pytest.raises(ParameterError):
        OptimizerConfig(solver="newton")
    with pytest.raises(ParameterError):
        OptimizerConfig(solver="lbfgs", l1=0.5)
    with pytest.raises(ParameterError):
        OptimizerConfig(learning_rate=0.0)
    with pytest.raises(ParameterError):
        OptimizerConfig(tol=-1.0)
    for name in ("learning_rate", "tol", "l2", "l1"):
        for value in (math.nan, math.inf):
            with pytest.raises(ParameterError, match=name):
                OptimizerConfig(solver="sgd", **{name: value})
    cfg = OptimizerConfig(solver="sgd", l1=0.5)
    assert cfg.l1 == 0.5


def test_train_logistic_dispatch():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(30, 2))
    y = rng.integers(0, 2, 30)
    for solver in ("gd", "sgd", "lbfgs"):
        cfg = OptimizerConfig(solver=solver, epochs=3, max_iter=50)
        model = train_logistic(x, y, cfg)
        assert model.weights.shape[0] == 1


def test_class_names_carried_through():
    x = np.array([[-1.0], [1.0], [-2.0], [2.0]])
    y = np.array([0, 1, 0, 1])
    model = fit_lbfgs(x, y, OptimizerConfig(solver="lbfgs", l2=0.1), class_names=("no", "yes"))
    assert model.class_names == ("no", "yes")
    assert model.n_classes == 2


def test_mismatched_solver_rejected():
    x = np.array([[1.0], [2.0]])
    y = np.array([0, 1])
    with pytest.raises(ParameterError):
        fit_gd(x, y, OptimizerConfig(solver="lbfgs"))

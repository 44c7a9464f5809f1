"""Logistic regression, binary and multinomial, with three hand-built
trainers (full-batch gradient descent, SGD, L-BFGS) plus the metrics suite.

All trainers start from zero weights and optimize a packed parameter
vector. Binary models pack ``[w_1 .. w_d, intercept]``; multinomial models
pack ``[W row-major (K x d), b_1 .. b_K]``. L2 penalties never touch
intercepts; L1 is available only on the SGD path (per-step soft threshold).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    DimensionError,
    DivergenceError,
    ParameterError,
    StalledDescentError,
)
from .numcore import as_matrix, as_vector, frozen

__all__ = [
    "OptimizerConfig",
    "LogisticModel",
    "ClassMetrics",
    "MetricsReport",
    "sigmoid",
    "binary_loss_grad",
    "softmax_loss_grad",
    "fit_gd",
    "fit_sgd",
    "fit_lbfgs",
    "train_logistic",
    "predict_proba",
    "classes_from_proba",
    "predict",
    "compute_metrics",
]

SOLVERS = ("gd", "sgd", "lbfgs")

# outputs of sigmoid are clamped into the open interval (0, 1): the largest
# representable double below 1, and the smallest positive normal double
_P_MAX = float(np.nextafter(1.0, 0.0))
_P_MIN = float(np.finfo(np.float64).tiny)

_ARMIJO_C = 1e-4
_MAX_HALVINGS = 50
_CURVATURE_TOL = 1e-12
_LBFGS_MEMORY = 10  # curvature pairs fit_lbfgs keeps; Nocedal & Wright (7.2) suggest 3 to 20

# rows per block of an SGD epoch (_sgd_epoch_blocked). The walk inside a
# block costs O(B) per row, against a fixed number of numpy calls per block;
# of B = 8, 12, 16, 24 and 32, 16 was fastest at three classes.
_SGD_BLOCK = 16

# rows per block of the multinomial objective (_multinomial_value_grad);
# of B = 1,024, 2,048 and 4,096, 2,048 was fastest at 61 features
_OBJECTIVE_BLOCK = 2048


@dataclass(frozen=True)
class OptimizerConfig:
    """Solver choice plus caps, rates, tolerances, penalties, and seed.

    ``max_iter`` caps GD/L-BFGS iterations; ``epochs`` and ``learning_rate``
    drive SGD; ``tol`` is the infinity-norm gradient stop for GD/L-BFGS.
    """

    solver: str = "lbfgs"
    max_iter: int = 1000
    epochs: int = 100
    learning_rate: float = 0.01
    tol: float = 1e-6
    l2: float = 0.0
    l1: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ParameterError(f"unknown solver '{self.solver}', expected one of {SOLVERS}")
        if self.max_iter < 0 or self.epochs < 0:
            raise ParameterError("max_iter and epochs must be non-negative")
        for name in ("learning_rate", "tol", "l2", "l1"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ParameterError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.tol <= 0:
            raise ParameterError(f"tol must be > 0, got {self.tol}")
        if self.l2 < 0 or self.l1 < 0:
            raise ParameterError("l2 and l1 must be non-negative")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.l1 > 0 and self.solver != "sgd":
            raise ParameterError(
                "l1 regularization is only supported with the sgd solver "
                "(the objective is non-smooth)"
            )


@dataclass(frozen=True)
class LogisticModel:
    """Fitted logistic model.

    ``weights`` has one row for binary models (scores for class 1) and
    ``n_classes`` rows for multinomial models. ``loss_path`` records the
    training loss per accepted iteration (GD/L-BFGS) or per epoch (SGD).
    """

    weights: np.ndarray
    intercepts: np.ndarray
    class_names: tuple[str, ...]
    converged: bool
    iterations_used: int
    loss_path: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", frozen(as_matrix(self.weights)))
        object.__setattr__(self, "intercepts", frozen(as_vector(self.intercepts)))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if len(self.class_names) < 2:
            raise ParameterError("a logistic model needs at least 2 classes")
        expected_rows = 1 if len(self.class_names) == 2 else len(self.class_names)
        if self.weights.shape[0] != expected_rows:
            raise DimensionError(
                f"{len(self.class_names)}-class model needs {expected_rows} weight rows, "
                f"got {self.weights.shape[0]}"
            )
        if self.intercepts.shape != self.weights.shape[:1]:
            raise DimensionError("one intercept per weight row required")

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def is_binary(self) -> bool:
        return self.weights.shape[0] == 1

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy, per-class and macro precision/recall/F1, confusion matrix.

    Confusion rows are true classes, columns predicted classes.
    """

    accuracy: float
    per_class: tuple[ClassMetrics, ...]
    macro: ClassMetrics
    confusion: tuple[tuple[int, ...], ...]


def sigmoid(z):
    """Numerically stable logistic function, clamped into (0, 1).

    Accepts scalars or arrays; evaluates exp only on the non-overflowing
    branch. Raw float64 rounds sigmoid(100) up to exactly 1.0, so outputs
    are clamped to the nearest representable values inside the open
    interval.
    """
    arr = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ParameterError("sigmoid requires finite input")
    out = _sigmoid(arr)
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out


def _sigmoid(arr: np.ndarray) -> np.ndarray:
    # sigmoid without the input check, for the objectives and predict_proba:
    # the trainers and predict_proba check for non-finite values themselves
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ez = np.exp(arr[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _P_MIN, _P_MAX)


def _sigmoid_scalar(z: float) -> float:
    # fast path for the SGD inner loop; no clamping needed for gradients
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _binary_value_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
    """Mean negative log-likelihood + (l2/2)||w||^2 and its gradient.

    theta packs [w, intercept]; the intercept is unpenalized.
    """
    n, d = x.shape
    w, b = theta[:d], theta[d]
    z = x @ w + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w @ w)
    dz = (_sigmoid(z) - y) / n
    grad = np.empty(d + 1)
    grad[:d] = x.T @ dz + l2 * w
    grad[d] = dz.sum()
    return loss, grad


def _multinomial_value_grad(
    theta: np.ndarray, xt: np.ndarray, target_sums: np.ndarray, counts: np.ndarray, l2: float
):
    """Mean categorical cross-entropy + (l2/2)||W||^2 and its packed gradient.

    theta packs [W row-major (k x d), b (k)]; intercepts are unpenalized.
    ``xt`` is the d x n training matrix transposed, in C order.
    ``target_sums`` (k x d, row c the sum of the rows of class c) and
    ``counts`` (the rows per class) are the target terms of _target_terms,
    so the loss is (sum_i lse_i - sum W*target_sums - b.counts) / n and the
    gradient (P x - target_sums) / n, (P 1 - counts) / n with P the k x n
    probabilities: no per-row gather or scatter of the labels.

    The rows are taken _OBJECTIVE_BLOCK columns of ``xt`` at a time (views,
    not copies). Each block's class-major logits, log-sum-exp and
    probabilities are computed and then multiplied back into the gradient
    while the block is still in cache, so one evaluation reads ``xt`` from
    memory once. The sums run block by block in a fixed order, so a fit's
    last bits depend on the block size: it is a constant, not taken from the
    host's cache size, so that they are the same on every host.
    """
    k = len(counts)
    d, n = xt.shape
    w = theta[: k * d].reshape(k, d)
    b = theta[k * d :]
    grad = np.zeros(k * d + k)
    gw = grad[: k * d].reshape(k, d)
    gb = grad[k * d :]
    lse_sum = 0.0
    for start in range(0, n, _OBJECTIVE_BLOCK):
        xb = xt[:, start : start + _OBJECTIVE_BLOCK]
        z = w @ xb
        z += b[:, None]
        zmax = z.max(axis=0)
        z -= zmax
        np.exp(z, out=z)
        s = z.sum(axis=0)
        z /= s
        gw += z @ xb.T
        gb += z.sum(axis=1)
        np.log(s, out=s)
        s += zmax
        lse_sum += float(s.sum())
    loss = (lse_sum - float((w * target_sums).sum()) - float(b @ counts)) / n
    loss += 0.5 * l2 * float((w * w).sum())
    gw -= target_sums
    gw /= n
    gw += l2 * w
    gb -= counts
    gb /= n
    return loss, grad


def _target_terms(xt: np.ndarray, y: np.ndarray, k: int):
    """The per-class row sums (k x d) and row counts (k) of the multinomial
    objective. The sums are one-hot blocks (k x B, never n x k) times the
    blocks of ``xt``: a BLAS product, as accurate as the gradient's own
    P x. A bincount's running sum was ~30 times less accurate, and as a
    fixed error in every gradient it moved the GD weights at 76,519 rows by
    1e-11 of the largest weight over 674 steps.
    """
    classes = np.arange(k)[:, None]
    target_sums = np.zeros((k, xt.shape[0]))
    for start in range(0, xt.shape[1], _OBJECTIVE_BLOCK):
        onehot = (y[start : start + _OBJECTIVE_BLOCK] == classes).astype(np.float64)
        target_sums += onehot @ xt[:, start : start + _OBJECTIVE_BLOCK].T
    return target_sums, np.bincount(y, minlength=k).astype(np.float64)


def _multinomial_objective(x: np.ndarray, y: np.ndarray, k: int, l2: float):
    """The multinomial objective of one training set as a function of the
    packed parameters; the transpose and the target terms are built once.
    The transpose is no copy when ``x`` is the ``.T`` view of a C-ordered
    d x n matrix, as fit_dataset passes it."""
    xt = np.ascontiguousarray(x.T)
    target_sums, counts = _target_terms(xt, y, k)

    def objective(theta):
        return _multinomial_value_grad(theta, xt, target_sums, counts, l2)

    return objective


def binary_loss_grad(weights_and_intercept, x, y, l2: float = 0.0):
    """Binary logistic loss and gradient at a packed [w, intercept] point."""
    theta = as_vector(weights_and_intercept)
    xm = as_matrix(x)
    yv = as_vector(y)
    if theta.shape[0] != xm.shape[1] + 1:
        raise DimensionError(
            f"expected {xm.shape[1] + 1} packed parameters (weights + intercept), "
            f"got {theta.shape[0]}"
        )
    _check_rows(xm, yv)
    if np.any((yv != 0.0) & (yv != 1.0)):
        raise ParameterError("binary labels must be 0 or 1")
    loss, grad = _binary_value_grad(theta, xm, yv, l2)
    return loss, frozen(grad)


def softmax_loss_grad(weights, intercepts, x, y, l2: float = 0.0):
    """Multinomial cross-entropy loss and packed gradient.

    The gradient packs [dW row-major, db] to match the trainers' parameter
    layout.
    """
    wm = as_matrix(weights)
    bv = as_vector(intercepts)
    xm = as_matrix(x)
    yi = np.asarray(y, dtype=np.int64)
    k, d = wm.shape
    if d != xm.shape[1]:
        raise DimensionError(f"weights have {d} columns but input has {xm.shape[1]}")
    if bv.shape[0] != k:
        raise DimensionError(f"{k} weight rows but {bv.shape[0]} intercepts")
    _check_rows(xm, yi)
    if yi.min() < 0 or yi.max() >= k:
        raise ParameterError(f"class indices must lie in [0, {k})")
    theta = np.concatenate([wm.ravel(), bv])
    loss, grad = _multinomial_objective(xm, yi, k, l2)(theta)
    return loss, frozen(grad)


def _check_rows(x: np.ndarray, y: np.ndarray) -> None:
    """One label per row, and at least one row: a mean over no rows is 0/0."""
    if y.shape[0] != x.shape[0]:
        raise DimensionError(f"{x.shape[0]} rows but {y.shape[0]} labels")
    if x.shape[0] == 0:
        raise DimensionError("the logistic loss needs at least one row")


def _resolve_classes(y: np.ndarray, class_names) -> tuple[tuple[str, ...], int]:
    if class_names is None:
        k = max(2, int(y.max()) + 1)
        names = tuple(str(c) for c in range(k))
    else:
        names = tuple(class_names)
        k = len(names)
        if k < 2:
            raise ParameterError("need at least 2 class names")
    if y.min() < 0 or y.max() >= k:
        raise ParameterError(f"labels must lie in [0, {k})")
    return names, k


def _fit_inputs(solver: str, x, y, cfg: OptimizerConfig, class_names):
    """Shared trainer preamble: the solver guard and the row checks, then the
    matrix (as given, in either memory order), integer labels, class names,
    class count, objective and parameter count.

    The guard stops a config meant for another solver (say an sgd config
    with l1 > 0) from being run, and its settings ignored, by this one.
    """
    if cfg.solver != solver:
        raise ParameterError(f"fit_{solver} called with solver '{cfg.solver}'")
    xm = as_matrix(x)
    yi = np.asarray(y, dtype=np.int64)
    _check_rows(xm, yi)
    names, k = _resolve_classes(yi, class_names)
    return (xm, yi, names, k, *_make_objective(xm, yi, k, cfg.l2))


def _make_objective(x: np.ndarray, y: np.ndarray, k: int, l2: float):
    """The objective and its parameter count. The binary one reads a
    C-ordered copy of a transposed ``x``: its products on the transposed
    layout round differently in the last bits."""
    if k == 2:
        xc, yb = np.ascontiguousarray(x), y.astype(np.float64)

        def objective(theta):
            return _binary_value_grad(theta, xc, yb, l2)

        return objective, x.shape[1] + 1

    return _multinomial_objective(x, y, k, l2), k * x.shape[1] + k


def _unpack_model(
    theta: np.ndarray,
    d: int,
    k: int,
    names: tuple[str, ...],
    converged: bool,
    iterations: int,
    loss_path: list[float],
) -> LogisticModel:
    m = 1 if k == 2 else k
    return LogisticModel(
        weights=theta[: m * d].reshape(m, d),
        intercepts=theta[m * d :],
        class_names=names,
        converged=converged,
        iterations_used=iterations,
        loss_path=tuple(loss_path),
    )


def _descent(objective, n_params: int, cfg: OptimizerConfig, memory: int):
    """Armijo backtracking steps from zero weights until the gradient
    tolerance or max_iter, along the L-BFGS two-loop direction from the last
    ``memory`` curvature pairs: with none stored it is -grad, so memory 0 is
    gradient descent. The inverse-Hessian seed is scaled by s.y / y.y of the
    newest pair; pairs with curvature s.y <= 1e-12 are skipped.
    """
    theta = np.zeros(n_params)
    value, grad = objective(theta)
    loss_path = [value]
    history: list[tuple[np.ndarray, np.ndarray, float]] = []
    iterations = 0
    converged = bool(np.max(np.abs(grad)) < cfg.tol) if grad.size else True
    while not converged and iterations < cfg.max_iter:
        direction = -grad
        if history:
            q = grad.copy()
            alphas: list[float] = []
            for s, yb, rho in reversed(history):
                alphas.append(rho * float(s @ q))
                q -= alphas[-1] * yb
            s, yb, _ = history[-1]
            q *= float(s @ yb) / float(yb @ yb)
            for (s, yb, rho), a in zip(history, reversed(alphas)):
                q += (a - rho * float(yb @ q)) * s
            direction = -q
            if float(direction @ grad) >= 0.0:
                direction = -grad
        slope, step = float(grad @ direction), 1.0
        for _ in range(_MAX_HALVINGS + 1):
            new_theta = theta + step * direction
            new_value, new_grad = objective(new_theta)
            if math.isfinite(new_value) and new_value <= value + _ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            raise StalledDescentError(
                f"line search found no decrease after {_MAX_HALVINGS} halvings", iterate=theta
            )
        if memory:
            s, yb = new_theta - theta, new_grad - grad
            curvature = float(s @ yb)
            if curvature > _CURVATURE_TOL:
                history.append((s, yb, 1.0 / curvature))
                if len(history) > memory:
                    history.pop(0)
        theta, value, grad = new_theta, new_value, new_grad
        loss_path.append(value)
        iterations += 1
        converged = bool(np.max(np.abs(grad)) < cfg.tol)
    return theta, converged, iterations, loss_path


def fit_gd(x, y, cfg: OptimizerConfig, class_names=None) -> LogisticModel:
    """Full-batch gradient descent with Armijo backtracking from zero weights:
    the descent routine with no curvature memory."""
    xm, _, names, k, objective, n_params = _fit_inputs("gd", x, y, cfg, class_names)
    theta, converged, iterations, loss_path = _descent(objective, n_params, cfg, 0)
    return _unpack_model(theta, xm.shape[1], k, names, converged, iterations, loss_path)


def fit_lbfgs(x, y, cfg: OptimizerConfig, class_names=None) -> LogisticModel:
    """L-BFGS with two-loop recursion over the last _LBFGS_MEMORY curvature
    pairs and Armijo backtracking from zero weights."""
    xm, _, names, k, objective, n_params = _fit_inputs("lbfgs", x, y, cfg, class_names)
    theta, converged, iterations, loss_path = _descent(objective, n_params, cfg, _LBFGS_MEMORY)
    return _unpack_model(theta, xm.shape[1], k, names, converged, iterations, loss_path)


def _sgd_epoch_blocked(xm, targets, order, w, b, lr, powers, decay) -> None:
    """One epoch of per-sample SGD over the rows in ``order``, updating the
    weights ``w`` (m x d) and intercepts ``b`` (m) in place.

    Each block of B rows starts from W0, b0 and applies B per-sample steps
    ``W <- c W - lr delta_j x_j``, ``b <- b - lr delta_j``, with c = 1 - lr*l2
    (``powers[j]`` is c**j). Before its own step, row j sees the logits
    ``c^j W0 x_j + b0 - lr sum_{i<j} delta_i (c^(j-1-i) x_i.x_j + 1)``, so
    one Gram matrix and one product with W0 per block leave only length-j
    sums of Python floats in the sequential walk. The block then ends in
    ``W = c^B W0 - lr sum_i c^(B-1-i) delta_i x_i``: the same steps as a
    per-sample loop, with the arithmetic regrouped (the lazy weight scaling
    of Bottou 2012, "Stochastic Gradient Descent Tricks", section 5).

    Row j's residual delta_j is p - y from its one logit for a binary model
    (m = 1), else softmax(z) - onehot(y).
    """
    m = len(b)
    for start in range(0, len(order), _SGD_BLOCK):
        rows = order[start : start + _SGD_BLOCK]
        nb = len(rows)
        xb = xm[rows]
        logits = ((xb @ w.T) * powers[:nb, None] + b).tolist()
        coupling = (lr * (xb @ xb.T * decay[:nb, :nb] + 1.0)).tolist()
        cols: list[list[float]] = [[] for _ in range(m)]
        # row j's coupling list is longer than the j deltas so far; map stops at those
        for z0, h, label in zip(logits, coupling, targets[rows].tolist()):
            z = [zc - sum(map(operator.mul, h, col)) for zc, col in zip(z0, cols)]
            if m == 1:
                cols[0].append(_sigmoid_scalar(z[0]) - label)
                continue
            top = max(z)
            e = [math.exp(v - top) for v in z]
            total = sum(e)
            for col, v in zip(cols, e):
                col.append(v / total)
            cols[label][-1] -= 1.0
        deltas = np.array(cols)
        w *= powers[nb]
        w -= (lr * deltas * powers[nb - 1 :: -1]) @ xb
        b -= lr * deltas.sum(axis=1)


def _sgd_epoch_l1(xm, targets, order, w, b, lr, l1, l2) -> None:
    """One epoch of per-sample SGD with the l1 soft threshold after every
    step, one row at a time, updating ``w`` (m x d) and ``b`` (m) in place.

    The threshold is not linear in the weights, so these steps cannot be
    regrouped into blocks as _sgd_epoch_blocked does. One row loop for both
    model shapes, calling a residual function per row, was ~45% slower per
    binary update than this scalar one.
    """
    if len(b) == 1:
        wv, bv = w[0].copy(), float(b[0])
        buf = np.empty(w.shape[1])
        for i in order:
            xi = xm[i]
            gs = _sigmoid_scalar(float(wv @ xi) + bv) - targets[i]
            if l2 > 0.0:
                wv *= 1.0 - lr * l2  # the l2 part of the per-sample gradient
            np.multiply(xi, lr * gs, out=buf)
            wv -= buf
            bv -= lr * gs
            wv = np.sign(wv) * np.maximum(np.abs(wv) - lr * l1, 0.0)
        w[0], b[0] = wv, bv
        return
    delta = np.empty(len(b))
    buf = np.empty(w.shape)
    for i in order:
        xi = xm[i]
        np.matmul(w, xi, out=delta)
        delta += b
        delta -= delta.max()
        np.exp(delta, out=delta)
        delta /= delta.sum()
        delta[targets[i]] -= 1.0
        delta *= lr
        if l2 > 0.0:
            w *= 1.0 - lr * l2
        np.multiply(delta[:, None], xi, out=buf)
        w -= buf
        b -= delta
        np.copyto(w, np.sign(w) * np.maximum(np.abs(w) - lr * l1, 0.0))


def fit_sgd(x, y, cfg: OptimizerConfig, class_names=None) -> LogisticModel:
    """Per-sample SGD: constant rate, seeded reshuffle each epoch, exactly
    cfg.epochs epochs, l2 added per sample and l1 via per-step soft threshold.

    Without l1 the per-sample steps are computed a block of rows at a time
    (see _sgd_epoch_blocked); the result is the per-sample one up to rounding.
    """
    xm, yi, names, k, objective, n_params = _fit_inputs("sgd", x, y, cfg, class_names)
    xm = np.ascontiguousarray(xm)  # the per-row steps read rows
    n, d = xm.shape
    lr = cfg.learning_rate
    c = 1.0 - lr * cfg.l2  # the l2 part of each per-sample step shrinks the weights by c
    m, targets = (1, yi.astype(np.float64)) if k == 2 else (k, yi)
    rng = np.random.default_rng(cfg.seed)

    w = np.zeros((m, d))
    b = np.zeros(m)
    theta = np.zeros(n_params)
    loss_path: list[float] = []

    # a diverging run overflows before the per-epoch loss check catches it;
    # silence the transient warnings and rely on that check
    with np.errstate(over="ignore", invalid="ignore"):
        powers = c ** np.arange(_SGD_BLOCK + 1)
        lag = np.arange(_SGD_BLOCK)[:, None] - np.arange(_SGD_BLOCK) - 1
        decay = powers[np.maximum(lag, 0)]  # decay[j, i] = c**(j-1-i) for i < j
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            if cfg.l1 > 0.0:
                _sgd_epoch_l1(xm, targets, order, w, b, lr, cfg.l1, cfg.l2)
            else:
                _sgd_epoch_blocked(xm, targets, order, w, b, lr, powers, decay)
            theta = np.concatenate([w.ravel(), b])
            value, _ = objective(theta)
            if not math.isfinite(value):
                raise DivergenceError(
                    f"sgd diverged at epoch {epoch + 1} with learning rate {lr}",
                    epoch=epoch + 1,
                    learning_rate=lr,
                )
            loss_path.append(value)

    converged = cfg.epochs > 0
    return _unpack_model(theta, d, k, names, converged, cfg.epochs, loss_path)


def train_logistic(x, y, cfg: OptimizerConfig, class_names=None) -> LogisticModel:
    """Dispatch to the trainer named by cfg.solver."""
    if cfg.solver == "gd":
        return fit_gd(x, y, cfg, class_names)
    if cfg.solver == "sgd":
        return fit_sgd(x, y, cfg, class_names)
    return fit_lbfgs(x, y, cfg, class_names)


def predict_proba(model: LogisticModel, x) -> np.ndarray:
    """The n x n_classes class probabilities: [1 - p, p] with p the class-1
    sigmoid for a binary model, else the row-stochastic softmax. A row whose
    logits overflow float64 is a DegenerateDataError naming it."""
    xm = as_matrix(x)
    if xm.shape[1] != model.n_features:
        raise DimensionError(
            f"model expects {model.n_features} features, input has {xm.shape[1]}"
        )
    w, b = model.weights, model.intercepts
    with np.errstate(over="ignore", invalid="ignore"):
        z = xm @ w[0] + b[0] if model.is_binary else xm @ w.T + b
        bad = np.argwhere(~np.isfinite(z))
        if bad.size:
            raise DegenerateDataError(f"predict_proba: row {bad[0][0] + 1}: logits overflow")
        if not model.is_binary:
            return frozen(_softmax_rows(z))
        p = _sigmoid(z)
        return frozen(np.column_stack([1.0 - p, p]))


def classes_from_proba(proba: np.ndarray) -> np.ndarray:
    """Class indices of a predict_proba matrix: with two columns, class 1
    where its probability is >= 0.5; else the argmax, the lowest index
    taking a tie."""
    if proba.shape[1] == 2:
        return (proba[:, 1] >= 0.5).astype(np.int64)
    return np.argmax(proba, axis=1).astype(np.int64)


def predict(model: LogisticModel, x) -> np.ndarray:
    """Class indices of predict_proba (see classes_from_proba)."""
    return classes_from_proba(predict_proba(model, x))


def compute_metrics(y_true, y_pred, n_classes: int) -> MetricsReport:
    """Confusion matrix plus per-class and macro precision/recall/F1.

    Zero-denominator precision/recall are defined as 0 so macro averages
    never propagate NaN.
    """
    yt = np.asarray(y_true, dtype=np.int64)
    yp = np.asarray(y_pred, dtype=np.int64)
    if yt.shape != yp.shape:
        raise DimensionError(f"length mismatch: {yt.shape[0]} true vs {yp.shape[0]} predicted")
    if yt.size < 1:
        raise DimensionError("compute_metrics needs at least one row")
    if n_classes < 2:
        raise ParameterError(f"n_classes must be >= 2, got {n_classes}")
    for name, arr in (("true", yt), ("predicted", yp)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise ParameterError(f"{name} labels must lie in [0, {n_classes})")

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (yt, yp), 1)

    per_class = []
    for c in range(n_classes):
        tp = int(confusion[c, c])
        fp = int(confusion[:, c].sum()) - tp
        fn = int(confusion[c, :].sum()) - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(ClassMetrics(precision=precision, recall=recall, f1=f1))

    macro = ClassMetrics(
        precision=sum(m.precision for m in per_class) / n_classes,
        recall=sum(m.recall for m in per_class) / n_classes,
        f1=sum(m.f1 for m in per_class) / n_classes,
    )
    return MetricsReport(
        accuracy=float(np.trace(confusion)) / yt.size,
        per_class=tuple(per_class),
        macro=macro,
        confusion=tuple(tuple(int(v) for v in row) for row in confusion),
    )

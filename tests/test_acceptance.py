"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest -s`` to see them inline).

Criterion 5 needs the external academic-success CSV; point
EDULEARN_ACADEMIC_CSV at it (or place it at data/academic_success.csv).
Without the file that criterion reports SKIPPED, and criterion 6 covers the
same contract on the planted synthetic generator.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import cli_env

from edulearn.classify import (
    OptimizerConfig,
    binary_loss_grad,
    compute_metrics,
    fit_gd,
    fit_lbfgs,
    predict,
    predict_proba,
    sigmoid,
    softmax_loss_grad,
    train_logistic,
)
from edulearn.data import SplitSpec, fit_scaler, split, transform
from edulearn.pipelines import (
    StageLabel,
    StyleGenConfig,
    StyleLabel,
    academic_bayes_predict,
    build_style_dataset,
    fit_dataset,
    generate_academic_synthetic,
    generate_style_sessions,
    route_learner_stage,
    style_ratio_label,
    task_dataset,
)
from edulearn.regress import fit_multiple, fit_simple, r_squared


def _report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


def _fit_academic(csv_path, n, seed, solver, split_spec):
    ds, data_source = task_dataset("academic", csv_path, None, n, seed)
    opt = OptimizerConfig(solver=solver)
    return fit_dataset(ds, opt, split_spec, data_source, "academic")


def _fit_style(gen, opt, split_spec):
    ds = build_style_dataset(generate_style_sessions(gen))
    return fit_dataset(ds, opt, split_spec, "synthetic", "style")


def _central_diff(f, theta, h=1e-6):
    out = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        out[i] = (f(up) - f(down)) / (2 * h)
    return out


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(20):  # binary
        n, d = int(rng.integers(2, 17)), int(rng.integers(1, 7))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(float)
        l2 = float(rng.uniform(0.0, 1.0))
        theta = rng.normal(size=d + 1)
        _, grad = binary_loss_grad(theta, x, y, l2)
        fd = _central_diff(lambda t: binary_loss_grad(t, x, y, l2)[0], theta)
        worst = max(worst, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0))))
    for _ in range(20):  # multinomial, K = 3
        n, d, k = int(rng.integers(2, 17)), int(rng.integers(1, 7)), 3
        x = rng.normal(size=(n, d))
        y = rng.integers(0, k, n)
        l2 = float(rng.uniform(0.0, 1.0))
        w = rng.normal(size=(k, d))
        b = rng.normal(size=k)
        theta = np.concatenate([w.ravel(), b])
        _, grad = softmax_loss_grad(w, b, x, y, l2)
        fd = _central_diff(
            lambda t: softmax_loss_grad(t[: k * d].reshape(k, d), t[k * d :], x, y, l2)[0], theta
        )
        worst = max(worst, float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1.0))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-5
    assert elapsed < 1.0
    _report(1, f"40 finite-difference checks, worst relative error {worst:.2e} in {elapsed:.2f}s")


def test_criterion_2_closed_form_vs_iterative():
    start = time.monotonic()
    rng = np.random.default_rng(200)
    worst_gap = 0.0
    for _ in range(10):
        n, d = 40, int(rng.integers(1, 7))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n)
        l2 = float(rng.uniform(0.01, 1.0))
        gd = fit_gd(x, y, OptimizerConfig(solver="gd", l2=l2, tol=1e-8, max_iter=200_000))
        lb = fit_lbfgs(x, y, OptimizerConfig(solver="lbfgs", l2=l2, tol=1e-8, max_iter=5000))
        assert gd.converged and lb.converged
        gap = max(
            float(np.max(np.abs(gd.weights - lb.weights))),
            float(np.max(np.abs(gd.intercepts - lb.intercepts))),
        )
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-4

    worst_simple = 0.0
    for _ in range(10):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        simple = fit_simple(x, y)
        multiple = fit_multiple(x[:, None], y)
        gap = max(
            abs(simple.intercept - multiple.intercept),
            abs(simple.coefficients[0] - multiple.coefficients[0]),
        )
        worst_simple = max(worst_simple, gap)
        assert gap <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(
        2,
        f"gd/lbfgs max gap {worst_gap:.2e}, simple/multiple max gap {worst_simple:.2e} "
        f"in {elapsed:.2f}s",
    )


def test_criterion_3_least_squares_exactness():
    rng = np.random.default_rng(300)
    # noiseless simple line
    x = rng.normal(size=20)
    y = 1.25 - 3.5 * x
    m = fit_simple(x, y)
    assert abs(m.intercept - 1.25) <= 1e-8
    assert abs(m.coefficients[0] + 3.5) <= 1e-8
    # noiseless multiple plane
    xm = rng.normal(size=(12, 3))
    ym = 0.5 + xm @ np.array([2.0, -1.0, 4.0])
    mm = fit_multiple(xm, ym)
    beta_err = max(
        abs(mm.intercept - 0.5), float(np.max(np.abs(mm.coefficients - [2.0, -1.0, 4.0])))
    )
    assert beta_err <= 1e-8
    # r^2 equals the squared Pearson correlation for simple regression
    xs = rng.normal(size=25)
    ys = 2.0 + xs + rng.normal(size=25)
    xc, yc = xs - xs.mean(), ys - ys.mean()
    pearson = float(xc @ yc) / math.sqrt(float(xc @ xc) * float(yc @ yc))
    gap = abs(r_squared(fit_simple(xs, ys), xs[:, None], ys) - pearson**2)
    assert gap <= 1e-10
    _report(3, f"noiseless betas within {beta_err:.1e}, r^2 vs Pearson^2 gap {gap:.1e}")


def test_criterion_4_metrics_oracle():
    # five fixtures with hand-counted confusion matrices; precision/recall/
    # accuracy compare exactly (same integer division), f1 within 1e-15
    fixtures = [
        ([0, 0, 1, 1], [0, 1, 1, 1], 2),
        ([0, 1, 2, 1, 0, 2], [0, 1, 2, 1, 0, 2], 3),
        ([0, 1, 1], [1, 1, 1], 2),
        ([0, 1, 0, 1], [1, 0, 1, 0], 2),
        ([2, 2, 1, 0, 0, 1, 2, 0], [2, 1, 1, 0, 2, 1, 2, 0], 3),
    ]
    for y_true, y_pred, k in fixtures:
        report = compute_metrics(y_true, y_pred, k)
        confusion = [[0] * k for _ in range(k)]
        for t, p in zip(y_true, y_pred):
            confusion[t][p] += 1
        assert report.confusion == tuple(tuple(row) for row in confusion)
        assert report.accuracy == float(
            Fraction(sum(confusion[c][c] for c in range(k)), len(y_true))
        )
        for c in range(k):
            tp = confusion[c][c]
            fp = sum(confusion[r][c] for r in range(k)) - tp
            fn = sum(confusion[c]) - tp
            precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
            recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
            assert report.per_class[c].precision == float(precision)
            assert report.per_class[c].recall == float(recall)
            if precision + recall:
                f1 = 2 * float(precision) * float(recall) / (float(precision) + float(recall))
            else:
                f1 = 0.0
            assert abs(report.per_class[c].f1 - f1) <= 1e-15
    _report(4, "5 hand-counted fixtures reproduced exactly")


def _external_csv_path():
    env = os.environ.get("EDULEARN_ACADEMIC_CSV")
    if env:
        return env
    default = os.path.join(os.path.dirname(__file__), "..", "data", "academic_success.csv")
    return default if os.path.exists(default) else None


def test_criterion_5_paper_case_study_external():
    path = _external_csv_path()
    if path is None or not os.path.exists(path):
        pytest.skip(
            "ACCEPTANCE 5 SKIPPED: external academic CSV not present "
            "(set EDULEARN_ACADEMIC_CSV to run the published-accuracy bands)"
        )
    split_spec = SplitSpec(0.7, seed=0)
    lb = _fit_academic(path, None, 0, "lbfgs", split_spec)[0]
    assert 0.8589 <= lb.test_metrics.accuracy <= 0.8889, lb.test_metrics.accuracy
    sg = _fit_academic(path, None, 0, "sgd", split_spec)[0]
    assert 0.8110 <= sg.test_metrics.accuracy <= 0.8510, sg.test_metrics.accuracy
    _report(
        5,
        f"external data: lbfgs test acc {lb.test_metrics.accuracy:.4f} in 87.39+-1.5pt, "
        f"sgd {sg.test_metrics.accuracy:.4f} in 83.1+-2.0pt",
    )


def test_criterion_6_synthetic_case_study_vs_bayes():
    start = time.monotonic()
    n, gen_seed, split_seed = 5000, 1, 11
    ds = generate_academic_synthetic(n, seed=gen_seed)
    bayes = academic_bayes_predict(n, seed=gen_seed)
    test_idx = np.random.default_rng(split_seed).permutation(n)[
        math.floor(n * 0.7 + 0.5) :
    ]
    bayes_acc = float((bayes[test_idx] == ds.targets[test_idx]).mean())

    split_spec = SplitSpec(0.7, seed=split_seed)
    lb = _fit_academic(None, n, gen_seed, "lbfgs", split_spec)[0]
    lb_gap = abs(lb.test_metrics.accuracy - bayes_acc)
    assert lb_gap <= 0.02, (lb.test_metrics.accuracy, bayes_acc)

    sg = _fit_academic(None, n, gen_seed, "sgd", split_spec)[0]
    sg_gap = abs(sg.test_metrics.accuracy - bayes_acc)
    assert sg_gap <= 0.04, (sg.test_metrics.accuracy, bayes_acc)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        6,
        f"Bayes {bayes_acc:.4f}: lbfgs off by {lb_gap * 100:.2f}pt (<=2), "
        f"sgd off by {sg_gap * 100:.2f}pt (<=4) in {elapsed:.1f}s",
    )


def test_criterion_7_style_pipeline():
    start = time.monotonic()
    noiseless = _fit_style(
        StyleGenConfig(n_students=200, sessions_per_student=3, visual_fraction=0.5,
                       noise_std=0.0, seed=5),
        OptimizerConfig(solver="lbfgs", l2=0.1),
        SplitSpec(0.7, seed=9),
    )[0]
    assert noiseless.test_metrics.accuracy == 1.0

    gen = StyleGenConfig(n_students=2000, sessions_per_student=1, visual_fraction=0.5,
                         noise_std=10.0, seed=17)
    split_spec = SplitSpec(0.7, seed=23)
    noisy = _fit_style(gen, OptimizerConfig(solver="lbfgs", l2=0.01), split_spec)[0]

    # brute-force threshold oracle on the score difference, tuned on train rows
    ds = build_style_dataset(generate_style_sessions(gen))
    perm = np.random.default_rng(split_spec.seed).permutation(ds.n_rows)
    n_train = math.floor(ds.n_rows * split_spec.train_fraction + 0.5)
    tr, te = perm[:n_train], perm[n_train:]
    diff, y = ds.features[:, 0], ds.targets
    cands = np.sort(np.unique(diff[tr]))
    thresholds = np.concatenate([[-np.inf], (cands[:-1] + cands[1:]) / 2, [np.inf]])
    best_acc, best_t = max(
        (float(((diff[tr] > t).astype(int) == y[tr]).mean()), t) for t in thresholds
    )
    oracle = float(((diff[te] > best_t).astype(int) == y[te]).mean())
    assert noisy.test_metrics.accuracy >= oracle - 0.01
    assert noisy.test_metrics.accuracy >= 0.9

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(
        7,
        f"noiseless acc 1.0 exactly; noisy acc {noisy.test_metrics.accuracy:.4f} vs "
        f"threshold oracle {oracle:.4f} in {elapsed:.1f}s",
    )


def test_criterion_8_tally_rule_and_staging_grids():
    checked = 0
    for total in range(1, 41):
        for tally in range(total + 1):
            want = (
                StyleLabel.VISUAL
                if Fraction(tally, total) > Fraction(65, 100)
                else StyleLabel.AUDITORY
            )
            assert style_ratio_label(tally, total) is want
            checked += 1

    threshold = 70.0
    for initial in range(0, 101):
        if initial < threshold:
            assert route_learner_stage(float(initial), None, threshold) is StageLabel.BEGINNER
            checked += 1
            continue
        for advanced in range(0, 101):
            want = StageLabel.ADVANCED if advanced >= threshold else StageLabel.BEGINNER
            assert route_learner_stage(float(initial), float(advanced), threshold) is want
            checked += 1
    _report(8, f"{checked} exhaustive grid points match the documented predicates")


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "edulearn", *args],
        cwd=cwd, env=cli_env(), capture_output=True, text=True,
    )


def test_criterion_9_cli_determinism(tmp_path):
    commands = [
        ["generate", "--kind", "academic", "--n", "300", "--seed", "3", "--out", "{run}g_"],
        ["train", "--task", "academic", "--solver", "sgd", "--epochs", "20", "--n", "300",
         "--seed", "3", "--json", "--out", "{run}t_"],
        None,  # predict, filled in below (depends on the trained model)
    ]
    outputs = {
        "g_": ["g_data.csv", "g_schema.json"],
        "t_": ["t_report.json", "t_model.json"],
        "p_": ["p_predictions.csv"],
    }
    for run in ("r1/", "r2/"):
        (tmp_path / run).mkdir()
        for command in commands:
            if command is None:
                command = ["predict", "--model", f"{run}t_model.json",
                           "--input", f"{run}g_data.csv", "--out", f"{run}p_"]
            else:
                command = [c.format(run=run) for c in command]
            result = _run_cli(command, tmp_path)
            assert result.returncode == 0, result.stderr
    compared = 0
    for files in outputs.values():
        for name in files:
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, f"{name} differs between identical runs"
            compared += 1
    _report(9, f"3 commands x 2 runs: {compared} output files byte-identical")


def test_criterion_10_numerical_hygiene():
    hi, lo = sigmoid(100.0), sigmoid(-100.0)
    assert math.isfinite(hi) and math.isfinite(lo)
    assert 0.0 < lo < hi < 1.0
    assert hi > 1.0 - 1e-9 and lo < 1e-9

    rng = np.random.default_rng(1000)
    from edulearn.classify import LogisticModel

    model = LogisticModel(
        weights=rng.normal(size=(3, 5)) * 3,
        intercepts=rng.normal(size=3),
        class_names=("a", "b", "c"),
        converged=True,
        iterations_used=1,
    )
    x = rng.normal(size=(1000, 5)) * 5
    proba = predict_proba(model, x)
    row_sum_err = float(np.max(np.abs(proba.sum(axis=1) - 1.0)))
    assert row_sum_err <= 1e-12

    logits = x @ model.weights.T + model.intercepts
    shifts = rng.normal(size=(1000, 1)) * 50
    assert np.array_equal(
        np.argmax(logits, axis=1), np.argmax(logits + shifts, axis=1)
    )
    assert np.array_equal(np.argmax(logits, axis=1), predict(model, x))
    _report(
        10,
        f"sigmoid(+-100) strict in (0,1); max row-sum error {row_sum_err:.1e}; "
        f"1000 logit shifts leave argmax unchanged",
    )

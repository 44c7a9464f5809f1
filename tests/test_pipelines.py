import hashlib
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edulearn import pipelines
from edulearn.classify import SOLVERS, OptimizerConfig, train_logistic
from edulearn.data import (
    Dataset,
    SplitSpec,
    fit_scaler,
    load_csv,
    schema_to_doc,
    split,
    transform,
)
from edulearn.errors import ParameterError
from edulearn.pipelines import (
    ACADEMIC_CLASS_NAMES,
    ACADEMIC_PRIOR,
    StageLabel,
    StyleGenConfig,
    StyleLabel,
    StyleSession,
    academic_bayes_predict,
    academic_csv_rows,
    academic_schema,
    aggregate_sessions,
    build_style_dataset,
    class_level_summary,
    collapse_score_columns,
    fit_dataset,
    generate_academic_synthetic,
    generate_style_sessions,
    route_learner_stage,
    style_ratio_label,
    style_schema,
    style_session_columns,
    task_dataset,
)


def _fit_style(gen, opt, split_spec):
    ds = build_style_dataset(generate_style_sessions(gen))
    return fit_dataset(ds, opt, split_spec, "synthetic", "style")


def _fit_academic(csv_path, schema_path, n, seed, opt, split_spec):
    ds, data_source = task_dataset("academic", csv_path, schema_path, n, seed)
    return fit_dataset(ds, opt, split_spec, data_source, "academic")


def test_generate_style_noiseless_scores_exact():
    cfg = StyleGenConfig(n_students=30, sessions_per_student=2, visual_fraction=0.5,
                         noise_std=0.0, seed=3)
    for session, label in generate_style_sessions(cfg):
        if label is StyleLabel.VISUAL:
            assert session.visual_score == 80.0 and session.auditory_score == 55.0
        else:
            assert session.visual_score == 55.0 and session.auditory_score == 80.0


def test_generate_style_deterministic():
    cfg = StyleGenConfig(n_students=10, seed=11)
    assert generate_style_sessions(cfg) == generate_style_sessions(cfg)


def test_generate_style_all_visual():
    cfg = StyleGenConfig(n_students=15, visual_fraction=1.0, seed=2)
    assert all(label is StyleLabel.VISUAL for _, label in generate_style_sessions(cfg))


def test_style_ratio_label_examples():
    assert style_ratio_label(7, 10) is StyleLabel.VISUAL       # 0.70 > 0.65
    assert style_ratio_label(13, 20) is StyleLabel.AUDITORY    # exactly 0.65
    assert style_ratio_label(0, 5) is StyleLabel.AUDITORY
    with pytest.raises(ParameterError):
        style_ratio_label(0, 0)
    with pytest.raises(ParameterError):
        style_ratio_label(6, 5)


def test_style_ratio_label_matches_exact_predicate():
    # exhaustive check against exact rational arithmetic
    for total in range(1, 41):
        for tally in range(total + 1):
            want = StyleLabel.VISUAL if Fraction(tally, total) > Fraction(65, 100) else StyleLabel.AUDITORY
            assert style_ratio_label(tally, total) is want


def test_style_ratio_label_monotone():
    for total in range(1, 30):
        labels = [int(style_ratio_label(t, total)) for t in range(total + 1)]
        assert labels == sorted(labels)  # raising the tally never flips 1 -> 0


def _dummy_session():
    return StyleSession(
        student_id="s1", instructor_id="t1", day=1, visual_score=50.0, auditory_score=50.0,
        comprehension_time=20.0, prior_preferred_style=0, time_of_day=9.0,
        instructor_score=5.0, lesson_duration=45.0,
    )


def _pairs(labels):
    return [(_dummy_session(), StyleLabel(v)) for v in labels]


def test_aggregate_sessions_votes():
    assert aggregate_sessions(_pairs([1, 1, 0])) is StyleLabel.VISUAL
    assert aggregate_sessions(_pairs([1, 0])) is StyleLabel.AUDITORY  # tie
    assert aggregate_sessions(_pairs([1])) is StyleLabel.VISUAL
    with pytest.raises(ParameterError):
        aggregate_sessions([])


def test_aggregate_sessions_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        labels = rng.integers(0, 2, int(rng.integers(1, 9))).tolist()
        base = aggregate_sessions(_pairs(labels))
        rng.shuffle(labels)
        assert aggregate_sessions(_pairs(labels)) is base


def test_route_learner_stage_examples():
    assert route_learner_stage(40.0, None, 70.0) is StageLabel.BEGINNER
    assert route_learner_stage(85.0, 90.0, 70.0) is StageLabel.ADVANCED
    assert route_learner_stage(85.0, 50.0, 70.0) is StageLabel.BEGINNER
    with pytest.raises(ParameterError):
        route_learner_stage(85.0, None, 70.0)  # advanced probe missing
    with pytest.raises(ParameterError):
        route_learner_stage(40.0, 90.0, 70.0)  # probe present without passing the gate


def test_route_learner_stage_grid_truth_table():
    threshold = 70.0
    for initial in range(0, 101):
        if initial < threshold:
            assert route_learner_stage(float(initial), None, threshold) is StageLabel.BEGINNER
            continue
        for advanced in range(0, 101):
            got = route_learner_stage(float(initial), float(advanced), threshold)
            want = StageLabel.ADVANCED if advanced >= threshold else StageLabel.BEGINNER
            assert got is want


def test_class_level_summary():
    b, a = StageLabel.BEGINNER, StageLabel.ADVANCED
    summary = class_level_summary([b, b, a])
    assert summary.beginner_fraction == pytest.approx(2.0 / 3.0)
    assert summary.recommendation == "beginner-track"
    assert class_level_summary([a, a]).recommendation == "advanced-track"
    assert class_level_summary([a, b]).recommendation == "beginner-track"  # tie
    with pytest.raises(ParameterError):
        class_level_summary([])


def test_build_style_dataset_shape():
    cfg = StyleGenConfig(n_students=12, sessions_per_student=2, seed=0)
    ds = build_style_dataset(generate_style_sessions(cfg))
    assert ds.features.shape[0] == 24
    assert ds.feature_names[0] == "score_diff"
    assert len(ds.feature_names) == 6
    assert ds.class_names == ("auditory", "visual")


def test_style_csv_round_trip_matches_direct(tmp_path):
    from edulearn.cli import _csv_text

    cfg = StyleGenConfig(n_students=8, sessions_per_student=2, seed=21)
    pairs = generate_style_sessions(cfg)
    columns = style_session_columns(pairs)
    path = tmp_path / "style.csv"
    rows = zip(*(map(str, column) for column in columns.values()))
    path.write_text(_csv_text([list(columns), *rows]), encoding="utf-8")
    loaded = collapse_score_columns(load_csv(path, style_schema()))
    direct = build_style_dataset(pairs)
    assert loaded.feature_names == direct.feature_names
    assert np.array_equal(loaded.features, direct.features)
    assert np.array_equal(loaded.targets, direct.targets)


def test_run_style_experiment_noiseless_is_perfect():
    report = _fit_style(
        StyleGenConfig(n_students=200, sessions_per_student=3, noise_std=0.0, seed=5),
        OptimizerConfig(solver="lbfgs", l2=0.1),
        SplitSpec(0.7, seed=9),
    )[0]
    assert report.test_metrics.accuracy == 1.0
    assert report.train_metrics.accuracy == 1.0


def test_run_style_experiment_noiseless_other_seeds():
    for seed in (0, 1, 2):
        report = _fit_style(
            StyleGenConfig(n_students=100, sessions_per_student=2, noise_std=0.0, seed=seed),
            OptimizerConfig(solver="lbfgs", l2=0.1),
            SplitSpec(0.7, seed=50 + seed),
        )[0]
        assert report.test_metrics.accuracy == 1.0


def test_run_style_experiment_deterministic():
    gen = StyleGenConfig(n_students=60, seed=4)
    opt = OptimizerConfig(solver="lbfgs", l2=0.1)
    split = SplitSpec(0.7, seed=8)
    assert _fit_style(gen, opt, split)[0] == _fit_style(gen, opt, split)[0]


def test_packaged_external_schema_parses():
    from edulearn.pipelines import packaged_academic_schema

    columns = packaged_academic_schema()
    target = [c for c in columns if c.kind == "target"]
    assert len(target) == 1
    assert target[0].name == "Target"
    assert target[0].allowed_values == ("Graduate", "Dropout", "Enrolled")
    assert any(c.kind == "skip" for c in columns)  # the file's row-id column
    predictors = [c for c in columns if c.kind in ("numeric", "categorical")]
    assert len(predictors) == 36


def test_academic_schema_has_35_predictors_plus_target():
    columns = academic_schema()
    predictors = [c for c in columns if c.kind in ("numeric", "categorical")]
    assert len(predictors) == 35
    assert columns[-1].name == "Target"
    assert columns[-1].allowed_values == ACADEMIC_CLASS_NAMES


def test_academic_synthetic_class_proportions():
    ds = generate_academic_synthetic(10_000, seed=0)
    counts = np.bincount(ds.targets, minlength=3) / 10_000
    for got, want in zip(counts, ACADEMIC_PRIOR):
        assert abs(got - want) <= 0.02


def test_academic_synthetic_prior_converges():
    # law of large numbers against the documented planted prior
    ds = generate_academic_synthetic(50_000, seed=123)
    counts = np.bincount(ds.targets, minlength=3) / 50_000
    for got, want in zip(counts, ACADEMIC_PRIOR):
        assert abs(got - want) <= 0.01


def test_academic_synthetic_deterministic():
    a = generate_academic_synthetic(500, seed=9)
    b = generate_academic_synthetic(500, seed=9)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.targets, b.targets)


def test_academic_synthetic_minimum_rows():
    with pytest.raises(ParameterError):
        generate_academic_synthetic(5, seed=0)


def test_academic_csv_round_trip_matches_direct(tmp_path):
    from edulearn.cli import _csv_text

    for n_rows in (200, 20_000):  # 20,000 rows cross load_csv's chunk boundaries
        header, rows = academic_csv_rows(n_rows, seed=31)
        path = tmp_path / "academic.csv"
        path.write_text(_csv_text([header, *rows]), encoding="utf-8")
        loaded = load_csv(path, academic_schema())
        direct = generate_academic_synthetic(n_rows, seed=31)
        assert loaded.feature_names == direct.feature_names
        assert loaded.class_names == direct.class_names
        assert loaded.columns == direct.columns
        assert np.array_equal(loaded.features, direct.features)
        assert np.array_equal(loaded.targets, direct.targets)


# sha256 of the CSV text of academic_csv_rows(20_000, 31), as the generator
# that drew each category by name wrote it: a change to the random stream
# (the draws, their order or their mapping to names) changes it
_ACADEMIC_CSV_SHA256 = "f44c2f2ce745ca673413fb45dfa7ab7fc15ae7ba0fd1f33d23d65cc9f248a1ad"


def test_academic_csv_text_is_pinned():
    from edulearn.cli import _csv_text

    header, rows = academic_csv_rows(20_000, seed=31)
    text = _csv_text([header, *rows])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _ACADEMIC_CSV_SHA256


def test_academic_csv_rows_do_not_depend_on_the_block_size(monkeypatch):
    header, rows = academic_csv_rows(50, seed=3)
    whole = list(rows)
    monkeypatch.setattr(pipelines, "_CSV_ROWS", 7)
    header_b, rows_b = academic_csv_rows(50, seed=3)
    assert header_b == header
    assert list(rows_b) == whole
    assert len(whole) == 50 and all(len(row) == len(header) for row in whole)


# bytes of the unsplit feature matrix of 20,000 synthetic academic rows
_ROWS = 20_000
_MATRIX_BYTES = _ROWS * 61 * 8


def test_generate_academic_synthetic_peak_is_under_two_matrices():
    # the category draws as codes, never as string arrays: 1.75 matrices;
    # drawing them by name and encoding the strings peaked at 2.52
    tracemalloc.start()
    try:
        ds = generate_academic_synthetic(_ROWS, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.nbytes == _MATRIX_BYTES
    assert peak <= 2.0 * _MATRIX_BYTES


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 the caller's stack holds every call argument until the call returns",
)
@pytest.mark.parametrize("solver", SOLVERS)
def test_fit_dataset_on_the_last_reference_peaks_under_2_3_matrices(solver):
    # the unsplit matrix and the gathered rows (2 matrices) are the peak;
    # keeping the unsplit matrix and two scaled copies through the fit
    # peaked at 3.05
    opt = OptimizerConfig(solver=solver, max_iter=5, epochs=1)
    tracemalloc.start()
    try:
        held = [generate_academic_synthetic(_ROWS, seed=0)]
        tracemalloc.reset_peak()
        fit_dataset(held.pop(), opt, SplitSpec(0.7, seed=0), "synthetic", "academic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * _MATRIX_BYTES


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5000).filter(lambda n: n % 2048),
    d=st.integers(1, 24),
    k=st.sampled_from([2, 3]),
    constant=st.lists(st.booleans(), min_size=24, max_size=24),
    solver=st.sampled_from(SOLVERS),
    l1=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_dataset_trains_and_scores_on_the_split_scaled_rows(
    n, d, k, constant, solver, l1, seed
):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, d) + rng.uniform(-50.0, 50.0, d)
    for j in range(d):
        if constant[j]:
            x[:, j] = x[0, j]
    ds = Dataset(
        features=x,
        targets=rng.integers(0, k, n),
        feature_names=[f"f{j}" for j in range(d)],
        class_names=("a", "b", "c")[:k],
        columns=(),
    )
    kept = ds.features.copy()
    spec = SplitSpec(0.7, seed=seed % 1000)
    opt = OptimizerConfig(solver=solver, max_iter=3, epochs=1, l1=l1 if solver == "sgd" else 0.0)
    with mock.patch.object(pipelines, "train_logistic", wraps=train_logistic) as fit, \
            mock.patch.object(pipelines, "predict", wraps=pipelines.predict) as scored:
        _, bundle = fit_dataset(ds, opt, spec, "synthetic", "academic")

    # a caller that keeps its reference finds its dataset unchanged
    assert ds.features.tobytes() == kept.tobytes() and not ds.features.flags.writeable
    train, test = split(ds, spec)
    scaler = fit_scaler(train.features)
    # fit_scaler's bits are the two-pass formula's
    means = train.features.mean(axis=0)
    stds = np.sqrt(np.mean((train.features - means) ** 2, axis=0))
    stds = np.where(stds < 1e-12, 1.0, stds)
    assert scaler.means.tobytes() == means.tobytes() and scaler.stds.tobytes() == stds.tobytes()
    assert bundle.scaler.means.tobytes() == scaler.means.tobytes()
    assert bundle.scaler.stds.tobytes() == scaler.stds.tobytes()

    x_train, x_test = transform(scaler, train.features), transform(scaler, test.features)
    (fit_x, fit_y, _), _ = fit.call_args
    assert fit_x.shape == x_train.shape and fit_x.tobytes() == x_train.tobytes()
    assert np.array_equal(fit_y, train.targets)
    [(_, train_x), _], [(_, test_x), _] = scored.call_args_list
    assert train_x.tobytes() == x_train.tobytes() and test_x.tobytes() == x_test.tobytes()
    # the trainers read the feature-major view to the bits of the row-major matrix
    reference = train_logistic(x_train, train.targets, opt, class_names=ds.class_names)
    assert bundle.model.weights.tobytes() == reference.weights.tobytes()
    assert bundle.model.intercepts.tobytes() == reference.intercepts.tobytes()


def test_academic_bayes_predict_aligns():
    bayes = academic_bayes_predict(300, seed=2)
    ds = generate_academic_synthetic(300, seed=2)
    assert bayes.shape == (300,)
    # the Bayes rule should beat the majority-class rate on its own sample
    majority = max(np.bincount(ds.targets, minlength=3)) / 300
    assert (bayes == ds.targets).mean() > majority


def test_run_academic_case_study_synthetic():
    report = _fit_academic(
        None, None, 600, 1, OptimizerConfig(solver="lbfgs"), SplitSpec(0.7, seed=2)
    )[0]
    assert report.data_source == "synthetic"
    assert report.config_echo.solver == "lbfgs"
    assert sum(report.class_distribution.values()) == 420  # train rows
    assert list(report.class_distribution.keys()) == list(ACADEMIC_CLASS_NAMES)
    assert 0.0 <= report.test_metrics.accuracy <= 1.0


def test_run_academic_case_study_external_csv(tmp_path):
    header, rows = academic_csv_rows(300, seed=5)
    from edulearn.cli import _csv_text, dumps_canonical

    csv_path = tmp_path / "a.csv"
    csv_path.write_text(_csv_text([header, *rows]), encoding="utf-8")
    schema_path = tmp_path / "a.schema.json"
    schema_path.write_text(dumps_canonical(schema_to_doc(academic_schema())) + "\n")
    report = _fit_academic(
        str(csv_path), str(schema_path), None, 0, OptimizerConfig(solver="lbfgs"),
        SplitSpec(0.7, seed=2),
    )[0]
    assert report.data_source == "external"


def test_case_study_reports_identical_across_runs():
    split = SplitSpec(0.7, seed=4)
    r1 = _fit_academic(None, None, 400, 3, OptimizerConfig(solver="sgd", epochs=5, seed=3),
                       split)[0]
    r2 = _fit_academic(None, None, 400, 3, OptimizerConfig(solver="sgd", epochs=5, seed=3),
                       split)[0]
    assert r1 == r2


def test_style_session_validation():
    with pytest.raises(ParameterError):
        StyleSession(
            student_id="s", instructor_id="t", day=1, visual_score=120.0, auditory_score=50.0,
            comprehension_time=20.0, prior_preferred_style=0, time_of_day=9.0,
            instructor_score=5.0, lesson_duration=45.0,
        )


def test_style_gen_config_validation():
    with pytest.raises(ParameterError):
        StyleGenConfig(n_students=0)
    with pytest.raises(ParameterError):
        StyleGenConfig(visual_fraction=1.5)
    for noise_std in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="noise_std"):
            StyleGenConfig(noise_std=noise_std)

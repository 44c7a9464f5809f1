from fractions import Fraction

import numpy as np
import pytest

from edulearn.classify import OptimizerConfig
from edulearn.data import SplitSpec, load_csv, schema_to_doc
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
        assert np.array_equal(loaded.features, direct.features)
        assert np.array_equal(loaded.targets, direct.targets)


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
    assert report.solver == "lbfgs"
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

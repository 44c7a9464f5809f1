import csv
import hashlib
import io
import json
import os
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edulearn import data as data_mod
from edulearn import pipelines
from edulearn.classify import (
    SOLVERS,
    LogisticModel,
    OptimizerConfig,
    classes_from_proba,
    predict_proba,
    train_logistic,
)
from edulearn.data import (
    ColumnSchema,
    Dataset,
    ScalerParams,
    SplitSpec,
    assemble,
    fit_scaler,
    load_csv,
    schema_to_doc,
    split,
    transform,
)
from edulearn.errors import DegenerateDataError, ParameterError
from edulearn.pipelines import (
    ACADEMIC_CLASS_NAMES,
    ACADEMIC_PRIOR,
    FitBundle,
    StageLabel,
    StyleGenConfig,
    StyleLabel,
    StyleSession,
    academic_bayes_predict,
    academic_csv_columns,
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
    ds = task_dataset("academic", csv_path, schema_path, n, seed)
    data_source = "synthetic" if csv_path is None else "external"
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
    assert ds.n_rows == 24
    assert ds.feature_names[0] == "score_diff"
    assert len(ds.feature_names) == 6
    assert ds.class_names == ("auditory", "visual")


def test_style_csv_round_trip_matches_direct(tmp_path):
    cfg = StyleGenConfig(n_students=8, sessions_per_student=2, seed=21)
    pairs = generate_style_sessions(cfg)
    columns = style_session_columns(pairs)
    path = tmp_path / "style.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([list(columns), *zip(*columns.values())])
    loaded = collapse_score_columns(load_csv(path, style_schema()))
    direct = build_style_dataset(pairs)
    assert loaded.feature_names == direct.feature_names
    assert np.array_equal(assemble(loaded), assemble(direct))
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
    assert np.array_equal(assemble(a), assemble(b))
    assert np.array_equal(a.targets, b.targets)


def test_academic_synthetic_minimum_rows():
    with pytest.raises(ParameterError):
        generate_academic_synthetic(5, seed=0)


def _academic_csv_text(n_rows: int, seed: int) -> str:
    """The data.csv text that `generate --kind academic` writes."""
    return "".join(data_mod.csv_pieces(*academic_csv_columns(n_rows, seed)))


def test_academic_csv_round_trip_matches_direct(tmp_path):
    for n_rows in (200, 20_000):  # 20,000 rows cross load_csv's chunk boundaries
        path = tmp_path / "academic.csv"
        path.write_text(_academic_csv_text(n_rows, seed=31), encoding="utf-8")
        loaded = load_csv(path, academic_schema())
        direct = generate_academic_synthetic(n_rows, seed=31)
        assert loaded.feature_names == direct.feature_names
        assert loaded.class_names == direct.class_names
        assert loaded.columns == direct.columns
        assert np.array_equal(assemble(loaded), assemble(direct))
        assert np.array_equal(loaded.targets, direct.targets)


# sha256 of the CSV text of 20,000 academic rows at seed 31, as the
# generator that drew each category by name wrote it: a change to the
# random stream (the draws, their order or their mapping to names) changes it
_ACADEMIC_CSV_SHA256 = "f44c2f2ce745ca673413fb45dfa7ab7fc15ae7ba0fd1f33d23d65cc9f248a1ad"


def test_academic_csv_text_is_pinned():
    text = _academic_csv_text(20_000, seed=31)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _ACADEMIC_CSV_SHA256
    # academic_csv_rows is a view of the same cells, row by row
    header, rows = academic_csv_rows(20_000, seed=31)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    assert buf.getvalue() == text


def test_academic_csv_rows_do_not_depend_on_the_block_size(monkeypatch):
    header, rows = academic_csv_rows(50, seed=3)
    whole = list(rows)
    monkeypatch.setattr(data_mod, "CSV_BLOCK_ROWS", 7)
    header_b, rows_b = academic_csv_rows(50, seed=3)
    assert header_b == header
    assert list(rows_b) == whole
    assert len(whole) == 50 and all(len(row) == len(header) for row in whole)


def test_generate_formats_the_csv_in_blocks_not_in_rows(tmp_path, monkeypatch):
    # the traced peak of an academic `generate` above its columns (the peak
    # is reset once academic_csv_columns returns them, each label column as
    # one cell pointer per row) is one block of cell strings, tuples and
    # text: measured 1.85 MB at 4,096 rows and 1.88 MB at 32,768 in
    # blocks of 1,024 rows; in blocks of 8,192 it was 9.9 and 29.7 MB
    from edulearn.cli import main

    monkeypatch.chdir(tmp_path)
    columns = pipelines.academic_csv_columns

    def columns_then_reset_peak(*args):
        drawn = columns(*args)
        tracemalloc.reset_peak()
        held.append(tracemalloc.get_traced_memory()[0])
        return drawn

    monkeypatch.setattr(pipelines, "academic_csv_columns", columns_then_reset_peak)
    overhead = {}
    for n in (100, 4096, 32768):  # the first takes the one-time costs out
        held = []
        tracemalloc.start()
        try:
            assert main(["generate", "--kind", "academic", "--n", str(n), "--out", "g_"]) == 0
            overhead[n] = tracemalloc.get_traced_memory()[1] - held[0]
        finally:
            tracemalloc.stop()
    assert overhead[32768] <= 1.25 * overhead[4096]


# bytes of the unsplit feature matrix of 20,000 synthetic academic rows
_ROWS = 20_000
_MATRIX_BYTES = _ROWS * 61 * 8


def test_generate_academic_synthetic_peak_is_under_1_25_matrices():
    # the category draws as codes, never as string arrays, into a table of
    # float columns and one-byte codes with no one-hot matrix: 1.14 matrices.
    # Assembling the one-hot matrix peaked at 1.75, and drawing the
    # categories by name and encoding the strings at 2.52
    tracemalloc.start()
    try:
        ds = generate_academic_synthetic(_ROWS, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(v.nbytes for v in ds.features.values()) == _ROWS * (24 * 8 + 11)
    assert peak <= 1.25 * _MATRIX_BYTES


# traced peak of fit_dataset in one-hot matrices of all rows, measured plus
# ~10%: the train matrix, the test rows' table and the solver's arrays (1.09
# with gd, 1.02 with lbfgs and sgd). tracemalloc does not see the table's
# columns, each in pages of its own; traced in malloc's heap they made it
# 1.37 and 1.29, and sgd peaked at 1.59 while fit_sgd read a row-major copy
_FIT_PEAK = 1.2


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 the caller's stack holds every call argument until the call returns",
)
@pytest.mark.parametrize("solver", SOLVERS)
def test_fit_dataset_on_the_last_reference_peaks_under_fit_peaks(solver):
    # assembling the test matrix before the fit peaked at 1.47 (1.76 with
    # sgd), gathering the rows from the unsplit matrix at 2.05 (the matrix
    # and the gathered rows), and keeping it and two scaled copies through
    # the fit at 3.05
    opt = OptimizerConfig(solver=solver, max_iter=5, epochs=1)
    tracemalloc.start()
    try:
        held = [generate_academic_synthetic(_ROWS, seed=0)]
        tracemalloc.reset_peak()
        fit_dataset(held.pop(), opt, SplitSpec(0.7, seed=0), "synthetic", "academic")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _FIT_PEAK * _MATRIX_BYTES


def test_cmd_predict_after_the_load_peaks_under_1_65_matrices(tmp_path, monkeypatch):
    # from the loaded table on, predict holds the table, the probabilities
    # and one block of rows (11,808 here, the last one folded in), scaled in
    # place: 1.19. One matrix of all rows peaked at 1.46, and scaling a copy
    # of it at 2.26. The load's own peak, one chunk of text and cells, is
    # 2.2 at this size, whatever the matrix does, so the peak is reset when
    # load_csv returns.
    from edulearn.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text(_academic_csv_text(_ROWS, seed=0), encoding="utf-8")
    (tmp_path / "a.schema.json").write_text(json.dumps(schema_to_doc(academic_schema())))
    assert main(["train", "--task", "academic", "--input", "a.csv", "--schema", "a.schema.json",
                 "--max-iter", "5", "--json", "--out", "m_"]) == 0
    load = data_mod.load_csv

    def load_then_reset_peak(*args, **kwargs):
        ds = load(*args, **kwargs)
        tracemalloc.reset_peak()
        return ds

    monkeypatch.setattr(data_mod, "load_csv", load_then_reset_peak)
    tracemalloc.start()
    try:
        assert main(["predict", "--model", "m_model.json", "--input", "a.csv", "--out", "p_"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.65 * _MATRIX_BYTES


def test_load_csv_peak_above_its_table_is_one_chunk_of_records(tmp_path):
    # the traced peak of load_csv, which does not count the table it
    # returns (each chunk and column of it lives in pages of its own): one
    # chunk's lines and text and its numpy record block. At these 20,000
    # rows it measured 11.6 MB. Holding each chunk's text and block until
    # the next replaced them, it traced 13.7 MB above the table; reading the
    # numbers and the label cells in two reads, with a str object per label
    # cell, 17.4 MB
    path = tmp_path / "a.csv"
    path.write_text(_academic_csv_text(_ROWS, seed=0), encoding="utf-8")
    schema = academic_schema()
    data_mod.load_csv(path, schema)  # takes the one-time costs out
    tracemalloc.start()
    try:
        data_mod.load_csv(path, schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15.5e6


def _resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("source", ["csv", "synthetic"])
def test_a_dropped_table_gives_its_pages_back(tmp_path, source):
    # the resident set falls by the table's bytes (4.22 MB here) as soon as
    # its last reference goes. With its columns in malloc's heap the loaded
    # table gave back none of them; the generated one gave them back only
    # when glibc happened to trim its heap's top
    if source == "csv":
        path = tmp_path / "a.csv"
        path.write_text(_academic_csv_text(_ROWS, seed=0), encoding="utf-8")
        held = [data_mod.load_csv(path, academic_schema())]
    else:
        held = [generate_academic_synthetic(_ROWS, seed=0)]
    table = sum(v.nbytes for v in held[0].features.values()) + held[0].targets.nbytes
    before = _resident_bytes()
    held.clear()
    assert before - _resident_bytes() >= 0.9 * table


def _scoring_bundle(n, k, numeric=3):
    """A table of n rows (``numeric`` float columns and one 4-category
    column) and a bundle with random weights and scaler that scores it."""
    rng = np.random.default_rng(0)
    classes = ("a", "b", "c")[:k]
    columns = [*(ColumnSchema(f"f{j}", "numeric") for j in range(numeric)),
               ColumnSchema("c", "categorical", ("p", "q", "r", "s")),
               ColumnSchema("y", "target", classes)]
    features = {f"f{j}": rng.normal(size=n) * 10.0 + j for j in range(numeric)}
    features["c"] = rng.integers(0, 4, n)
    ds = Dataset(features=features, targets=np.zeros(0, dtype=np.int64), columns=columns)
    m = 1 if k == 2 else k
    d = numeric + 4
    model = LogisticModel(weights=rng.normal(size=(m, d)), intercepts=rng.normal(size=m),
                          class_names=classes, converged=True, iterations_used=1)
    scaler = ScalerParams(means=rng.normal(size=d), stds=rng.uniform(0.5, 2.0, d))
    return ds, FitBundle(model, scaler, ds.feature_names, "academic", ds.columns)


_BLOCK = data_mod.CHUNK_ROWS


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n, blocks", [
    (1, [1]), (409, [409]), (_BLOCK - 1, [_BLOCK - 1]), (_BLOCK, [_BLOCK]),
    (_BLOCK + 1, [_BLOCK + 1]), (2 * _BLOCK - 1, [2 * _BLOCK - 1]),
    (2 * _BLOCK, [_BLOCK, _BLOCK]), (2 * _BLOCK + 1, [_BLOCK, _BLOCK + 1]),
])
def test_apply_in_blocks_scores_as_one_matrix(n, blocks, k):
    # a last block shorter than CHUNK_ROWS joins the one before it. The
    # probabilities are compared to 1e-14, not to the bit: GEMM bits can
    # depend on the row count through the host's BLAS kernels.
    ds, bundle = _scoring_bundle(n, k)
    with mock.patch.object(pipelines, "predict_proba", wraps=predict_proba) as scored:
        proba = bundle.apply(ds)
    assert [len(x) for (_, x), _ in scored.call_args_list] == blocks
    whole = predict_proba(bundle.model, transform(bundle.scaler, assemble(ds)))
    assert proba.shape == (n, k) and not proba.flags.writeable
    assert np.array_equal(classes_from_proba(proba), classes_from_proba(whole))
    assert np.max(np.abs(proba - whole)) <= 1e-14


@pytest.mark.parametrize("value, weight, message", [
    (1e300, 1e10, "logits overflow"),  # only this row's logits overflow
    (-1.7e308, 1.0, "too large to standardize"),  # its scaled value overflows
])
def test_apply_names_an_overflowing_row_of_its_input(value, weight, message):
    ds, bundle = _scoring_bundle(2 * _BLOCK + 16, 3)
    features = dict(ds.features, f0=ds.features["f0"].copy())
    features["f0"][2 * _BLOCK + 6] = value  # in the second block
    weights = bundle.model.weights.copy()
    weights[:, 0] = weight
    scaler = ScalerParams(means=bundle.scaler.means, stds=np.r_[0.5, bundle.scaler.stds[1:]])
    bundle = replace(bundle, model=replace(bundle.model, weights=weights), scaler=scaler)
    with pytest.raises(DegenerateDataError, match=f"row {2 * _BLOCK + 7}\\b.*{message}"):
        bundle.apply(Dataset(features=features, targets=ds.targets, columns=ds.columns))


def test_apply_peaks_in_blocks_not_in_rows():
    # the n x k output plus the folded last block's one-hot matrix (1.01
    # blocks of 8,192 rows, 61 columns wide as the academic matrix), its
    # finiteness masks and probabilities: measured 1.25 block matrices. One
    # matrix of all 41,060 rows peaked at 5.85, and holding a block while
    # assembling the next at 2.08.
    ds, bundle = _scoring_bundle(5 * _BLOCK + 100, 3, numeric=57)
    tracemalloc.start()
    try:
        proba = bundle.apply(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * _BLOCK * 61 * 8 + proba.nbytes


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5000).filter(lambda n: n % 2048),
    d=st.integers(1, 24),
    k=st.sampled_from([2, 3, 4]),
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
        features={f"f{j}": x[:, j] for j in range(d)},
        targets=rng.integers(0, k, n),
        columns=[
            *(ColumnSchema(f"f{j}", "numeric") for j in range(d)),
            ColumnSchema("y", "target", ("a", "b", "c", "d")[:k]),
        ],
    )
    kept = {name: values.copy() for name, values in ds.features.items()}
    spec = SplitSpec(0.7, seed=seed % 1000)
    opt = OptimizerConfig(solver=solver, max_iter=3, epochs=1, l1=l1 if solver == "sgd" else 0.0)
    with mock.patch.object(pipelines, "train_logistic", wraps=train_logistic) as fit, \
            mock.patch.object(pipelines, "predict", wraps=pipelines.predict) as scored, \
            mock.patch.object(pipelines, "predict_proba", wraps=pipelines.predict_proba) as proba:
        _, bundle = fit_dataset(ds, opt, spec, "synthetic", "academic")

    # a caller that keeps its reference finds its dataset unchanged
    for name, values in ds.features.items():
        assert values.tobytes() == kept[name].tobytes() and not values.flags.writeable
    train, test = split(ds, spec)
    train_rows, test_rows = assemble(train), assemble(test)
    scaler = fit_scaler(train_rows)
    # fit_scaler's bits are the two-pass formula's on the row-major train rows
    means = train_rows.mean(axis=0)
    stds = np.sqrt(np.mean((train_rows - means) ** 2, axis=0))
    stds = np.where(stds < 1e-12, 1.0, stds)
    assert scaler.means.tobytes() == means.tobytes() and scaler.stds.tobytes() == stds.tobytes()
    assert bundle.scaler.means.tobytes() == scaler.means.tobytes()
    assert bundle.scaler.stds.tobytes() == scaler.stds.tobytes()

    x_train, x_test = transform(scaler, train_rows), transform(scaler, test_rows)
    (fit_x, fit_y, _), _ = fit.call_args
    assert fit_x.shape == x_train.shape and fit_x.tobytes() == x_train.tobytes()
    assert np.array_equal(fit_y, train.targets)
    # the train rows through predict, the test rows as predict scores its input
    [((_, train_x), _)], [((_, test_x), _)] = scored.call_args_list, proba.call_args_list
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
    from edulearn.cli import dumps_canonical

    csv_path = tmp_path / "a.csv"
    csv_path.write_text(_academic_csv_text(300, seed=5), encoding="utf-8")
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

"""End-to-end applications: the learning-style classifier (65% tally rule,
session aggregation, beginner/advanced staging) and the academic-risk case
study, runnable on synthetic generators or an external CSV.

Both synthetic generators are planted models: the ground-truth parameters
are fixed constants in this module, which makes Bayes-optimal oracles
computable in tests. Planted values are test fixtures, not claims about
real classrooms.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from importlib import resources
from itertools import chain

import numpy as np

from . import data as data_mod
from .classify import (
    MetricsReport,
    OptimizerConfig,
    classes_from_proba,
    compute_metrics,
    predict,
    predict_proba,
    train_logistic,
)
from .data import (
    ColumnSchema,
    Dataset,
    ScalerParams,
    SplitSpec,
    encode_columns,
    fit_scaler,
)
from .errors import DegenerateDataError, DimensionError, LabelError, ParameterError, SchemaError
from .numcore import frozen, own_pages

__all__ = [
    "StyleLabel",
    "StageLabel",
    "StyleSession",
    "StyleGenConfig",
    "ClassSummary",
    "CaseStudyReport",
    "FitBundle",
    "generate_style_sessions",
    "style_ratio_label",
    "aggregate_sessions",
    "route_learner_stage",
    "class_level_summary",
    "style_schema",
    "style_session_columns",
    "build_style_dataset",
    "collapse_score_columns",
    "task_features",
    "task_dataset",
    "fit_dataset",
    "academic_schema",
    "generate_academic_synthetic",
    "academic_bayes_predict",
    "academic_csv_columns",
    "academic_csv_rows",
]


class StyleLabel(IntEnum):
    """Binary learning style: auditory is 0, visual is 1."""

    AUDITORY = 0
    VISUAL = 1


class StageLabel(Enum):
    BEGINNER = "beginner"
    ADVANCED = "advanced"


STYLE_CLASS_NAMES = ("auditory", "visual")

# planted style generator: assessment score means for the matching and
# non-matching modality, and the chance that a student's past preference
# agrees with their latent style
_MATCH_MEAN = 80.0
_OTHER_MEAN = 55.0
_PRIOR_MATCH_PROB = 0.8


@dataclass(frozen=True)
class StyleSession:
    """One assessment session for one student."""

    student_id: str
    instructor_id: str
    day: int
    visual_score: float
    auditory_score: float
    comprehension_time: float
    prior_preferred_style: int
    time_of_day: float
    instructor_score: float
    lesson_duration: float

    def __post_init__(self):
        if not (0.0 <= self.visual_score <= 100.0 and 0.0 <= self.auditory_score <= 100.0):
            raise ParameterError("assessment scores must lie in [0, 100]")
        if self.comprehension_time <= 0.0 or self.lesson_duration <= 0.0:
            raise ParameterError("durations must be positive")
        if self.prior_preferred_style not in (0, 1):
            raise ParameterError("prior_preferred_style must be 0 or 1")
        if not (0.0 <= self.time_of_day < 24.0):
            raise ParameterError("time_of_day must lie in [0, 24)")
        if not (0.0 <= self.instructor_score <= 10.0):
            raise ParameterError("instructor_score must lie in [0, 10]")


@dataclass(frozen=True)
class StyleGenConfig:
    """Synthetic classroom configuration for the style generator."""

    n_students: int = 200
    sessions_per_student: int = 3
    visual_fraction: float = 0.5
    noise_std: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.n_students < 1 or self.sessions_per_student < 1:
            raise ParameterError("counts must be >= 1")
        if not (0.0 <= self.visual_fraction <= 1.0):
            raise ParameterError("visual_fraction must lie in [0, 1]")
        if not (self.noise_std >= 0.0 and math.isfinite(self.noise_std)):
            raise ParameterError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")


@dataclass(frozen=True)
class ClassSummary:
    beginner_fraction: float
    advanced_fraction: float
    recommendation: str


@dataclass(frozen=True)
class CaseStudyReport:
    """Train/test metrics plus the training class distribution for one run."""

    train_metrics: MetricsReport
    test_metrics: MetricsReport
    class_distribution: dict[str, int]
    config_echo: OptimizerConfig
    data_source: str


@dataclass(frozen=True)
class FitBundle:
    """Everything needed to serialize and later apply a trained pipeline."""

    model: object
    scaler: ScalerParams
    feature_names: tuple[str, ...]
    task: str
    schema: tuple[ColumnSchema, ...]

    def apply(self, ds: Dataset) -> np.ndarray:
        """The n x n_classes class probabilities of the rows of ``ds``, a table
        of the model's features (else a SchemaError). The rows are assembled,
        scaled in place and scored data.CHUNK_ROWS at a time, with a shorter
        last block joined to the one before it, so one block's one-hot matrix
        is held at a time. An overflow, in scaling or in the logits, names
        its row of ``ds``."""
        if ds.feature_names != self.feature_names:
            missing = [n for n in self.feature_names if n not in ds.feature_names]
            extra = [n for n in ds.feature_names if n not in self.feature_names]
            raise SchemaError(
                f"input features do not match the model (missing {missing}, unexpected {extra})"
            )
        proba = np.empty((ds.n_rows, self.model.n_classes))
        for start, stop in _blocks(ds.n_rows):
            x = data_mod.assemble(ds, np.arange(start, stop))
            x = data_mod.standardize(self.scaler, x, x, first_row=start + 1)
            proba[start:stop] = predict_proba(self.model, x, first_row=start + 1)
            del x  # before the next block is assembled
        return frozen(proba)


def _blocks(n: int) -> list[tuple[int, int]]:
    """The (start, stop) of each data.CHUNK_ROWS rows of ``n``, a shorter
    last block joined to the one before it."""
    block = data_mod.CHUNK_ROWS
    bounds = [0, *range(block, n - block + 1, block), n]
    return list(zip(bounds, bounds[1:]))


def _require_two_classes(targets: np.ndarray, class_names: tuple[str, ...], where: str) -> None:
    """A LabelError, prefixed with ``where``, unless ``targets`` show at
    least two of ``class_names``."""
    observed = np.flatnonzero(np.bincount(targets))
    if observed.size < 2:
        raise LabelError(
            f"{where}: training needs at least 2 classes, got {[class_names[k] for k in observed]}"
        )


def generate_style_sessions(cfg: StyleGenConfig) -> list[tuple[StyleSession, StyleLabel]]:
    """Seeded synthetic sessions with a planted latent style per student.

    The matching-modality assessment score is drawn around 80, the other
    around 55 (Gaussian noise, clamped to [0, 100]). Remaining predictors:
    comprehension time ~ U(10, 60) min, prior preferred style agrees with
    the latent style with probability 0.8, time of day ~ U(8, 16), instructor
    score ~ U(3, 10), lesson duration ~ U(30, 90) min.
    """
    rng = np.random.default_rng(cfg.seed)
    out: list[tuple[StyleSession, StyleLabel]] = []
    for i in range(cfg.n_students):
        latent = StyleLabel.VISUAL if rng.random() < cfg.visual_fraction else StyleLabel.AUDITORY
        agrees = rng.random() < _PRIOR_MATCH_PROB
        prior = int(latent) if agrees else 1 - int(latent)
        for j in range(cfg.sessions_per_student):
            visual_mean = _MATCH_MEAN if latent is StyleLabel.VISUAL else _OTHER_MEAN
            auditory_mean = _OTHER_MEAN if latent is StyleLabel.VISUAL else _MATCH_MEAN
            visual = float(np.clip(visual_mean + cfg.noise_std * rng.standard_normal(), 0.0, 100.0))
            auditory = float(
                np.clip(auditory_mean + cfg.noise_std * rng.standard_normal(), 0.0, 100.0)
            )
            session = StyleSession(
                student_id=f"s{i + 1:04d}",
                instructor_id=f"t{(j % 3) + 1:02d}",
                day=j + 1,
                visual_score=visual,
                auditory_score=auditory,
                comprehension_time=float(rng.uniform(10.0, 60.0)),
                prior_preferred_style=prior,
                time_of_day=float(rng.uniform(8.0, 16.0)),
                instructor_score=float(rng.uniform(3.0, 10.0)),
                lesson_duration=float(rng.uniform(30.0, 90.0)),
            )
            out.append((session, latent))
    return out


def style_ratio_label(visual_high_tally: int, total_assessments: int) -> StyleLabel:
    """Visual iff the visual-high tally exceeds 65% of all assessments.

    The comparison is exact integer arithmetic (tally/total > 13/20), so
    65% exactly is auditory.
    """
    if total_assessments <= 0:
        raise ParameterError("total_assessments must be positive")
    if not (0 <= visual_high_tally <= total_assessments):
        raise ParameterError("tally must lie in [0, total_assessments]")
    return (
        StyleLabel.VISUAL
        if 20 * visual_high_tally > 13 * total_assessments
        else StyleLabel.AUDITORY
    )


def aggregate_sessions(sessions: list[tuple[StyleSession, StyleLabel]]) -> StyleLabel:
    """Majority vote over per-session labels; an exact tie is auditory."""
    if not sessions:
        raise ParameterError("aggregate_sessions needs at least one session")
    visual = sum(1 for _, label in sessions if label is StyleLabel.VISUAL)
    return StyleLabel.VISUAL if 2 * visual > len(sessions) else StyleLabel.AUDITORY


def route_learner_stage(
    initial_score: float,
    advanced_score: float | None,
    pass_threshold: float,
) -> StageLabel:
    """Two-gate staging: beginners fail the initial gate or the advanced probe.

    The advanced score must be present exactly when the initial score passes
    the gate.
    """
    for name, score in (("initial_score", initial_score), ("pass_threshold", pass_threshold)):
        if not (0.0 <= score <= 100.0):
            raise ParameterError(f"{name} must lie in [0, 100]")
    if initial_score < pass_threshold:
        if advanced_score is not None:
            raise ParameterError("advanced_score must be absent when the initial gate fails")
        return StageLabel.BEGINNER
    if advanced_score is None:
        raise ParameterError("advanced_score is required when the initial gate passes")
    if not (0.0 <= advanced_score <= 100.0):
        raise ParameterError("advanced_score must lie in [0, 100]")
    return StageLabel.ADVANCED if advanced_score >= pass_threshold else StageLabel.BEGINNER


def class_level_summary(stages: list[StageLabel]) -> ClassSummary:
    """Class-wide stage fractions; advanced-track only on a strict majority."""
    if not stages:
        raise ParameterError("class_level_summary needs at least one stage")
    advanced = sum(1 for s in stages if s is StageLabel.ADVANCED)
    advanced_fraction = advanced / len(stages)
    return ClassSummary(
        beginner_fraction=1.0 - advanced_fraction,
        advanced_fraction=advanced_fraction,
        recommendation="advanced-track" if advanced_fraction > 0.5 else "beginner-track",
    )


def style_schema() -> list[ColumnSchema]:
    """Schema for session CSV files produced/consumed by the style pipeline."""
    return [
        ColumnSchema("student_id", "skip"),
        ColumnSchema("instructor_id", "skip"),
        ColumnSchema("day", "skip"),
        ColumnSchema("visual_score", "numeric"),
        ColumnSchema("auditory_score", "numeric"),
        ColumnSchema("comprehension_time", "numeric"),
        ColumnSchema("prior_preferred_style", "numeric"),
        ColumnSchema("time_of_day", "numeric"),
        ColumnSchema("instructor_score", "numeric"),
        ColumnSchema("lesson_duration", "numeric"),
        ColumnSchema("style", "target", allowed_values=STYLE_CLASS_NAMES),
    ]


def style_session_columns(pairs: list[tuple[StyleSession, StyleLabel]]) -> dict[str, list]:
    """The sessions' fields as columns in style_schema() order, each label as
    its class name."""
    *fields, target = (c.name for c in style_schema())
    columns = {name: [getattr(session, name) for session, _ in pairs] for name in fields}
    columns[target] = [STYLE_CLASS_NAMES[label] for _, label in pairs]
    return columns


def build_style_dataset(pairs: list[tuple[StyleSession, StyleLabel]]) -> Dataset:
    """Six-feature design matrix: the visual/auditory scores collapse to
    their difference, keeping one coefficient slot per predictor."""
    if not pairs:
        raise ParameterError("build_style_dataset needs at least one session")
    return task_features("style", encode_columns(style_schema(), style_session_columns(pairs)))


def collapse_score_columns(ds: Dataset) -> Dataset:
    """Replace the numeric visual_score/auditory_score columns with their
    difference, score_diff, as the first feature column; a difference that
    overflows float64 is a DegenerateDataError naming its row."""
    scores = [ds.features.get(name) for name in ("visual_score", "auditory_score")]
    if any(v is None or v.dtype != np.float64 for v in scores) or "score_diff" in ds.features:
        raise DimensionError(
            "collapse_score_columns needs numeric visual_score and auditory_score columns "
            "and no score_diff column"
        )
    with np.errstate(over="ignore"):
        diff = scores[0] - scores[1]
    bad = np.flatnonzero(~np.isfinite(diff))
    if bad.size:
        raise DegenerateDataError(f"row {bad[0] + 1}: score_diff overflows float64")
    kept = {k: v for k, v in ds.features.items() if k not in ("visual_score", "auditory_score")}
    return replace(ds, features={"score_diff": diff, **kept})


def task_features(task: str, ds: Dataset) -> Dataset:
    """The model features of an encoded ``task`` dataset: the style task
    collapses its two assessment scores to their difference."""
    return collapse_score_columns(ds) if task == "style" else ds


def fit_dataset(
    ds: Dataset,
    opt: OptimizerConfig,
    split_spec: SplitSpec,
    data_source: str,
    task: str,
) -> tuple[CaseStudyReport, FitBundle]:
    """Shared split -> train-fit scaling -> train -> metrics path behind both
    experiments; returns the report plus everything needed to serialize,
    with ``ds.columns`` as the schema to save.

    The one-hot matrix of the whole table is never built. The train rows
    are assembled straight into the feature-major (d x n) layout the
    multinomial objective reads and scaled in place; the trainer and the
    train-set predict read them through the ``.T`` view. The test rows stay
    an encoded table until the fit ends, and are then scored as ``predict``
    scores its input, by ``FitBundle.apply``.

    Ownership: pass the last reference to ``ds`` (no variable of the
    caller's holding it; before CPython 3.11 the caller's stack holds every
    argument until the call returns) and its table goes as the train matrix
    fills. The train labels and the test table are gathered first; then
    ``assemble`` fills the matrix column by column, numeric columns first,
    and drops each table column once its train rows are in. A table that
    ``data.load_csv`` or ``generate_academic_synthetic`` built holds each
    column in pages of its own (``numcore.own_pages``), so each drop lowers
    the process's resident memory at once. The train rows are predicted
    data.CHUNK_ROWS at a time, and the matrix is dropped before the test
    rows are scored. A caller that keeps a reference keeps its table alive
    and whole. A train split that shows fewer than two classes is a
    LabelError, raised before the fit.

    At 76,519 academic rows, `train --solver gd` peaks at its fit, at 65.8 MB
    resident on x86-64 Linux (3.7 MB more with the generator's draws in
    malloc's heap, 13.9 MB more with the table there too). tracemalloc,
    which does not see mapped pages, reads the fit's peak at 20,000 rows as
    1.09 one-hot matrices of all rows with gd and 1.02 with lbfgs and sgd:
    the train matrix, the test table and the solver's arrays.
    """
    class_names, feature_names, columns = ds.class_names, ds.feature_names, ds.columns
    train_rows, test_rows = data_mod.split_indices(ds.n_rows, split_spec)
    y_train, test = ds.targets[train_rows], ds.take(test_rows)
    _require_two_classes(
        y_train, class_names, f"train split (fraction {split_spec.train_fraction} of {ds.n_rows} rows)"
    )
    table = dict(ds.features)  # this call's own mapping, which assemble empties
    del ds  # the Dataset, freed here if this was the last reference
    xt = data_mod.assemble(test, train_rows, feature_major=True, features=table)  # test: the layout
    scaler = fit_scaler(xt.T)
    data_mod.standardize(scaler, xt.T, xt.T)
    model = train_logistic(xt.T, y_train, opt, class_names=class_names)
    bundle = FitBundle(model, scaler, feature_names, task, columns)
    train_pred = np.concatenate(
        [predict(model, xt.T[start:stop]) for start, stop in _blocks(len(y_train))]
    )
    del xt  # before the test rows are assembled
    k = len(class_names)
    report = CaseStudyReport(
        train_metrics=compute_metrics(y_train, train_pred, k),
        test_metrics=compute_metrics(test.targets, classes_from_proba(bundle.apply(test)), k),
        class_distribution={name: int((y_train == i).sum()) for i, name in enumerate(class_names)},
        config_echo=opt,
        data_source=data_source,
    )
    return report, bundle


# ---------------------------------------------------------------------------
# academic-risk case study
# ---------------------------------------------------------------------------

ACADEMIC_CLASS_NAMES = ("Graduate", "Dropout", "Enrolled")

# the generator's class prior; intercepts below are calibrated (800k-sample
# fit) so sampled proportions match it to ~1e-3
ACADEMIC_PRIOR = (0.474, 0.331, 0.195)
_ACADEMIC_INTERCEPTS = (0.0, -0.7751, 0.25)

# scale applied to every non-intercept ground-truth coefficient; tuned so the
# Bayes-optimal accuracy sits near 0.80, well above the majority-class rate
_STRENGTH = 3.5

_CATEGORIES = {
    "marital_status": ("single", "married", "divorced", "other"),
    "application_mode": ("first_phase", "second_phase", "transfer", "over_23"),
    "course": ("engineering", "business", "health", "science", "arts", "education"),
    "attendance_period": ("daytime", "evening"),
    "prev_qualification": ("secondary", "vocational", "bachelor", "master"),
    "mother_qualification": ("basic", "secondary", "higher", "unknown"),
    "father_qualification": ("basic", "secondary", "higher", "unknown"),
    "gender": ("female", "male"),
    "scholarship_holder": ("no", "yes"),
    "employment_status": ("not_employed", "part_time", "full_time"),
    "international": ("no", "yes"),
}

_CATEGORY_PROBS = {
    "marital_status": (0.72, 0.20, 0.06, 0.02),
    "application_mode": (0.45, 0.30, 0.15, 0.10),
    "course": (0.22, 0.20, 0.18, 0.15, 0.15, 0.10),
    "attendance_period": (0.85, 0.15),
    "prev_qualification": (0.75, 0.12, 0.09, 0.04),
    "mother_qualification": (0.35, 0.40, 0.20, 0.05),
    "father_qualification": (0.40, 0.38, 0.17, 0.05),
    "gender": (0.62, 0.38),
    "scholarship_holder": (0.72, 0.28),
    "employment_status": (0.68, 0.20, 0.12),
    "international": (0.95, 0.05),
}

_COLUMN_ORDER = (
    "marital_status",
    "application_mode",
    "application_order",
    "course",
    "attendance_period",
    "prev_qualification",
    "prev_qualification_grade",
    "admission_grade",
    "mother_qualification",
    "father_qualification",
    "gender",
    "age_at_enrollment",
    "international",
    "scholarship_holder",
    "employment_status",
    "credits_transferred",
    "units_1st_enrolled",
    "units_1st_evaluations",
    "units_1st_approved",
    "units_1st_grade",
    "units_2nd_enrolled",
    "units_2nd_evaluations",
    "units_2nd_approved",
    "units_2nd_grade",
    "study_hours_weekly",
    "attendance_rate",
    "assignment_submission_rate",
    "absence_days",
    "commute_minutes",
    "entrance_rank",
    "library_visits",
    "tutoring_sessions",
    "unemployment_rate",
    "inflation_rate",
    "gdp_growth",
)


def academic_schema() -> list[ColumnSchema]:
    """Schema of the synthetic academic CSV: 35 predictors plus Target."""
    columns = []
    for name in _COLUMN_ORDER:
        if name in _CATEGORIES:
            columns.append(ColumnSchema(name, "categorical", allowed_values=_CATEGORIES[name]))
        else:
            columns.append(ColumnSchema(name, "numeric"))
    columns.append(ColumnSchema("Target", "target", allowed_values=ACADEMIC_CLASS_NAMES))
    return columns


def _academic_sample(n_rows: int, seed: int):
    """Draw all 35 predictor columns plus the planted class logits.

    A latent per-student strength drives the achievement-flavoured columns,
    but the class logits are a fixed affine function of the *observed*
    columns only, so argmax over them is the Bayes rule given the features.
    """
    if n_rows < 10:
        raise ParameterError(f"need at least 10 rows, got {n_rows}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    n = n_rows
    s = rng.standard_normal(n)

    # each column goes to pages of its own (numcore.own_pages) as it is
    # drawn, so the draws' temporaries are all this leaves in malloc's heap
    num: dict[str, np.ndarray] = {}
    num["age_at_enrollment"] = own_pages(np.clip(np.round(rng.normal(21.0, 4.0, n)), 17, 55))
    num["admission_grade"] = own_pages(
        np.clip(125.0 + 12.0 * (0.6 * s + 0.8 * rng.standard_normal(n)), 95.0, 190.0)
    )
    num["prev_qualification_grade"] = own_pages(
        np.clip(120.0 + 14.0 * (0.5 * s + 0.9 * rng.standard_normal(n)), 95.0, 190.0)
    )
    num["application_order"] = own_pages(rng.integers(1, 7, n).astype(float))
    p_pass = np.clip(0.55 + 0.16 * s, 0.05, 0.98)
    num["units_1st_enrolled"] = own_pages(rng.integers(5, 9, n).astype(float))
    num["units_1st_approved"] = own_pages(
        rng.binomial(num["units_1st_enrolled"].astype(int), p_pass).astype(float)
    )
    num["units_1st_grade"] = own_pages(
        np.clip(11.0 + 2.2 * s + rng.normal(0.0, 1.5, n), 0.0, 20.0)
    )
    num["units_1st_evaluations"] = own_pages(num["units_1st_enrolled"] + rng.poisson(2.0, n))
    num["units_2nd_enrolled"] = own_pages(rng.integers(5, 9, n).astype(float))
    num["units_2nd_approved"] = own_pages(
        rng.binomial(num["units_2nd_enrolled"].astype(int), p_pass).astype(float)
    )
    num["units_2nd_grade"] = own_pages(
        np.clip(11.0 + 2.2 * s + rng.normal(0.0, 1.5, n), 0.0, 20.0)
    )
    num["units_2nd_evaluations"] = own_pages(num["units_2nd_enrolled"] + rng.poisson(2.0, n))
    num["unemployment_rate"] = own_pages(rng.choice([7.6, 8.9, 10.8, 12.4, 13.9, 16.2], n))
    num["inflation_rate"] = own_pages(rng.choice([-0.8, 0.3, 1.4, 2.6, 3.7], n))
    num["gdp_growth"] = own_pages(rng.choice([-4.06, -1.7, 0.32, 1.74, 3.51], n))
    num["study_hours_weekly"] = own_pages(np.clip(rng.normal(12.0 + 3.0 * s, 4.0), 0.0, 40.0))
    num["absence_days"] = own_pages(
        rng.poisson(np.clip(6.0 - 2.0 * s, 0.5, 15.0)).astype(float)
    )
    num["commute_minutes"] = own_pages(rng.uniform(5.0, 90.0, n))
    num["entrance_rank"] = own_pages(rng.uniform(1.0, 1000.0, n))
    num["credits_transferred"] = own_pages(rng.poisson(0.8, n).astype(float))
    num["library_visits"] = own_pages(rng.poisson(np.clip(3.0 + s, 0.2, 10.0)).astype(float))
    num["assignment_submission_rate"] = own_pages(
        np.clip(0.82 + 0.10 * s + 0.08 * rng.standard_normal(n), 0.0, 1.0)
    )
    num["attendance_rate"] = own_pages(
        np.clip(0.85 + 0.08 * s + 0.07 * rng.standard_normal(n), 0.0, 1.0)
    )
    num["tutoring_sessions"] = own_pages(rng.poisson(1.5, n).astype(float))

    # each categorical as the codes of its _CATEGORIES values: the draws
    # rng.choice makes over the value names themselves, as the Dataset's uint8
    cat: dict[str, np.ndarray] = {}
    for name, values in _CATEGORIES.items():
        cat[name] = own_pages(rng.choice(len(values), n, p=_CATEGORY_PROBS[name]).astype(np.uint8))

    # planted ground-truth logits: affine in the observed columns
    u1 = (num["units_1st_approved"] - 3.5) / 2.0
    u2 = (num["units_2nd_approved"] - 3.5) / 2.0
    att = (num["attendance_rate"] - 0.85) / 0.08
    sub = (num["assignment_submission_rate"] - 0.82) / 0.10
    adm = (num["admission_grade"] - 125.0) / 15.0
    age_c = num["age_at_enrollment"] - 21.0
    scholarship, evening, full_time, part_time = (
        (cat[name] == _CATEGORIES[name].index(value)).astype(float)
        for name, value in (
            ("scholarship_holder", "yes"),
            ("attendance_period", "evening"),
            ("employment_status", "full_time"),
            ("employment_status", "part_time"),
        )
    )

    z_grad = _STRENGTH * (
        0.55 * u1 + 0.55 * u2 + 0.35 * att + 0.25 * sub + 0.25 * adm + 0.30 * scholarship
        - 0.10 * evening
    )
    z_drop = _STRENGTH * (
        -0.35 * u1 - 0.35 * u2 - 0.25 * att - 0.10 * sub + 0.50 * full_time + 0.20 * part_time
        + 0.035 * age_c + 0.35 * evening - 0.30 * scholarship
    )
    z_enr = _STRENGTH * (-0.10 * u1 - 0.10 * u2 + 0.15 * part_time + 0.010 * age_c)
    logits = np.column_stack([z_grad, z_drop, z_enr]) + np.array(_ACADEMIC_INTERCEPTS)
    del u1, u2, att, sub, adm, age_c, scholarship, evening, full_time, part_time
    del z_grad, z_drop, z_enr

    # sample classes from the planted softmax with the same generator; one
    # buffer holds the shifted logits, their exponentials, the probabilities
    # and their running sums
    probs = logits - logits.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    np.cumsum(probs, axis=1, out=probs)
    u = rng.random(n)
    targets = np.sum(u[:, None] > probs, axis=1, dtype=np.int64)

    return num, cat, logits, targets


def generate_academic_synthetic(n_rows: int, seed: int) -> Dataset:
    """Desk-scale synthetic stand-in for the academic-risk dataset, the
    encoded table of the drawn columns and codes: the Dataset that load_csv
    reads from the CSV of academic_csv_rows with the same arguments."""
    num, cat, _, targets = _academic_sample(n_rows, seed)
    # the columns were drawn into pages of their own; the targets move there
    features = {name: (num if name in num else cat)[name] for name in _COLUMN_ORDER}
    return Dataset(features=features, targets=own_pages(targets), columns=academic_schema())


def academic_bayes_predict(n_rows: int, seed: int) -> np.ndarray:
    """Bayes-optimal class indices for the exact rows generate_academic_synthetic
    produces with the same arguments (argmax of the planted logits)."""
    _, _, logits, _ = _academic_sample(n_rows, seed)
    return np.argmax(logits, axis=1).astype(np.int64)


def academic_csv_columns(n_rows: int, seed: int) -> tuple[list[str], list[np.ndarray]]:
    """Header and columns of the synthetic set as data.csv_pieces writes
    them: each numeric column as its float64 values, written with repr so a
    load round-trips bit-exactly, and each categorical column and Target as
    the csv_cells text of its values."""
    num, cat, _, targets = _academic_sample(n_rows, seed)
    cat["Target"] = targets
    names = {**_CATEGORIES, "Target": ACADEMIC_CLASS_NAMES}
    header = [*_COLUMN_ORDER, "Target"]
    # each column's codes are freed as its cells replace them
    return header, [
        data_mod.csv_cells(names[name])[cat.pop(name)] if name in names else num.pop(name)
        for name in header
    ]


def academic_csv_rows(n_rows: int, seed: int) -> tuple[list[str], Iterator[tuple[str, ...]]]:
    """Header and an iterator of the cell-text rows that `generate` writes
    for the synthetic set: a view over the data.csv_blocks of
    academic_csv_columns, so the rows are never held whole."""
    header, columns = academic_csv_columns(n_rows, seed)
    return header, chain.from_iterable(zip(*block) for block in data_mod.csv_blocks(columns))


def packaged_academic_schema() -> list[ColumnSchema]:
    """Schema shipped for the public academic-success CSV (Target column,
    class order Graduate/Dropout/Enrolled)."""
    ref = resources.files("edulearn").joinpath("schemas/academic_kaggle.json")
    with resources.as_file(ref) as path:
        return data_mod.read_schema(path)


# synthetic sizes when none is given: students (style) or rows (academic)
DEFAULT_SIZES = {"style": 200, "academic": 5000}


def task_dataset(
    task: str, csv_path: str | None, schema_path: str | None, n: int | None, seed: int
) -> Dataset:
    """The model features of one training run.

    Without ``csv_path`` the task's generator draws ``n`` students or rows
    (default DEFAULT_SIZES) from ``seed``. A CSV is read against the schema
    document at ``schema_path``, or else the task's own schema (the packaged
    public-dataset schema for academic). Rows that show fewer than two
    classes are a LabelError, from either source and whatever classes the
    schema declares.
    """
    n = DEFAULT_SIZES[task] if n is None else n
    if csv_path is not None:
        if schema_path is not None:
            columns = data_mod.read_schema(schema_path)
        else:
            columns = style_schema() if task == "style" else packaged_academic_schema()
        ds = task_features(task, data_mod.load_csv(csv_path, columns))
    elif task == "style":
        ds = build_style_dataset(generate_style_sessions(StyleGenConfig(n_students=n, seed=seed)))
    else:
        ds = generate_academic_synthetic(n, seed)
    target = next(c.name for c in ds.columns if c.kind == "target")
    _require_two_classes(ds.targets, ds.class_names, f"{csv_path or 'synthetic data'}: target '{target}'")
    return ds

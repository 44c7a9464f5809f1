"""The benchmark's four workloads: which `edulearn` invocations each makes
from a seed, and which checks each applies to their outputs.

A workload has a set-up (its ``generate`` invocations, each once) and
rounds. Round r is one ``train`` followed by ``predicts_per_round`` pairs of
``generate``, re-making the input the ``predict`` reads, and ``predict``;
the re-runs give ``setup_s`` samples spread over the whole run. All inputs
derive from the workload seed S:

* academic-csv-lbfgs: ``generate --kind academic --n 76519 --seed S``, then
  ``train --solver lbfgs --input`` that CSV and ``predict`` on the same CSV.
* academic-gd: ``train --solver gd --n 76519 --seed S`` from the synthetic
  source, ``predict`` (four per round) on a 2,000-row cohort made with
  ``--seed S+1``.
* academic-sgd: as academic-gd with ``--solver sgd --n 5000`` (case-study
  defaults: constant rate 0.01, 100 epochs).
* style-classrooms: 8 classrooms of 200 students x 3 sessions, classroom j
  made with ``--seed 1000*S+j``. Round r trains on classroom r mod 8 (with
  that classroom's seed) and predicts classroom r+1 mod 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import (
    GRAD_TOL,
    check_fit,
    check_generated,
    check_predictions,
    check_report,
    encode,
    encode_csv,
    load_json,
    loss_and_grad_norm,
    require,
)

# style check: the trained model may trail the fixed rule "visual iff
# visual_score > auditory_score" by at most this much test accuracy. Over
# 1,700 classrooms (seeds 0-499, and 1000*S+j for S < 150, j < 8) the model
# (default l2 = 0.1) trails it by 1.1 points at the median and 6.1 points at
# worst; a model at chance trails by ~48.
STYLE_RULE_TOL = 0.10
SESSIONS_PER_STUDENT = 3
# sgd check: allowed |test accuracy - Bayes-oracle accuracy|. Acceptance
# criterion 6 allows 4 points for its one seed, but over seeds 0-99 at 5,000
# rows the gap is 2.0 points at the median and exceeds 4 on seeds 42 (5.3)
# and 75 (4.9); a check that fails on some seeds cannot tell a fault from
# the draw. 6 points is just above the worst gap seen; the majority class
# alone trails the oracle by over 30.
SGD_GAP_TOL = 0.06


@dataclass(frozen=True)
class Sizes:
    academic_rows: int  # the paper's case study: 76,519 candidates
    sgd_rows: int  # acceptance criterion 6's size for the SGD comparison
    cohort_rows: int  # new-cohort CSV that academic-gd/-sgd predict on
    classrooms: int
    students: int  # per classroom, each with 3 sessions


FULL = Sizes(76_519, 5_000, 2_000, 8, 200)
# smoke mode: small enough to finish in seconds, large enough that the
# statistical checks (Bayes-oracle gaps, the style rule) keep their meaning
SMOKE = Sizes(5_000, 2_000, 200, 2, 200)


class Workload:
    """Invocations and checks of one workload; subclasses fill them in."""

    name = ""
    generates = 1  # distinct set-up generate invocations
    # a cohort predict is ~0.4 s, nearly all interpreter start; several per
    # round give its median more samples at little cost
    predicts_per_round = 1

    def __init__(self, seed: int, sizes: Sizes, work: Path, report_schema: dict):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.report_schema = report_schema
        self.model_path = work / "m_model.json"
        self.report_path = work / "m_report.json"
        self.predictions_path = work / "p_predictions.csv"

    def generate_argv(self, j: int) -> list[str]:
        raise NotImplementedError

    def generate_prefix(self, j: int) -> str:
        raise NotImplementedError

    # The files each command writes. A run deletes them before every
    # invocation, so one that exits 0 but writes nothing fails its check
    # instead of passing on an earlier round's files.
    def generate_outputs(self, j: int) -> list[Path]:
        prefix = self.generate_prefix(j)
        return [Path(f"{prefix}data.csv"), Path(f"{prefix}schema.json")]

    def train_outputs(self) -> list[Path]:
        return [self.model_path, self.report_path]

    def predict_outputs(self) -> list[Path]:
        return [self.predictions_path]

    def check_generate(self, j: int) -> None:
        raise NotImplementedError

    def round_generate(self, r: int) -> int:
        """The generate index round r re-runs: the input its predict reads."""
        return 0

    def prepare(self) -> None:
        """Build the check references once the set-up outputs exist."""

    def train_argv(self, r: int) -> list[str]:
        raise NotImplementedError

    def predict_argv(self, r: int) -> list[str]:
        return ["predict", "--model", str(self.model_path), "--input",
                str(self.predict_input(r)), "--out", str(self.work / "p_")]

    def predict_input(self, r: int) -> Path:
        raise NotImplementedError

    def check_train(self, r: int) -> float:
        """Check the train outputs of round r; return the test accuracy."""
        raise NotImplementedError

    def check_predict(self, r: int) -> None:
        check_predictions(self.predictions_path, load_json(self.model_path),
                          self.predict_table(r))

    def predict_table(self, r: int):
        raise NotImplementedError


class Academic(Workload):
    """The three academic-risk workloads; they differ in solver and source."""

    def __init__(self, solver: str, from_csv: bool, gap_tol: float, *args):
        super().__init__(*args)
        self.solver = solver
        self.from_csv = from_csv
        self.gap_tol = gap_tol  # allowed |test accuracy - Bayes accuracy|
        self.rows = self.sizes.sgd_rows if solver == "sgd" else self.sizes.academic_rows
        if not from_csv:
            self.predicts_per_round = 4
        self.gen_prefix = str(self.work / ("data_" if from_csv else "cohort_"))
        self.first_model: bytes | None = None

    def generate_argv(self, j):
        n, seed = (self.rows, self.seed) if self.from_csv else (
            self.sizes.cohort_rows, self.seed + 1)
        return ["generate", "--kind", "academic", "--n", str(n), "--seed", str(seed),
                "--out", self.gen_prefix]

    def generate_prefix(self, j):
        return self.gen_prefix

    def check_generate(self, j):
        n = self.rows if self.from_csv else self.sizes.cohort_rows
        check_generated(f"{self.gen_prefix}data.csv", f"{self.gen_prefix}schema.json", n)

    def prepare(self):
        from edulearn.pipelines import academic_bayes_predict, academic_csv_rows

        schema = f"{self.gen_prefix}schema.json"
        if self.from_csv:
            self.table = encode_csv(f"{self.gen_prefix}data.csv", schema, "academic")
        else:
            # train without --input draws the same rows that
            # `generate --n rows --seed S` writes; rebuild them as CSV cells
            header, rows = academic_csv_rows(self.rows, self.seed)
            self.table = encode(load_json(schema), header, rows, "academic")
            self.cohort = encode_csv(f"{self.gen_prefix}data.csv", schema, "academic")
        self.bayes = academic_bayes_predict(self.rows, self.seed)

    def train_argv(self, r):
        argv = ["train", "--task", "academic", "--solver", self.solver]
        if self.from_csv:
            argv += ["--input", f"{self.gen_prefix}data.csv",
                     "--schema", f"{self.gen_prefix}schema.json"]
        else:
            argv += ["--n", str(self.rows)]
        return argv + ["--seed", str(self.seed), "--json", "--out", str(self.work / "m_")]

    def predict_input(self, r):
        return Path(f"{self.gen_prefix}data.csv")

    def predict_table(self, r):
        return self.table if self.from_csv else self.cohort

    def check_train(self, r):
        report = load_json(self.report_path)
        model_bytes = self.model_path.read_bytes()
        model = load_json(self.model_path)
        table = self.table
        check_report(report, self.report_schema, len(table.x))
        train, test = check_fit(report, model, table, self.seed)
        loss, grad_norm = loss_and_grad_norm(model, table.x[train], table.y[train])
        if self.solver == "sgd":
            require(loss < math.log(3), f"sgd training loss {loss:.4f} >= ln 3")
            if self.first_model is None:
                self.first_model = model_bytes
            require(model_bytes == self.first_model,
                    "two sgd trains with one seed wrote different model.json")
        else:
            require(model["converged"] is True, f"{self.solver} did not converge")
            require(grad_norm <= GRAD_TOL,
                    f"gradient inf-norm {grad_norm:.3g} at the saved weights")
        acc = report["test_metrics"]["accuracy"]
        bayes_acc = float((self.bayes[test] == table.y[test]).mean())
        require(abs(acc - bayes_acc) <= self.gap_tol,
                f"test accuracy {acc:.4f} vs Bayes oracle {bayes_acc:.4f}")
        return acc


class AcademicCsvLbfgs(Academic):
    name = "academic-csv-lbfgs"

    def __init__(self, *args):
        super().__init__("lbfgs", True, 0.02, *args)


class AcademicGd(Academic):
    name = "academic-gd"

    def __init__(self, *args):
        super().__init__("gd", False, 0.02, *args)


class AcademicSgd(Academic):
    name = "academic-sgd"

    def __init__(self, *args):
        super().__init__("sgd", False, SGD_GAP_TOL, *args)


class StyleClassrooms(Workload):
    name = "style-classrooms"

    def __init__(self, *args):
        super().__init__(*args)
        self.generates = self.sizes.classrooms

    def class_seed(self, j: int) -> int:
        return 1000 * self.seed + j

    def generate_prefix(self, j):
        return str(self.work / f"class{j}_")

    def generate_argv(self, j):
        return ["generate", "--kind", "style", "--n", str(self.sizes.students),
                "--seed", str(self.class_seed(j)), "--out", self.generate_prefix(j)]

    def check_generate(self, j):
        check_generated(*self.generate_outputs(j), self.sizes.students * SESSIONS_PER_STUDENT)

    def round_generate(self, r):
        return (r + 1) % self.generates

    def prepare(self):
        self.tables = [encode_csv(*self.generate_outputs(j), "style")
                       for j in range(self.generates)]

    def train_argv(self, r):
        j = r % self.generates
        return ["train", "--task", "style", "--input", f"{self.generate_prefix(j)}data.csv",
                "--seed", str(self.class_seed(j)), "--json", "--out", str(self.work / "m_")]

    def predict_input(self, r):
        return self.generate_outputs((r + 1) % self.generates)[0]

    def predict_table(self, r):
        return self.tables[(r + 1) % self.generates]

    def check_train(self, r):
        j = r % self.generates
        table = self.tables[j]
        report = load_json(self.report_path)
        model = load_json(self.model_path)
        check_report(report, self.report_schema, len(table.x))
        _, test = check_fit(report, model, table, self.class_seed(j))
        visual = np.array(table.cells["visual_score"], dtype=np.float64)[test]
        auditory = np.array(table.cells["auditory_score"], dtype=np.float64)[test]
        rule = np.where(visual > auditory, table.class_names.index("visual"),
                        table.class_names.index("auditory"))
        rule_acc = float((rule == table.y[test]).mean())
        acc = report["test_metrics"]["accuracy"]
        require(acc >= rule_acc - STYLE_RULE_TOL,
                f"test accuracy {acc:.4f} vs rule {rule_acc:.4f} on classroom {j}")
        return acc


WORKLOADS = {w.name: w for w in (AcademicCsvLbfgs, AcademicGd, AcademicSgd, StyleClassrooms)}

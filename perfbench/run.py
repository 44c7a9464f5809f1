"""Benchmark for edulearn: one workload, timed per CLI process or traced
per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; it builds nothing and runs the
checkout's ``src/`` directly. With ``--trace 0`` it runs the workload's
``generate`` set-up and then rounds as separate ``python -m edulearn``
processes, one at a time, until S seconds have passed (at least two rounds;
a round is one ``train`` and the workload's ``generate`` + ``predict``
pairs). Each process is timed from spawn to exit, and its CPU time and peak
RSS come from ``os.wait4``. With ``--trace 1`` it runs rounds
of ``generate`` + ``train`` + ``predict`` in this process instead, alternately
untraced and traced (see tracer.py), and reports per-module numbers. Every
output is checked (see checks.py); the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--smoke``
runs the same steps and checks at small sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

from checks import CheckFailure, load_json
from tracer import Tracer, span_cost_s
from workloads import FULL, SMOKE, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_ROUNDS = 2  # the median needs two samples; sgd's determinism check needs two trains
IMPORT_REPEATS = 5
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import edulearn.cli; "
    "print(time.perf_counter() - t)"
)


class Tally:
    """Attempted and failed CLI invocations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def attempt(self, what: str, rc: int, check):
        """Count one invocation; run its check if it exited 0.
        Returns (ok, value of the check)."""
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            print(f"FAILED {what}: exit code {rc}", file=sys.stderr)
            return False, None
        try:
            return True, check()
        except (CheckFailure, OSError, json.JSONDecodeError) as exc:  # wrong or missing output
            self.failed += 1
            self.correct = False
            print(f"CHECK FAILED {what}: {exc}", file=sys.stderr)
            return False, None


def child_env() -> dict[str, str]:
    """The inherited environment, BLAS thread settings included, with the
    checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The launch.py process that runs the timed run's CLI children."""

    def __init__(self, env: dict[str, str], log: Path):
        self.log = log
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launch.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str]) -> dict:
        """Run one `python -m edulearn` process to its end."""
        request = {"argv": [sys.executable, "-m", "edulearn", *argv], "cwd": str(ROOT),
                   "log": str(self.log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"launcher exited with code {self.proc.wait()}")
        inv = {"command": argv[0], **json.loads(line)}
        if inv["rc"] != 0:
            sys.stderr.write(self.log.read_text(errors="replace"))
        return inv

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def remove(paths) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def timed_run(w, seconds: float, launcher: Launcher, record: dict) -> tuple[Tally, dict]:
    tally = Tally()
    invocations = record.setdefault("invocations", [])
    setup_s = []

    def generate(j: int) -> int:
        remove(w.generate_outputs(j))
        inv = launcher.run(w.generate_argv(j))
        invocations.append(inv)
        ok, _ = tally.attempt("generate", inv["rc"], lambda: w.check_generate(j))
        if ok:
            setup_s.append(inv["wall_s"])
        return inv["rc"]

    for j in range(w.generates):
        if generate(j) != 0:
            raise SystemExit("set-up generate failed; nothing to measure")
    w.prepare()

    samples: dict[str, list[float]] = {k: [] for k in
                                       ("train_s", "predict_s", "cpu_s", "peak_rss_mb",
                                        "test_accuracy")}
    start, r = time.perf_counter(), 0
    while r < MIN_ROUNDS or time.perf_counter() - start < seconds:
        remove(w.train_outputs())
        train = launcher.run(w.train_argv(r))
        invocations.append(train)
        ok_train, acc = tally.attempt("train", train["rc"], lambda: w.check_train(r))
        if ok_train:
            samples["train_s"].append(train["wall_s"])
            samples["test_accuracy"].append(acc)
        for _ in range(w.predicts_per_round):
            # back-to-back set-up runs all land in the same few seconds of
            # machine speed; re-running one before each predict spreads the
            # setup_s samples over the run, as train_s and predict_s are
            generate(w.round_generate(r))
            if train["rc"] != 0:
                tally.attempt("predict (skipped: no model)", 1, None)
                continue
            remove(w.predict_outputs())
            pred = launcher.run(w.predict_argv(r))
            invocations.append(pred)
            ok_pred, _ = tally.attempt("predict", pred["rc"], lambda: w.check_predict(r))
            if ok_pred:
                samples["predict_s"].append(pred["wall_s"])
            if ok_train and ok_pred:
                samples["cpu_s"].append(train["cpu_s"] + pred["cpu_s"])
                samples["peak_rss_mb"].append(max(train["rss_mb"], pred["rss_mb"]))
        r += 1
    record["rounds"] = r
    samples["setup_s"] = setup_s
    empty = [k for k, v in samples.items() if not v]
    if empty:
        raise SystemExit(f"no successful invocation to measure {empty}")
    return tally, {k: statistics.median(v) for k, v in samples.items()}


def in_process(cli, argv: list[str]) -> tuple[float, int]:
    """Run one CLI command in this process; returns (wall seconds, exit code)."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a program bug: report it and count the invocation failed
        traceback.print_exc()
        rc = 1
    return time.perf_counter() - t0, rc


def import_seconds(env: dict[str, str]) -> float:
    """Median wall time of `import edulearn.cli` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def traced_run(w, seconds: float, record: dict, trace_path: Path) -> tuple[Tally, dict]:
    layer = {"cli.import_s": import_seconds(child_env())}
    from edulearn import cli, data

    tally = Tally()
    for j in range(w.generates):
        remove(w.generate_outputs(j))
        _, rc = in_process(cli, w.generate_argv(j))
        tally.attempt("generate", rc, lambda: w.check_generate(j))
        if rc != 0:
            raise SystemExit("set-up generate failed; nothing to trace")
    w.prepare()

    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    traced_rounds = []
    start, r = time.perf_counter(), 0
    while r < 1 or time.perf_counter() - start < seconds:
        j = w.round_generate(r)
        # alternate which of the pair goes first, so that neither always
        # runs on a warmer cache or in a quieter moment
        for traced in (False, True) if r % 2 == 0 else (True, False):
            steps = [(w.generate_argv(j), w.generate_outputs(j), lambda: w.check_generate(j)),
                     (w.train_argv(r), w.train_outputs(), lambda: w.check_train(r)),
                     (w.predict_argv(r), w.predict_outputs(), lambda: w.check_predict(r))]
            if traced:
                tracer.round = r
                tracer.install()
            try:
                runs = []
                for argv, outputs, _ in steps:
                    remove(outputs)
                    runs.append(in_process(cli, argv))
            finally:
                tracer.uninstall()
            oks = [tally.attempt(argv[0], rc, check)[0]
                   for (argv, _, check), (_, rc) in zip(steps, runs)]
            if all(oks):
                walls[traced].append(sum(wall for wall, _ in runs))
                if traced:
                    traced_rounds.append(r)
        r += 1
    record["rounds"] = r
    if not traced_rounds or not walls[False]:
        raise SystemExit("no successful round to report")

    layer.update(tracer.layer_metrics(traced_rounds))
    _, args, kwargs = tracer.largest_load
    tracemalloc.start()
    try:
        data.load_csv(*args, **kwargs)
        layer["data.load_csv_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    untraced_s = statistics.median(walls[False])
    layer["trace.overhead_frac"] = statistics.median(walls[True]) / untraced_s - 1.0
    spans = statistics.median(sum(s["round"] == r for s in tracer.spans) for r in traced_rounds)
    layer["trace.span_cost_frac"] = spans * span_cost_s() / untraced_s
    record["round_walls_s"] = {"untraced": walls[False], "traced": walls[True]}
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({"workload": w.name, "spans": tracer.spans}) + "\n")
    return tally, layer


def openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or None
    except OSError:
        sha = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, same checks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "edulearn" / "__init__.py").is_file():
        print(f"no edulearn sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    sys.path.insert(0, str(SRC))
    import edulearn

    if Path(edulearn.__file__).resolve().parent != SRC / "edulearn":
        print(f"edulearn imported from {edulearn.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    runs = BENCH_DIR / "runs"
    work = runs / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    w = WORKLOADS[args.workload](args.seed, SMOKE if args.smoke else FULL, work,
                                 load_json(SRC / "edulearn" / "report_schema.json"))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "environment": environment()}
    t0 = time.perf_counter()
    try:
        if args.trace:
            tally, values = traced_run(w, args.seconds, record,
                                       BENCH_DIR / "traces" / f"{tag}.json")
        else:
            launcher = Launcher(child_env(), work / "stderr.log")
            try:
                tally, values = timed_run(w, args.seconds, launcher, record)
            finally:
                launcher.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record["result"] = result
    record["run_s"] = time.perf_counter() - t0
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: {record['rounds']} rounds, "
          f"{tally.attempted} invocations, {tally.failed} failed; BLAS threads "
          f"{env['blas_threads']} ({env['blas']}), nproc {env['nproc']}")
    for name, m in metrics.items():
        print(f"#   {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

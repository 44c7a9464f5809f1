"""In-process span tracer for the benchmark's traced run.

`Tracer.install` wraps the public functions of ``edulearn.cli``, ``data``,
``pipelines``, ``classify`` and ``numcore`` from outside: every module-level
name that refers to one of them, in every loaded ``edulearn`` module, is
rebound to a wrapper, so ``from .classify import predict`` call sites are
traced too. ``DenseMatrix``/``DenseVector`` construction is traced through
their ``__post_init__``, and ``jsonschema.validate`` through the attribute
the CLI calls. `Tracer.uninstall` restores every binding. Nothing under
``src/`` is edited.

Each wrapped call records a span (name, start, end, parent, round) in
memory. A function that re-enters itself (``dumps_canonical`` recurses)
gets one span for the outermost call. ``cli.format_float`` is not wrapped:
it runs once per probability cell, so a span would cost more than the call;
its time stays in ``cmd_predict``'s self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

LAYERS = ("numcore", "data", "classify", "pipelines", "cli")
UNTRACED = {"cli.format_float", "cli.entrypoint"}
FIT_NAMES = ("classify.fit_gd", "classify.fit_lbfgs", "classify.fit_sgd")


SPAN_COST_CALLS = 20_000


def span_cost_s() -> float:
    """Seconds a wrapper adds to one call: a no-op called SPAN_COST_CALLS
    times wrapped and bare, best of three loops each."""
    def noop():
        return None

    def loop(fn) -> float:
        t0 = time.perf_counter()
        for _ in range(SPAN_COST_CALLS):
            fn()
        return time.perf_counter() - t0

    wrapped = Tracer()._wrap("noop", noop)
    extra = min(loop(wrapped) for _ in range(3)) - min(loop(noop) for _ in range(3))
    return max(extra, 0.0) / SPAN_COST_CALLS


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = -1
        self.largest_load: tuple[int, tuple, dict] | None = None  # rows, args, kwargs
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, note=None, cpu: bool = False):
        tracer = self
        active = False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            span = {"name": name, "parent": tracer._stack[-1] if tracer._stack else None,
                    "round": tracer.round}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            c0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["start"], span["end"] = t0, time.perf_counter()
                if cpu:
                    span["cpu"] = time.process_time() - c0
                tracer._stack.pop()
                active = False
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        return wrapper

    def _note_for(self, name: str, fn):
        if name == "data.load_csv":
            def note(args, kwargs, result):
                rows = result.n_rows
                if self.largest_load is None or rows > self.largest_load[0]:
                    self.largest_load = (rows, args, kwargs)
                return {"rows": rows}
            return note
        if name in ("classify.fit_gd", "classify.fit_lbfgs"):
            return lambda args, kwargs, result: {"iterations": result.iterations_used}
        if name == "classify.fit_sgd":
            sig = inspect.signature(fn)

            def note(args, kwargs, result):
                bound = sig.bind(*args, **kwargs).arguments
                x = getattr(bound["x"], "values", bound["x"])
                return {"updates": len(x) * bound["cfg"].epochs}
            return note
        return None

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"edulearn.{layer}")
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrapper = self._wrap(name, obj, self._note_for(name, obj),
                                         cpu=name in FIT_NAMES)
                    wrappers[id(obj)] = (obj, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "edulearn" and not mod_name.startswith("edulearn."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(module, attr, hit[1])
        numcore = importlib.import_module("edulearn.numcore")
        for cls in (numcore.DenseMatrix, numcore.DenseVector):
            self._rebind(cls, "__post_init__", self._wrap(
                f"numcore.{cls.__name__}", cls.__post_init__,
                lambda args, kwargs, result: {"bytes": args[0].values.nbytes}))
        jsonschema = importlib.import_module("jsonschema")
        self._rebind(jsonschema, "validate",
                     self._wrap("jsonschema.validate", jsonschema.validate))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- per-layer numbers ----------------------------------------------------

    def round_metrics(self, r: int) -> dict[str, float]:
        """Per-layer totals of traced round r (see README for each name)."""
        idx = [i for i, s in enumerate(self.spans) if s["round"] == r]
        dur = {i: self.spans[i]["end"] - self.spans[i]["start"] for i in idx}
        child = dict.fromkeys(idx, 0.0)
        command: dict[int, str | None] = {}
        for i in idx:  # parents precede their children
            s = self.spans[i]
            if s["parent"] is not None:
                child[s["parent"]] += dur[i]
            is_cmd = s["name"].startswith("cli.cmd_")
            command[i] = s["name"] if is_cmd else command.get(s["parent"])

        def spans(*names):
            return [i for i in idx if self.spans[i]["name"] in names]

        def total(*names):
            return sum(dur[i] for i in spans(*names))

        def field(key, *names):
            return sum(self.spans[i].get(key, 0) for i in spans(*names))

        def self_time(name):
            return sum(dur[i] - child[i] for i in spans(name))

        def per(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        builds = spans("numcore.DenseMatrix", "numcore.DenseVector")
        load_s = total("data.load_csv")
        fit_wall = total(*FIT_NAMES)
        gd_s, gd_it = total("classify.fit_gd"), field("iterations", "classify.fit_gd")
        sgd_s, sgd_up = total("classify.fit_sgd"), field("updates", "classify.fit_sgd")
        return {
            "cli.report_s": sum(
                dur[i] for i in spans("cli.report_to_doc", "cli.dumps_canonical",
                                      "jsonschema.validate")
                if command[i] == "cli.cmd_train"),
            "cli.write_s": total("cli.atomic_write_text"),
            "cli.predict_self_s": self_time("cli.cmd_predict"),
            "data.load_csv_s": load_s,
            "data.load_csv_rows_per_s": per(field("rows", "data.load_csv"), load_s),
            "data.split_s": total("data.split"),
            "data.scaler_s": total("data.fit_scaler", "data.transform"),
            "pipelines.academic_csv_rows_s": total("pipelines.academic_csv_rows"),
            "pipelines.style_sessions_s": total("pipelines.generate_style_sessions"),
            "pipelines.academic_synthetic_s": total("pipelines.generate_academic_synthetic"),
            "pipelines.fit_dataset_self_s": self_time("pipelines.fit_dataset"),
            "classify.gd_s": gd_s,
            "classify.gd_iterations": gd_it,
            "classify.gd_ms_per_iter": per(gd_s, gd_it, 1e3),
            "classify.lbfgs_s": total("classify.fit_lbfgs"),
            "classify.lbfgs_iterations": field("iterations", "classify.fit_lbfgs"),
            "classify.sgd_s": sgd_s,
            "classify.sgd_updates": sgd_up,
            "classify.sgd_us_per_update": per(sgd_s, sgd_up, 1e6),
            "classify.fit_cpu_per_wall": per(field("cpu", *FIT_NAMES), fit_wall),
            "classify.predict_s": total("classify.predict", "classify.proba_full"),
            "classify.metrics_s": total("classify.compute_metrics"),
            "numcore.dense_builds": len(builds),
            "numcore.dense_build_mb": sum(self.spans[i]["bytes"] for i in builds) / 2**20,
            "numcore.dense_build_s": sum(dur[i] for i in builds),
        }

    def layer_metrics(self, rounds) -> dict[str, float]:
        """Median over the traced rounds of each per-round metric."""
        per_round = [self.round_metrics(r) for r in rounds]
        return {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}

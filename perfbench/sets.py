"""Run sets of benchmark runs and summarise them.

    python3 perfbench/sets.py [--first-seed 0] [--label NAME]
    python3 perfbench/sets.py --compare results/A.json results/B.json

The first form runs ``run.py`` once per seed, ten seeds from ``--first-seed``,
on every workload of BENCHMARK.json (``--trace 0``, ``run_seconds`` from
BENCHMARK.json), one process at a time, and prints for
every end-to-end metric its median, quartiles and spread (interquartile
range over median) against the metric's bound, plus the attempted and failed
invocations. The set is saved to ``perfbench/results/<label>.json``. The
second form checks a later set against an earlier one: each median may be
worse than the earlier median by at most the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10


def run_set(spec: dict, workloads: list[str], seeds: range) -> dict:
    out = {}
    for name in workloads:
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in runs[-1]["metrics"].items()), flush=True)
        out[name] = runs
    return out


def summarise(spec: dict, results: dict) -> bool:
    steady = True
    for name, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"\n{name}: {len(runs)} runs, {attempted} invocations, {failed} failed, "
              f"correct={correct}")
        print(f"  {'metric':14s} {'unit':9s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'spread':>7s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread > m["bound"] / 3:
                flag = "  > bound/3"
                steady = False
            print(f"  {m['name']:14s} {m['unit']:9s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {m['bound']:6.2f}{flag}")
    return steady


def compare(spec: dict, first: dict, second: dict) -> bool:
    ok = True
    for name in first:
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[name])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok &= worse <= m["bound"]
            print(f"{name:20s} {m['name']:14s} {a:10.4g} -> {b:10.4g}  worse by "
                  f"{worse:+.3f} (bound {m['bound']})  {verdict}")
        share = [sum(r["failed"] for r in s[name]) / sum(r["attempted"] for r in s[name])
                 for s in (first, second)]
        print(f"{name:20s} failed share {share[0]:.6f} -> {share[1]:.6f}")
        ok &= share[0] == share[1]
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--label", default="set")
    parser.add_argument("--compare", nargs=2, metavar="SET")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(spec, first, second) else 1
    names = [w["name"] for w in spec["workloads"]]
    results = run_set(spec, names, range(args.first_seed, args.first_seed + RUNS))
    path = BENCH_DIR / "results" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n")
    steady = summarise(spec, results)
    print(f"\nsaved {path}; every spread below a third of its bound: {steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CI's speed gate: perfbench on the parent and on the change, in pairs.

Usage (stdlib only, any working directory)::

    python .github/perf_gate.py PARENT_DIR CHANGE_DIR

Both directories are checkouts: the parent commit and the change.  For
every workload of ``BENCHMARK.json``, each of ``SEEDS`` makes one pair:
``perfbench/run.py --workload W --seed S --seconds 4 --trace 0`` runs
once in each tree, each tree on its own ``perfbench/run.py``, and the
tree that runs first alternates from pair to pair.  The gate fails when
a run exits non-zero or prints ``"correct": false``, or when, on any
workload, the median change/parent ratio of a gated metric is worse
than ``BOUND``.  It is sized to catch a 2x slowdown, not noise: five
runs of one unchanged tree against itself on a 2-CPU container read
pair ratios of up to 1.44x and median ratios of up to 1.23x.
"""

import json
import math
import os
import statistics
import subprocess
import sys

SEEDS = (2, 3, 4)
SECONDS = 4
BOUND = 2.0
GATED = ("request_s.p50.calibrated", "evaluations_per_s.calibrated")


def load_benchmark(tree):
    """Workload names and ``metric -> better`` from ``BENCHMARK.json``."""
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    better = {entry["name"]: entry["better"] for entry in benchmark["end_to_end"]}
    return workloads, better


def compile_tree(tree):
    """Write bytecode once, so no run recompiles every module."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=tree, env=env, check=True)


def run(tree, workload, seed):
    """One benchmark run: ``(exit status, last-line JSON or None)``."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    try:
        return child.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return child.returncode, None


def _value(result, metric):
    try:
        value = float(result["metrics"][metric]["value"])
    except (KeyError, TypeError, ValueError):
        return None
    return value if math.isfinite(value) and value > 0 else None


def judge(pairs, better):
    """The gate's decision from the per-pair results.

    ``pairs`` holds ``(workload, seed, {"parent": run, "change": run})``
    with each run an ``(exit status, result)`` from :func:`run`.
    Returns ``(report lines, failures)``; the gate passes when there are
    no failures."""
    lines, failures, ratios = [], [], {}
    for workload, seed, runs in pairs:
        broken = False
        for side in ("parent", "change"):
            status, result = runs[side]
            if status != 0 or not result or result.get("correct") is not True:
                failures.append(f"{side} run of {workload} seed {seed} failed "
                                f"(exit {status}, correct: "
                                f"{(result or {}).get('correct')})")
                broken = True
        if broken:
            continue
        for metric in GATED:
            parent = _value(runs["parent"][1], metric)
            change = _value(runs["change"][1], metric)
            if parent is None or change is None:
                failures.append(f"{workload} seed {seed}: no value of {metric}")
                continue
            ratio = change / parent
            ratios.setdefault((workload, metric), []).append(ratio)
            lines.append(f"{workload} seed {seed} {metric}: change/parent "
                         f"{ratio:.3f}")
    for (workload, metric), values in ratios.items():
        median = statistics.median(values)
        worse = median if better[metric] == "lower" else 1 / median
        verdict = "FAIL" if worse > BOUND else "ok"
        lines.append(f"{workload} {metric}: median change/parent {median:.3f}, "
                     f"slowdown {worse:.2f}x (bound {BOUND}x) {verdict}")
        if worse > BOUND:
            failures.append(f"{workload}: {metric} is {worse:.2f}x worse "
                            f"(median of {len(values)} pairs)")
    return lines, failures


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    parent_dir, change_dir = (os.path.abspath(path) for path in argv)
    workloads, better = load_benchmark(change_dir)
    for tree in (parent_dir, change_dir):
        compile_tree(tree)
    pairs, count = [], 0
    for workload in workloads:
        for seed in SEEDS:
            sides = [("parent", parent_dir), ("change", change_dir)]
            if count % 2:
                sides.reverse()
            count += 1
            runs = {side: run(tree, workload, seed) for side, tree in sides}
            pairs.append((workload, seed, runs))
    lines, failures = judge(pairs, better)
    print("\n".join(lines))
    for failure in failures:
        print(f"perf gate: {failure}")
    print("perf gate: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

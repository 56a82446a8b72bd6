"""soficlab benchmark: exact-count workloads, end to end and per layer.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a source checkout: the benchmark imports soficlab
from the checkout's ``src/`` and refuses to run without it.  Each workload
runs in its own child process, one process at a time.  With --trace 0 the
run reports the end-to-end metrics; with --trace 1 it reports the per-layer
metrics of a span-traced run (see tracer.py).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Exit status: 0 when every output
matched its oracle, 1 when one did not, 2 when the checkout or a child is
broken, 3 when the benchmark's own self-check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import selfcheck  # noqa: E402  (needs HERE on sys.path)

WORKLOADS = ("specs", "sofic-variational", "sofic-zero-defect", "z2-hard-square")
SETUP_SAMPLES = 5  # child starts per run whose set-up time is measured
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "frontier_d": "count"}
PER_LAYER_UNITS = {
    "symbolic.language.self_s": "s", "symbolic.language.calls": "count",
    "symbolic.language.patterns": "count", "symbolic.language.hit_ratio": "ratio",
    "microstates.enumerate.self_s": "s", "microstates.enumerate.tuples_outer": "count",
    "microstates.enumerate.tuples_inner": "count", "microstates.count_cover.self_s": "s",
    "microstates.count_cover.signatures": "count", "microstates.collapse_ratio": "ratio",
    "microstates.filter.self_s": "s", "microstates.filter.kept_ratio": "ratio",
    "covers.pullback.self_s": "s", "covers.pullback.cells": "count",
    "covers.min_subcover.self_s": "s", "covers.min_subcover.inexact": "count",
    "covers.cover_entropy.self_s": "s", "covers.b_nu.self_s": "s",
    "entropy.self_s": "s", "entropy.rows_incomplete": "count",
    "sofic.self_s": "s", "tiling.self_s": "s", "tiling.flow_calls": "count",
    "cli.spec_s": "s", "cli.write_s": "s", "cli.artifact_bytes": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "trace.spans": "count",
}


class ChildError(RuntimeError):
    pass


def spawn(workload, seed, seconds, trace, workdir, deadline, setup_only=False,
          spans_out=None) -> dict:
    """Run one child process to completion; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload}: child exceeded the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, deadline) -> dict:
    work = ROOT / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    spans_out = ROOT / ".bench_out" / f"spans-{name}-seed{seed}.jsonl" if trace else None
    try:
        setups = []
        if not trace:
            for i in range(SETUP_SAMPLES - 1):
                setups.append(spawn(name, seed, seconds, trace, work / f"setup{i}",
                                    deadline, setup_only=True))
        res = spawn(name, seed, seconds, trace, work / "run", deadline, spans_out=spans_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res)
    res["setups"] = [s["setup_s"] for s in setups]
    res["setups_raw"] = [s["setup_raw_s"] for s in setups]
    if trace:
        # raw wall times: traced and untraced passes alternate in one child
        traced = statistics.median(res["walls_traced"])
        metrics = dict(res["layers"])
        metrics["trace.wall_s"] = traced
        metrics["trace.overhead_s"] = traced - statistics.median(res["walls"])
    else:
        metrics = {"wall_s": statistics.median(res["walls_ref"]),
                   "setup_s": statistics.median(res["setups"]),
                   "peak_rss_mb": res["peak_rss_mb"], "frontier_d": res["frontier_d"]}
    res["metrics"] = metrics
    return res


def tail_percentile(samples):
    """(p, value) for the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    k = len(ordered) - 10  # the k-th smallest has ten samples above it
    if k < 1:
        return None
    return 100 * k / len(ordered), ordered[k - 1]


def report(name, seed, trace, res) -> None:
    m = res["metrics"]
    print(f"workload {name}  seed {seed}  trace {trace}")
    if trace:
        for key in PER_LAYER_UNITS:
            print(f"  {key:38s} {m[key]:.6g} {PER_LAYER_UNITS[key]}")
    else:
        walls = res["walls_ref"]
        tail = tail_percentile(walls)
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else
                     f"no percentile has ten samples beyond it; max {max(walls):.4f} s")
        print(f"  wall_s       {m['wall_s']:.4f} s  (reference seconds; median of "
              f"n={len(walls)} passes; {tail_text}; raw median "
              f"{statistics.median(res['walls']):.4f} s)")
        print(f"  setup_s      {m['setup_s']:.4f} s  (reference seconds; median of "
              f"{len(res['setups'])} child starts; raw median "
              f"{statistics.median(res['setups_raw']):.4f} s)")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MiB")
        print(f"  frontier_d   {m['frontier_d']} count  (zero-defect golden mean, default budget)")
    frac = res["failed"] / res["attempted"] if res["attempted"] else math.nan
    print(f"  failed_frac  {frac:.4g} ratio  ({res['failed']} of {res['attempted']} operations)")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15,
                   help="measuring time per workload (at least three passes run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "soficlab" / "__init__.py").is_file():
        print(f"error: no soficlab sources under {ROOT / 'src'}; "
              "run the benchmark inside a source checkout", file=sys.stderr)
        return 2
    problems = selfcheck.run()
    if problems:
        for problem in problems:
            print(f"error: self-check: {problem}", file=sys.stderr)
        return 3

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(name, args.seed, args.trace, results[name])
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for key, unit in units.items():
            metrics[prefix + key] = {"value": res["metrics"][key], "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

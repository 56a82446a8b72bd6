"""One workload in its own process; started by run.py, never by hand.

Set-up ends when soficlab is imported and the first pass's inputs are
built; the child reports that moment so the parent can time set-up from
process start.  Then it runs timed passes back to back for the given
number of seconds, checks every pass against the oracles outside the timed
region, reads its own peak RSS and, untraced, probes frontier_d.  The last
line of its standard output is one JSON object.

With --trace 0, set-up (from the first statement of this file) and every
pass run under a reference.SpeedMeter, which also gives them in reference
seconds.  With --trace 1 there is no meter and the passes alternate:
untraced, then traced under the span tracer, so the tracing overhead is
measured in the same process, in seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before the parent started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans-out", type=Path)
    args = p.parse_args(argv)

    root = HERE.parent
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import reference

    # the interpreter's start-up is timed at the meter's first reading
    meter = reference.SpeedMeter() if not args.trace else None
    head_s = time.monotonic() - args.spawned_at
    if meter:
        meter.start()
    t0 = time.perf_counter()
    import soficlab

    if not Path(soficlab.__file__).resolve().is_relative_to(root / "src"):
        print(f"error: imported soficlab from {soficlab.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    import oracles
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, root, args.workdir)
    inputs = workload.build()
    if meter:
        seconds, ref_s = meter.stop()
        setup = {"setup_raw_s": head_s + seconds,
                 "setup_s": meter.to_reference(head_s) + ref_s}
    else:
        seconds = time.perf_counter() - t0
        setup = {"setup_raw_s": head_s + seconds, "setup_s": head_s + seconds}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    import tracer as tracing

    inexact = Counter()
    _audit_min_subcover(inexact, tracing)
    tracer = tracing.Tracer() if args.trace else None
    checker = oracles.Checker()
    walls = {"untraced": [], "traced": [], "untraced_ref": []}
    layers = []
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        before = inexact["n"]
        if traced:
            tracer.install()
        if meter:
            meter.start()
        t0 = time.perf_counter()
        try:
            results = (tracer.run_pass(f"{args.workload}/seed{args.seed}/pass{k}",
                                       workload.run, inputs)
                       if traced else workload.run(inputs))
        except Exception as exc:  # the pass failed as a whole: every stage failed
            results = exc
        finally:
            wall = wall_ref = time.perf_counter() - t0
            if meter:
                wall, wall_ref = meter.stop()
            if traced:
                tracer.uninstall()
        if traced:
            layers.append(tracer.pass_metrics(f"{args.workload}/seed{args.seed}/pass{k}"))
        extra = ([f"{inexact['n'] - before} min_subcover results not exact"]
                 if inexact["n"] > before else [])
        if isinstance(results, Exception):
            for label in workload.labels:
                checker.op(label, extra + [f"raised {results!r}"])
        else:
            workload.check(results, checker, extra)
        # soficlab's scans leave reference cycles (tens of MiB for the wide
        # scan) that the collector may not reach before the next pass; collect
        # them untimed so every pass starts from the same heap, as a one-shot
        # cli run does, and peak RSS does not grow with the number of passes
        results = inputs = None
        gc.collect()
        walls["traced" if traced else "untraced"].append(wall)
        if not traced:
            walls["untraced_ref"].append(wall_ref)
        k += 1
        # stop before a pass that would overrun the measuring time, once
        # there are MIN_PASSES (untraced) or one pass of each kind (traced)
        remaining = deadline - time.perf_counter()
        if k >= (2 if tracer else MIN_PASSES) and remaining < statistics.median(
                walls["untraced"] + walls["traced"]):
            break
        inputs = workload.build()

    out = dict(setup, walls=walls["untraced"], walls_ref=walls["untraced_ref"])
    if tracer is None:
        # peak RSS of the passes, before the probe can raise it
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["frontier_d"] = workloads.frontier_d(args.seed, checker)
    else:
        out["walls_traced"] = walls["traced"]
        out["layers"] = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        if args.spans_out:
            tracer.write(args.spans_out)
    out.update(attempted=checker.attempted, failed=checker.failed,
               problems=checker.problems[:20])
    print(json.dumps(out))
    return 0


def _audit_min_subcover(counter, tracing):
    """Count min_subcover results that are not exact, traced or not.

    soficlab's traces read ``min_subcover(...).count`` without looking at
    ``exact``, so an inexact greedy bound would otherwise pass as a count.
    """
    import soficlab.covers

    original = soficlab.covers.min_subcover

    def audited(*args, **kwargs):
        result = original(*args, **kwargs)
        if not result.exact:
            counter["n"] += 1
        return result

    tracing.rebind(original, audited)


if __name__ == "__main__":
    sys.exit(main())

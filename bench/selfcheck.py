"""Checks of the benchmark itself, without soficlab.

    python3 bench/selfcheck.py

run.py calls ``run`` before every benchmark run.  It checks that the
oracles accept the true counts and report an injected off-by-one count, a
budget cut and a bad exit code as failed operations, that the tracer's
self-time arithmetic is right on a synthetic nested trace, and that the
speed meter converts to reference seconds at the mean speed.
"""

from __future__ import annotations

import math
import sys

import oracles
import reference
import tracer

AMENABLE_CSV = """# soficlab 0.1.0
# task=entropy-amenable
n,size_F,count,entropy,value,b_nu
2,2,3,1.0,0.5,3
4,4,{count4},2.0,0.5,7
"""


def _oracle_problems() -> list:
    out = []
    c = oracles.Checker()
    c.op("zero-defect d=12", oracles.zero_defect_row(12, 0, 322, False))
    c.op("hard-square n=5", oracles.hard_square_row(5, 55447))
    c.op("variational d=8", oracles.variational_row(8, 47, 47, 36, 36))
    c.op("amenable spec", oracles.spec_artifacts(
        "goldenmean_amenable", 0, {"amenable.csv": AMENABLE_CSV.format(count4=8)}))
    if (c.attempted, c.failed) != (4, 0):
        out.append(f"true counts rejected: {c.problems}")

    injected = {
        "zero-defect off by one": oracles.zero_defect_row(12, 0, 323, False),
        "zero-defect budget cut": oracles.zero_defect_row(23, 0, 0, True),
        "zero-defect inner > outer": oracles.zero_defect_row(12, 323, 322, False),
        "hard-square off by one": oracles.hard_square_row(5, 55448),
        "variational off by one": oracles.variational_row(8, 47, 47, 36, 37),
        "variational filtered > unfiltered": oracles.variational_row(6, 18, 18, 19, 19),
        "amenable spec off by one": oracles.spec_artifacts(
            "goldenmean_amenable", 0, {"amenable.csv": AMENABLE_CSV.format(count4=9)}),
        "spec exit code": oracles.spec_artifacts("goldenmean_amenable", 1, {}),
        "spec artifact missing": oracles.spec_artifacts("goldenmean_amenable", 0, {}),
    }
    c = oracles.Checker()
    for label, problems in injected.items():
        c.op(label, problems)
    if c.failed != len(injected):
        passed = [k for k, v in injected.items() if not v]
        out.append(f"injected faults not reported as failed: {passed}")
    if oracles.lucas(22) != 39603 or oracles.fibonacci(10) != 55:
        out.append("Lucas/Fibonacci recurrences are wrong")
    return out


def _self_time_problems() -> list:
    # pass [0, 10] > a [1, 4] > a1 [2, 3];  pass > b [5, 9] > b1 [5, 7], b2 [6, 8]
    # (overlapping children cover their union once)
    spans = [
        [0, None, "pass", 0.0, 10.0, "r"],
        [1, 0, "a", 1.0, 4.0, "r"],
        [2, 1, "a1", 2.0, 3.0, "r"],
        [3, 0, "b", 5.0, 9.0, "r"],
        [4, 3, "b1", 5.0, 7.0, "r"],
        [5, 3, "b2", 6.0, 8.0, "r"],
    ]
    want = {0: 3.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 2.0}
    got = tracer.self_times(spans)
    if any(not math.isclose(got[k], v) for k, v in want.items()):
        return [f"self times {got} != {want}"]
    return []


def _reference_problems() -> list:
    # half the readings at the reference speed, half at half of it: the
    # mean speed is 3/4, so 2 s of work are 1.5 reference seconds
    meter = reference.SpeedMeter()
    meter._readings = [reference.REF_S, 2 * reference.REF_S] * 3
    got = meter.to_reference(2.0)
    return [] if math.isclose(got, 1.5) else [f"2 s at 3/4 speed gave {got} reference s"]


def run() -> list:
    """All self-check problems; empty when the benchmark is sound."""
    return _oracle_problems() + _self_time_problems() + _reference_problems()


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(f"FAILED {p}")
    print("self-check ok" if not problems else f"{len(problems)} self-check failures")
    sys.exit(1 if problems else 0)

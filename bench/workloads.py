"""The benchmark's four workloads, driven only through soficlab's public API.

Each workload builds its inputs from the seed, runs one timed pass over a
fixed list of stages, and checks every result against ``oracles``.  A
workload object is built once per child process; ``build`` returns fresh
inputs (new ``SymbolicSystem`` objects, whose language caches start empty)
for every pass, and the child calls it outside the timed region.

Why these four (see README.md for the measured shares):

* ``specs`` is what a user runs: every bundled spec through
  ``soficlab.cli.run``.  It is the only workload that reaches the cli and
  specfile layers, tiling, sofic defects, pairs, the partition bound and
  b_nu, which dominates it.
* ``sofic-variational`` is the wide positive-delta scan: many tuples
  collapse to few signatures, and the measure filter runs on every tuple.
  Positive delta is enumerator-only, so it bypasses any transfer-matrix path.
* ``sofic-zero-defect`` is the deep, narrow scan: every tuple is its own
  signature, so it is the case a transfer-matrix count would remove.
* ``z2-hard-square`` is the only workload dominated by language
  enumeration and the partition pullback, with the largest memory.

The seed chooses the inputs: odd seeds swap the two symbol labels (the
golden mean forbids ``00`` instead of ``11``, with the matching Parry chain,
test function and hard-square variant), and the seed shuffles the order in
which the specs run.  Every oracle is invariant under both.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import soficlab
import soficlab.cli

import oracles

SWAP = {"0": "1", "1": "0"}
WINDOW = (-2, 2)
F = (1,)
# Parry (maximal-entropy) chain of the golden mean forbidding 11, rows and
# columns in alphabet order "0", "1"; the same decimals as the bundled spec
PARRY = (("0.6180339887498949", "0.3819660112501051"), ("1", "0"))
FRONTIER_START = 22
FRONTIER_CAP = 64


def swapped(seed: int) -> bool:
    return seed % 2 == 1


def _rare(swap: bool) -> str:
    """The symbol that may not repeat: '1' unless the labels are swapped."""
    return "0" if swap else "1"


def golden_mean(swap: bool):
    rare = _rare(swap)
    return soficlab.SymbolicSystem(("0", "1"), soficlab.LatticeGroup(1),
                                   forbidden=[(((0,), (1,)), (rare, rare))],
                                   label="golden-mean")


def hard_square(swap: bool):
    rare = _rare(swap)
    return soficlab.SymbolicSystem(
        ("0", "1"), soficlab.LatticeGroup(2),
        forbidden=[(((0, 0), (1, 0)), (rare, rare)), (((0, 0), (0, 1)), (rare, rare))],
        label="hard-square")


def parry_chain(system, swap: bool):
    rows = [row[::-1] for row in PARRY[::-1]] if swap else PARRY
    return soficlab.MarkovMeasure.stationary(system, [list(r) for r in rows])


def swap_spec(spec):
    """The spec with symbols 0 and 1 exchanged in patterns and measures.

    The alphabet keeps its order, so the swapped system is a different input
    to the enumerators, not a renamed copy.
    """
    if isinstance(spec, list):
        return [swap_spec(x) for x in spec]
    if not isinstance(spec, dict):
        return spec
    out = {}
    for key, value in spec.items():
        if key == "values":
            out[key] = [SWAP[s] for s in value]
        elif key == "measures":
            out[key] = {label: _swap_measure(m) for label, m in value.items()}
        else:
            out[key] = swap_spec(value)
    return out


def _swap_measure(mspec):
    m = dict(mspec)
    if m["kind"] == "bernoulli":
        m["probs"] = m["probs"][::-1]
    elif m["kind"] == "markov":
        m["transition"] = [row[::-1] for row in m["transition"][::-1]]
        if "initial" in m:
            m["initial"] = m["initial"][::-1]
    else:
        raise ValueError(f"cannot swap measure kind {m['kind']!r}")
    return m


class Specs:
    name = "specs"

    def __init__(self, seed, root: Path, workdir: Path):
        spec_dir = workdir / "specs"
        self.out_dir = workdir / "out"
        spec_dir.mkdir(parents=True)
        self.out_dir.mkdir()
        sources = sorted((root / "specs").glob("*.spec"))
        random.Random(seed).shuffle(sources)
        self.paths = []
        self.prefixes = {}
        for src in sources:
            spec = json.loads(src.read_text())
            if swapped(seed):
                spec = swap_spec(spec)
            path = spec_dir / src.name
            path.write_text(json.dumps(spec, indent=2) + "\n")
            # load and validate as the cli will, so a bad input fails in set-up
            diagnostics = soficlab.cli.validate(path)
            if diagnostics:
                raise ValueError(f"{src.name}: {diagnostics}")
            self.paths.append(path)
            self.prefixes[path] = spec.get("out", {}).get("prefix") or path.stem
        self.labels = [self.prefixes[p] for p in self.paths]

    def build(self):
        return self.paths  # cli.run builds its systems from the files each time

    def run(self, paths):
        results = []
        for path in paths:
            printed = io.StringIO()
            try:
                with contextlib.redirect_stdout(printed):
                    code = soficlab.cli.run(str(path), out_dir=str(self.out_dir))
            except Exception as exc:  # any exception fails this spec, not the pass
                code = exc
            results.append((path, code, printed.getvalue().split()))
        return results

    def check(self, results, checker, extra):
        for path, code, written in results:
            prefix = self.prefixes[path]
            if isinstance(code, Exception):
                checker.op(prefix, extra + [f"raised {code!r}"])
                continue
            files = {Path(w).name[len(prefix) + 1:]: Path(w).read_text() for w in written}
            checker.op(prefix, extra + oracles.spec_artifacts(prefix, code, files))


class SoficVariational:
    name = "sofic-variational"
    STAGES = (6, 7, 8)
    labels = [f"d={d}" for d in STAGES]

    def __init__(self, seed, root, workdir):
        self.swap = swapped(seed)

    def build(self):
        gm = golden_mean(self.swap)
        at_origin = gm.pattern(gm.window([0]), [_rare(self.swap)])
        return dict(system=gm, cover=soficlab.origin_partition(gm),
                    measures=[("parry", parry_chain(gm, self.swap))],
                    L=[soficlab.TestFunction.indicator(at_origin)],
                    F=list(F), deltas=[Fraction(1, 10)],
                    maps=[soficlab.cyclic_model(gm.group, d) for d in self.STAGES],
                    window=gm.interval_window(*WINDOW))

    def run(self, x):
        return soficlab.check_variational(x["system"], x["cover"], x["measures"], x["L"],
                                          x["F"], x["deltas"], x["maps"], x["window"])

    def check(self, report, checker, extra):
        rows = {r.d: r for r in report.rows}
        for d, label in zip(self.STAGES, self.labels):
            r = rows.get(d)
            if r is None:
                checker.op(label, extra + ["stage missing from the report"])
                continue
            problems = oracles.variational_row(d, r.count_unfiltered_inner,
                                               r.count_unfiltered_outer,
                                               r.count_filtered_inner, r.count_filtered_outer)
            if not r.ordered_ok:
                problems.append("report marks the stage unordered")
            checker.op(label, extra + problems)


class SoficZeroDefect:
    name = "sofic-zero-defect"
    STAGES = tuple(range(12, 23, 2))
    labels = [f"d={d}" for d in STAGES]

    def __init__(self, seed, root, workdir):
        self.swap = swapped(seed)

    def build(self):
        gm = golden_mean(self.swap)
        window = gm.interval_window(*WINDOW)
        stages = [(soficlab.cyclic_model(gm.group, d),
                   soficlab.zero_defect_delta(gm, window, list(F), d)) for d in self.STAGES]
        return dict(system=gm, cover=soficlab.origin_partition(gm), window=window,
                    stages=stages)

    def run(self, x):
        # the delta depends on d, so each stage is its own trace
        return [soficlab.sofic_topological_trace(x["system"], x["cover"], list(F), delta,
                                                 [sigma], x["window"])
                for sigma, delta in x["stages"]]

    def check(self, traces, checker, extra):
        for label, d, tr in zip(self.labels, self.STAGES, traces):
            r = tr.rows[0]
            checker.op(label, extra + oracles.zero_defect_row(
                d, r.count_inner, r.count_outer, r.incomplete))


class HardSquare:
    name = "z2-hard-square"
    STAGES = (2, 3, 4, 5)
    labels = [f"n={n}" for n in STAGES]

    def __init__(self, seed, root, workdir):
        self.swap = swapped(seed)

    def build(self):
        hs = hard_square(self.swap)
        return dict(system=hs, cover=soficlab.origin_partition(hs))

    def run(self, x):
        return soficlab.amenable_topological_trace(x["system"], x["cover"], list(self.STAGES))

    def check(self, trace, checker, extra):
        counts = {r.n: r.count for r in trace.rows}
        for n, label in zip(self.STAGES, self.labels):
            checker.op(label, extra + oracles.hard_square_row(n, counts.get(n)))


WORKLOADS = {w.name: w for w in (Specs, SoficVariational, SoficZeroDefect, HardSquare)}


def frontier_d(seed, checker) -> int:
    """Largest cyclic-model d whose zero-defect golden-mean stage finishes
    under the default node budget.

    Probes one d at a time from FRONTIER_START, upward while stages finish
    (up to FRONTIER_CAP) or downward until one does.  The budget cut that
    ends the probe is the measurement, not a failure; a stage that finishes
    with a wrong count is a failure.
    """
    swap = swapped(seed)
    gm = golden_mean(swap)
    cover = soficlab.origin_partition(gm)
    window = gm.interval_window(*WINDOW)

    def finishes(d):
        delta = soficlab.zero_defect_delta(gm, window, list(F), d)
        row = soficlab.sofic_topological_trace(
            gm, cover, list(F), delta, [soficlab.cyclic_model(gm.group, d)], window).rows[0]
        if row.incomplete:
            return False
        checker.op(f"frontier d={d}", oracles.zero_defect_row(
            d, row.count_inner, row.count_outer, False))
        return True

    d = FRONTIER_START
    if finishes(d):
        while d < FRONTIER_CAP and finishes(d + 1):
            d += 1
        return d
    while d > 1:
        d -= 1
        if finishes(d):
            return d
    return 0

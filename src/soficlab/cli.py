"""Declarative experiment runner.

One spec file = one task; outputs are CSV/JSON artifacts whose headers echo
every parameter plus the sha256 of the spec, so identical spec + seed give
byte-identical numeric bodies.  Exit codes: 0 success (soft flags such as
guarantee_missed only warn), 1 hard assertion or budget failure, 2 spec
validation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .entropy import (amenable_measure_trace, amenable_topological_trace,
                      check_amenable_agreement, check_variational, entropy_pair_scan,
                      partition_count_bound, sofic_measure_trace,
                      sofic_topological_trace)
from .errors import ResourceBudgetError, SoficLabError, SpecError
from .microstates import count_microstates
from .sofic import freeness_defect, mult_defect
from .specfile import build_task, load_spec, read_spec
from .tiling import amenable_exact_tile, sofic_quasi_tile


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return repr(float(x))
    if isinstance(x, float):
        return repr(x)  # '-inf' for the sentinel, '.' decimal, no locale
    return str(x)


def _json_safe(x):
    """x with every infinite float written as the CSV token ('inf' / '-inf')."""
    if isinstance(x, float) and math.isinf(x):
        return _fmt(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


class ArtifactWriter:
    def __init__(self, out_dir: Path, prefix: str, spec_sha: str, task: str, params: dict):
        self.out_dir = out_dir
        self.prefix = prefix
        self.header = [
            f"# soficlab {__version__}",
            f"# spec_sha256={spec_sha}",
            f"# task={task}",
            f"# params={json.dumps(params, sort_keys=True, default=str)}",
        ]
        self.written = []

    def csv(self, name: str, columns, rows) -> Path:
        path = self.out_dir / f"{self.prefix}_{name}.csv"
        with open(path, "w") as fh:
            for line in self.header:
                fh.write(line + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        self.written.append(path)
        return path

    def json(self, name: str, payload: dict) -> Path:
        """Strict JSON: infinities become 'inf' / '-inf', NaN is refused."""
        path = self.out_dir / f"{self.prefix}_{name}.json"
        body = {
            "soficlab_version": __version__,
            "spec_sha256": self.header[1].split("=", 1)[1],
        }
        body.update(payload)
        with open(path, "w") as fh:
            json.dump(_json_safe(body), fh, indent=2, sort_keys=True, default=str,
                      allow_nan=False)
            fh.write("\n")
        self.written.append(path)
        return path


# task handlers ------------------------------------------------------------------


def _task_language(system, args, writer, budget):
    window = args["window"]
    values = system.language_values(window, budget=budget)
    rows = [(i, "".join(map(str, v))) for i, v in enumerate(values)]
    writer.csv("language", ("index", "pattern"), rows)
    writer.json("language_summary", {
        "window_size": len(window), "count": len(values),
    })
    return 0, []


def _task_defects(system, args, writer, budget):
    rows = []
    for i, sigma in enumerate(args["stages"]):
        for gs, gt in args["pairs"]:
            md = mult_defect(sigma, gs, gt)
            fd = freeness_defect(sigma, gs, gt) if gs != gt else ""
            rows.append((i, sigma.d,
                         f"{system.group.element_name(gs)}|{system.group.element_name(gt)}",
                         md, fd))
    writer.csv("defects", ("i", "d_i", "pair", "mult_defect", "freeness_defect"), rows)
    return 0, []


def _task_microstates(system, args, writer, budget):
    rows = []
    for delta in args["deltas"]:
        for sigma in args["stages"]:
            try:  # each tuples call runs a counting DP, under the stage's budget
                counts, _ = count_microstates(system, args["F"], delta, sigma, args["window"],
                                              args["cover"], measure_filter=args["filter"],
                                              budget=budget)
                rows.append((sigma.d, counts.tuples("inner").m, counts.tuples("outer").m,
                             counts.n_inner, counts.n_outer))
            except ResourceBudgetError as exc:
                raise ResourceBudgetError(f"stage d={sigma.d}, delta={float(delta)}: {exc}",
                                          upper_bound=exc.upper_bound) from exc
    writer.csv("microstates", ("d", "m_inner", "m_outer", "n_inner", "n_outer"), rows)
    return 0, []


def _trace_rows(trace, F_id, delta):
    out = []
    for r in trace.rows:
        out.append((trace.kind, r.stage, r.d, F_id, delta,
                    r.count_inner, r.count_outer, r.value_inner, r.value_outer))
    return out


def _task_entropy_sofic(system, args, writer, budget):
    cover, F, maps, window = args["cover"], args["F"], args["stages"], args["window"]
    F_id = ";".join(system.group.element_name(g) for g in F)
    measure = args["measure"]
    rows = []
    warnings = []
    for delta in args["deltas"]:
        if measure is None:
            tr = sofic_topological_trace(system, cover, F, delta, maps, window,
                                         budget=budget)
        else:
            tr = sofic_measure_trace(system, cover, measure, args["L"], F, delta, maps,
                                     window, budget=budget)
        rows.extend(_trace_rows(tr, F_id, delta))
        warnings += [f"budget exhausted at stage i={r.stage} (d={r.d}, "
                     f"delta={float(delta)}): its row is not a count"
                     for r in tr.rows if r.incomplete]
    writer.csv("trace", ("kind", "i", "d", "F_id", "delta",
                         "count_inner", "count_outer", "value_inner", "value_outer"), rows)
    return (1 if warnings else 0), warnings


def _task_entropy_amenable(system, args, writer, budget):
    cover, ns, measure, a = args["cover"], args["ns"], args["measure"], args["a"]
    if measure is not None:
        tr = amenable_measure_trace(system, cover, measure, ns, budget=budget, a=a)
    else:
        tr = amenable_topological_trace(system, cover, ns, budget=budget)
    columns = ["n", "size_F", "count", "entropy", "value"]
    rows = [[r.n, r.size, r.count, r.entropy, r.value] for r in tr.rows]
    if measure is not None and a is not None:
        # the covers dump: append b_nu(F_n, a, V) per stage
        columns.append("b_nu")
        for row, r in zip(rows, tr.rows):
            row.append(r.b_nu)
    writer.csv("amenable", tuple(columns), [tuple(r) for r in rows])
    return 0, []


def _task_compare(system, args, writer, budget):
    kwargs = {}
    if args["slack"] is not None:
        kwargs["slack"] = float(args["slack"])
    report = check_amenable_agreement(
        system, args["cover"], args["ns"], args["sigma"], args["deltas"], args["F"],
        args["window"], measure=args["measure"], L=args["L"], **kwargs, budget=budget)
    rows = [(r.n, r.d, r.delta, r.value_sofic_inner, r.value_sofic_outer,
             r.value_amenable, r.gap, int(r.bound_ok)) for r in report.rows]
    writer.csv("compare", ("n", "d", "delta", "value_sofic_inner",
                           "value_sofic_outer", "value_amenable", "gap", "bound_ok"),
               rows)
    if report.ok:
        verdict = "agreement bound holds"
    elif all(r.bound_ok or r.incomplete for r in report.rows):
        verdict = "inconclusive: budget exhausted"
    else:
        verdict = "agreement bound violated"
    writer.json("compare_report", {
        "ok": report.ok,
        "slack_used": {f"n={n},delta={float(dl)}": s
                       for (n, dl), s in report.slack_used.items()},
        "verdict": verdict,
    })
    return (0 if report.ok else 1), []


def _task_variational(system, args, writer, budget):
    report = check_variational(system, args["cover"], args["measure_labels"], args["L"],
                               args["F"], args["deltas"], args["stages"], args["window"],
                               budget=budget)
    rows = [(r.measure_label, r.delta, r.stage, r.d,
             r.count_unfiltered_inner, r.count_unfiltered_outer,
             r.count_filtered_inner, r.count_filtered_outer,
             int(r.ordered_ok), r.gap_outer) for r in report.rows]
    writer.csv("variational", ("measure", "delta", "i", "d",
                               "count_unfiltered_inner", "count_unfiltered_outer",
                               "count_filtered_inner", "count_filtered_outer",
                               "ordered_ok", "gap"), rows)
    writer.json("variational_report", {
        "ok": report.ok,
        "worst_gap": report.worst_gap(),
        "verdict": "measure trace never exceeds topological trace"
                   if report.ok else "ordering violated",
    })
    return (0 if report.ok else 1), []


def _task_tile(system, args, writer, budget):
    group = system.group
    sigma = args["sigma"]  # built at its own size
    shapes, V = args["shapes"], args["V"]
    eta, tau = args["eta"], args["tau"]
    if args["flavor"] == "amenable-exact":
        tiling = amenable_exact_tile(sigma, shapes, tau, eta, V=V)
    else:
        tiling = sofic_quasi_tile(sigma, V, shapes, eta, tau,
                                  check_good=bool(args["check_good"]))
    warnings = []
    if tiling.guarantee_missed:
        warnings.append(f"guarantee_missed: coverage {float(tiling.coverage):.4f} "
                        f"< 1 - tau - eta")
    record = tiling.record
    writer.json("tiling", {
        "flavor": tiling.flavor,
        "d": tiling.d,
        "eta": float(eta),
        "tau": float(tau),
        "is_good_policy": "E = F_l F_l + identity, eta'' = eta / 4",
        "shapes": [[group.element_name(g) for g in s] for s in tiling.shapes],
        "centers": [list(c) for c in tiling.centers],
        "guarantee_missed": tiling.guarantee_missed,
        "verification": {
            "across_disjoint": record.across_disjoint,
            "coverage": float(record.coverage),
            "coverage_ok": record.coverage_ok,
            "eta_disjoint": list(record.eta_disjoint),
            "centers_bijective": list(record.centers_bijective),
            "product_bijective": list(record.product_bijective),
            "all_ok": record.all_ok(tiling.flavor),
        },
    })
    writer.csv("coverage", ("phase", "shape_size", "centers", "coverage"),
               [(k, len(s), len(c), record.coverage)
                for k, (s, c) in enumerate(zip(tiling.shapes, tiling.centers))])
    # a missed coverage guarantee only warns; the other conditions are hard
    return (0 if replace(record, coverage_ok=True).all_ok(tiling.flavor) else 1), warnings


def _task_pairs(system, args, writer, budget):
    report = entropy_pair_scan(system, args["candidates"], float(args["threshold"]),
                               int(args["n"]), budget=budget)
    writer.json("pairs", {
        "note": report.note,
        "threshold": report.threshold,
        "results": [{"pair": r.pair_label, "value": r.value, "positive": r.positive}
                    for r in report.rows],
    })
    return 0, []


def _task_partition_bound(system, args, writer, budget):
    res = partition_count_bound(int(args["lam_size"]), args["p"], args["eta"], args["eps"])
    writer.csv("partition_bound",
               ("lam_size", "count", "log_count", "log_bound", "holds"),
               [(args["lam_size"], res.count, res.log_count, res.log_bound,
                 int(res.holds))])
    return 0, []


_HANDLERS = {
    "language": _task_language,
    "defects": _task_defects,
    "microstates": _task_microstates,
    "entropy-sofic": _task_entropy_sofic,
    "entropy-amenable": _task_entropy_amenable,
    "compare": _task_compare,
    "variational": _task_variational,
    "tile": _task_tile,
    "pairs": _task_pairs,
    "partition-bound": _task_partition_bound,
}


def validate(spec_path) -> list:
    """[] if run would accept the spec, else its first error as
    '<field>: <message>': the spec is read and built as run builds it."""
    try:
        build_task(load_spec(spec_path))
    except SpecError as exc:
        return [f"{exc.field}: {exc}"]
    return []


def _read(spec_path, task=None) -> tuple[dict, str]:
    """read_spec's result, refused if task (a subcommand's) is not the spec's."""
    spec, digest = read_spec(spec_path)
    if task is not None and spec["task"] != task:
        raise SpecError(f"the subcommand requires task {task!r}, spec has {spec['task']!r}",
                        field="task")
    return spec, digest


def run(spec_path, out_dir=None, budget_nodes=None, task=None) -> int:
    """Execute one spec; returns the exit status.  A spec error, or a task
    other than the given one, raises SpecError before any output is opened."""
    if budget_nodes is not None and budget_nodes < 1:
        raise SpecError(f"node budget must be >= 1, got {budget_nodes}",
                        field="--budget-nodes")
    spec, digest = _read(spec_path, task)  # one read, so the header names the bytes that ran
    budget = 2_000_000 if budget_nodes is None else budget_nodes
    try:
        system, args = build_task(spec)
        out = Path(out_dir or os.environ.get("SOFICLAB_OUT") or ".")
        out.mkdir(parents=True, exist_ok=True)
        prefix = spec.get("out", {}).get("prefix") or Path(spec_path).stem
        writer = ArtifactWriter(out, prefix, digest, spec["task"], spec["params"])
        code, warnings = _HANDLERS[spec["task"]](system, args, writer, budget)
    except ResourceBudgetError as exc:
        bound = "" if exc.upper_bound is None else f" (upper bound {exc.upper_bound}, not a count)"
        print(f"error: budget exhausted in task {spec['task']}: {exc}{bound}", file=sys.stderr)
        return 1
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    for path in writer.written:
        print(path)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="soficlab",
        description="Finite-stage entropy laboratory for subshifts over groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_run_flags=True):
        p.add_argument("--spec", required=True, help="path to the experiment spec JSON")
        if with_run_flags:
            p.add_argument("--budget-nodes", type=int, default=None,
                           help="search node budget override (>= 1)")
            p.add_argument("--out", default=None,
                           help="output directory (default $SOFICLAB_OUT or .)")
            p.add_argument("--validate", action="store_true",
                           help="validate the spec and exit")

    add_common(sub.add_parser("run", help="run any task"))
    add_common(sub.add_parser("validate", help="validate a spec"), with_run_flags=False)
    add_common(sub.add_parser("sofic", help="run a defects task"))
    add_common(sub.add_parser("microstates", help="run a microstates task"))
    add_common(sub.add_parser("tile", help="run a tile task"))
    args = parser.parse_args(argv)

    required_task = {"sofic": "defects", "microstates": "microstates", "tile": "tile"}
    try:
        task = required_task.get(args.command)
        if args.command == "validate" or args.validate:
            build_task(_read(args.spec, task)[0])
            return 0
        return run(args.spec, out_dir=args.out, budget_nodes=args.budget_nodes, task=task)
    except SpecError as exc:
        where = f" ({exc.field})" if exc.field else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return 2
    except SoficLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Independent oracles for the benchmark's exact counts.

Nothing here imports soficlab.  Every expected value comes from a
recurrence computed here, a closed form, or a published table, so a wrong
count in the library cannot be echoed back as the expected one.  Each
check takes plain numbers or artifact text and returns a list of problems;
an empty list means the operation passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Independent sets in the n x n grid graph (OEIS A006506; Calkin and Wilf,
# "The number of independent sets in a grid graph", SIAM J. Discrete Math.
# 11, 1998).  Hard squares on an n x n box are exactly these sets.
HARD_SQUARE_COUNTS = {1: 2, 2: 7, 3: 63, 4: 1234, 5: 55447, 6: 5598861}

# Golden mean, cyclic models d = 6, 7, 8, delta = 1/10, window [-2, 2],
# F = {1}, Parry chain, L = {1[x_0 = rare symbol]}: (unfiltered, filtered)
# signature counts, pinned from the library at the seed commit.  Both
# certification modes give the same numbers at this delta.
VARIATIONAL_COUNTS = {6: (18, 9), 7: (29, 14), 8: (47, 36)}


def fibonacci(n: int) -> int:
    """F_0 = 0, F_1 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n: int) -> int:
    """L_0 = 2, L_1 = 1: closed golden-mean walks of length n, tr A^n."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class Checker:
    """Tallies operations (one stage or one spec) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, label: str, problems) -> bool:
        self.attempted += 1
        problems = list(problems)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


def zero_defect_row(d, count_inner, count_outer, incomplete) -> list:
    if incomplete:
        return ["stage cut by the node budget"]
    out = []
    if count_outer != lucas(d):
        out.append(f"outer count {count_outer} != Lucas L_{d} = {lucas(d)}")
    if count_inner > count_outer:
        out.append(f"inner {count_inner} > outer {count_outer}")
    return out


def variational_row(d, unf_inner, unf_outer, fil_inner, fil_outer) -> list:
    out = []
    if fil_inner > unf_inner or fil_outer > unf_outer:
        out.append("filtered count exceeds unfiltered count")
    if unf_inner > unf_outer or fil_inner > fil_outer:
        out.append("inner count exceeds outer count")
    expected = VARIATIONAL_COUNTS.get(d)
    if expected is None:
        out.append(f"no pinned counts for d={d}")
    elif (unf_outer, fil_outer) != expected:
        out.append(f"(unfiltered, filtered) = ({unf_outer}, {fil_outer}) != {expected}")
    return out


def hard_square_row(n, count) -> list:
    expected = HARD_SQUARE_COUNTS.get(n)
    if expected is None:
        return [f"no published count for n={n}"]
    if count != expected:
        return [f"count {count} != A006506({n}) = {expected}"]
    return []


# bundled specs --------------------------------------------------------------


def _csv_rows(text: str) -> list:
    """Rows of an artifact CSV as dicts keyed by column name (header comments skipped)."""
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _outer_rows_present(rows, column) -> list:
    # a budget cut is written as a -inf row with zero counts (no genuinely
    # empty outer set occurs in the bundled specs)
    return [f"row {i}: {column} is -inf (budget cut)"
            for i, r in enumerate(rows) if float(r[column]) == -math.inf]


def _language(files):
    rows = _csv_rows(files["language.csv"])
    summary = json.loads(files["language_summary.json"])
    want = fibonacci(summary["window_size"] + 2)
    out = []
    if len(rows) != want or summary["count"] != want:
        out.append(f"language count {len(rows)}/{summary['count']} != F_{summary['window_size'] + 2} = {want}")
    return out


def _amenable(files):
    out = []
    for r in _csv_rows(files["amenable.csv"]):
        n = int(r["n"])
        if int(r["count"]) != fibonacci(n + 2):
            out.append(f"n={n}: count {r['count']} != F_{n + 2} = {fibonacci(n + 2)}")
    return out


def _compare(files):
    out = []
    if json.loads(files["compare_report.json"]).get("ok") is not True:
        out.append("compare verdict is not ok")
    rows = _csv_rows(files["compare.csv"])
    out += _outer_rows_present(rows, "value_sofic_outer")
    out += [f"n={r['n']}: bound_ok is {r['bound_ok']}" for r in rows if r["bound_ok"] != "1"]
    return out


def _fullshift_trace(files):
    rows = _csv_rows(files["trace.csv"])
    out = _outer_rows_present(rows, "value_outer")
    for r in rows:
        d = int(r["d"])
        if int(r["count_outer"]) != 2 ** d:
            out.append(f"d={d}: outer count {r['count_outer']} != 2^{d}")
        if int(r["count_inner"]) > int(r["count_outer"]):
            out.append(f"d={d}: inner exceeds outer")
    return out


def _fullshift_microstates(files):
    out = []
    for r in _csv_rows(files["microstates.csv"]):
        d = int(r["d"])
        if int(r["m_outer"]) != 2 ** d or int(r["n_outer"]) != 2 ** d:
            out.append(f"d={d}: outer counts {r['m_outer']}/{r['n_outer']} != 2^{d}")
        if int(r["m_inner"]) > int(r["m_outer"]) or int(r["n_inner"]) > int(r["n_outer"]):
            out.append(f"d={d}: inner exceeds outer")
    return out


def _fullshift_variational(files):
    out = []
    if json.loads(files["variational_report.json"]).get("ok") is not True:
        out.append("variational verdict is not ok")
    for r in _csv_rows(files["variational.csv"]):
        d = int(r["d"])
        if int(r["count_unfiltered_outer"]) != 2 ** d:
            out.append(f"d={d}: unfiltered outer {r['count_unfiltered_outer']} != 2^{d}")
        if int(r["count_filtered_outer"]) > int(r["count_unfiltered_outer"]):
            out.append(f"d={d}: filtered exceeds unfiltered")
        if r["ordered_ok"] != "1":
            out.append(f"d={d}: ordered_ok is {r['ordered_ok']}")
    return out


def _tile(files):
    if json.loads(files["tiling.json"])["verification"]["all_ok"] is not True:
        return ["tiling verification is not ok"]
    return []


def _pairs(files):
    results = json.loads(files["pairs.json"])["results"]
    # the two origin cylinders of the full shift give the origin partition,
    # whose entropy is log 2 at every stage
    return [f"pair {r['pair']}: value {r['value']} != log 2"
            for r in results if not math.isclose(r["value"], math.log(2))]


def _partition_bound(files):
    rows = _csv_rows(files["partition_bound.csv"])
    out = []
    for r in rows:
        # p = (1/2, 1/2) with eta = 0.01 pins the first cell to exactly half
        if int(r["count"]) != math.comb(int(r["lam_size"]), int(r["lam_size"]) // 2):
            out.append(f"count {r['count']} != C(lam, lam/2)")
        if r["holds"] != "1":
            out.append("entropy bound does not hold")
    return out


def _defects(files):
    rows = _csv_rows(files["defects.csv"])
    return [] if len(rows) == 12 else [f"{len(rows)} defect rows, expected 4 stages x 3 pairs"]


# artifact checks by spec prefix; keys of ``files`` are the artifact names
# with the prefix and its underscore removed
SPEC_CHECKS = {
    "goldenmean_language": _language,
    "goldenmean_amenable": _amenable,
    "goldenmean_compare": _compare,
    "goldenmean_defects": _defects,
    "fullshift_sofic_trace": _fullshift_trace,
    "fullshift_microstates": _fullshift_microstates,
    "fullshift_variational": _fullshift_variational,
    "fullshift_pairs": _pairs,
    "cyclic_tile": _tile,
    "partition_bound": _partition_bound,
}


def spec_artifacts(prefix: str, exit_code: int, files: dict) -> list:
    if exit_code != 0:
        return [f"cli.run exit code {exit_code}"]
    check = SPEC_CHECKS.get(prefix)
    if check is None:
        return [f"no oracle for spec {prefix}"]
    try:
        return check(files)
    except KeyError as exc:
        return [f"missing artifact or column {exc}"]

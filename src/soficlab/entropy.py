"""Finite-stage entropy quantities and the checkers built on them.

Every value here is a finite-stage report: (1/d) log of an exact count at
one stage of a sofic approximation sequence, or (1/|F_n|) log / Shannon
entropy along a Folner sequence.  Running maxima stand in for the limsup
of the definitions; nothing is extrapolated.  Zero counts carry the -inf
sentinel, which only ever enters comparisons, never arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .covers import (Cover, _cover_entropy, _cover_masses, _entropy, _heaviest_count,
                     _leading_fields_eq, _partial_cover_count, _pullback_cells, _weights,
                     cylinder_complement_cover, min_subcover, pullback_iterate)
from .errors import ArgumentError, ResourceBudgetError
from .groups import folner_set
from ._frontier import _stage_cap
from .microstates import MeasureFilter, _held_plan, count_microstates, counting_method
from .symbolic import SymbolicSystem, Window, as_fraction

NEG_INF = float("-inf")


def stage_value(count: int, d: int) -> float:
    """(1/d) log count in nats, with log 0 = -inf."""
    if count < 0:
        raise ArgumentError("counts cannot be negative")
    if count == 0:
        return NEG_INF
    return log_big(count) / d


def log_big(n: int) -> float:
    """Natural log of a (possibly huge) positive integer: math.log takes
    ints of any size."""
    if n <= 0:
        raise ArgumentError("log of non-positive count")
    return math.log(n)


class TraceRow(NamedTuple):
    stage: int
    d: int
    count_inner: int
    count_outer: int
    value_inner: float
    value_outer: float
    incomplete: bool = False
    method: str = "scan"  # "dp" or "scan", see count_microstates; left out of == and hash

    __eq__, __ne__, __hash__ = _leading_fields_eq(7)


class EntropyTrace(NamedTuple):
    kind: str
    F: tuple
    delta: Fraction
    rows: list
    log_cover_count: float = 0.0  # log N(U, X) on the cover window

    @property
    def running_max_outer(self) -> float:
        vals = [r.value_outer for r in self.rows if not r.incomplete]
        return max(vals) if vals else NEG_INF


def _exact_count(result) -> int:
    """The count of a MinCoverResult; a greedy upper bound is a budget cut."""
    if not result.exact:
        raise ResourceBudgetError("minimal subcover search budget exceeded",
                                  upper_bound=result.count)
    return result.count


def _counting_order(system, window, F, delta, maps):
    """The stage indices of maps at delta in the order they are counted:
    integer cap descending, and within one cap d ascending (ties in input
    order).  The cap needs the comparison plan's scale, not the language.

    At one delta the cap is nondecreasing in d, and a stage runs through
    the automaton a longer one left at a larger cap, so the top cap
    determinises once and serves every lower one.  A stage at the held cap
    resumes the longest one before it there (_Automaton.tail), so a cap's
    stages are counted shortest first.  Each stage counts and charges what
    it does on a fresh system, so the order shows in no row.
    """
    if len(maps) < 2:  # nothing to order, so no plan to build
        return range(len(maps))
    plan = _held_plan(system, window, F)
    return sorted(range(len(maps)),
                  key=lambda stage: (-_stage_cap(plan, delta, maps[stage].d), maps[stage].d))


def _trace(kind, system, cover, F, delta, maps, window, measure_filter, budget):
    delta = as_fraction(delta)
    n_cover = _exact_count(min_subcover(cover))
    maps = list(maps)
    rows = [None] * len(maps)
    for stage in _counting_order(system, window, F, delta, maps):
        sigma = maps[stage]
        method = counting_method(cover)
        try:
            counts, _ = count_microstates(system, F, delta, sigma, window, cover,
                                          measure_filter=measure_filter, budget=budget)
            ci, co = counts.n_inner, counts.n_outer
            row = TraceRow(stage, sigma.d, ci, co,
                           stage_value(ci, sigma.d), stage_value(co, sigma.d), method=method)
            if ci > co:
                raise ArgumentError("inner count exceeded outer count (bug)")
            if co > n_cover ** sigma.d:
                raise ArgumentError("count exceeded N(U,X)^d (bug)")
        except ResourceBudgetError:
            row = TraceRow(stage, sigma.d, 0, 0, NEG_INF, NEG_INF, incomplete=True,
                           method=method)
        rows[stage] = row
    return EntropyTrace(kind, tuple(F), delta, rows,
                        log_big(n_cover) if n_cover else NEG_INF)


def sofic_topological_trace(system: SymbolicSystem, cover: Cover, F, delta,
                            maps, window: Window, budget=2_000_000) -> EntropyTrace:
    """Per-stage (1/d_i) log N(U^{d_i}, microstates) in both certified modes."""
    return _trace("sofic-topological", system, cover, F, delta, maps, window,
                  None, budget)


def sofic_measure_trace(system: SymbolicSystem, cover: Cover, measure, L, F,
                        delta, maps, window: Window, budget=2_000_000) -> EntropyTrace:
    """Measure-filtered variant; L empty reduces to the topological trace."""
    delta = as_fraction(delta)
    mf = MeasureFilter.build(measure, L, delta) if L else None
    return _trace("sofic-measure", system, cover, F, delta, maps, window, mf, budget)


class AmenableRow(NamedTuple):
    n: int
    size: int  # |F_n|
    count: int  # N(U_{F_n}, X) for topological rows, 0 for measure rows
    entropy: float  # log count, or H_mu(V_{F_n})
    value: float  # normalized by |F_n|
    method: str  # "transfer" or "enumeration": the path that counted N(V_{F_n}, X)
    b_nu: int | None = None  # b_nu(F_n, a, V) on measure rows traced with a


class AmenableTrace(NamedTuple):
    kind: str
    rows: list

    @property
    def final_value(self) -> float:
        return self.rows[-1].value if self.rows else NEG_INF


def amenable_topological_trace(system: SymbolicSystem, cover: Cover, ns,
                               budget=500_000) -> AmenableTrace:
    """(1/|F_n|) log N(U_{F_n}, X) along the box Folner sequence.

    When every cell of U is a single pattern on W, the cells of U_{F_n} are
    the patterns on F_n W, so N(U_{F_n}, X) = |L(F_n W)|, which
    SymbolicSystem.count_language counts under budget * 10 nodes, on every
    group ("transfer").  Every other cover joins the pullbacks and counts a
    minimal subcover ("enumeration").  Values live in [0, log N(U, X)]; the
    count-level form of the upper bound, N(U_{F_n}, X) <= N(U, X)^{|F_n|},
    is asserted exactly.
    """
    group = system.group
    n_cover = _exact_count(min_subcover(cover, budget=budget))
    single = all(len(e) == 1 for e in cover.elements)
    trace = AmenableTrace("amenable-topological", [])
    for n in ns:
        F = folner_set(group, n)
        window = system.window(group.multiply(w, g) for g in F for w in cover.window.elements)
        if single:
            count, method = system.count_language(window, budget * 10), "transfer"
        else:
            vf = pullback_iterate(cover, F, budget=budget)
            count, method = _exact_count(min_subcover(vf, budget=budget)), "enumeration"
        if count > n_cover ** len(F):
            raise ArgumentError("N(U_F, X) exceeded N(U, X)^|F| (bug)")
        trace.rows.append(AmenableRow(n, len(F), count,
                                      log_big(count) if count else NEG_INF,
                                      stage_value(count, len(F)), method))
    return trace


def amenable_measure_trace(system: SymbolicSystem, cover: Cover, measure, ns,
                           budget=500_000, a=None) -> AmenableTrace:
    """(1/|F_n|) H_mu(V_{F_n}) along the box Folner sequence.

    Rows also carry N(V_{F_n}, X) in the count column, so the trace dumps
    as (F, N(V_F, X), H_mu(V_F), value).  Values live in [0, log |V|].
    Given a, each row also carries b_nu(F_n, a, V).  One ``masses`` sweep
    per stage gives the cylinder masses that H_mu and b_nu both read.  When
    V is a partition so is V_{F_n}: the stage reads its cells' masses once
    and takes N as their number, H_mu as their Shannon entropy and b_nu in
    closed form (covers._heaviest_count).  Other covers are joined, and
    N and b_nu searched, on the pulled-back cover.
    """
    trace = AmenableTrace("amenable-measure", [])
    bound = math.log(len(cover))
    for n in ns:
        F = folner_set(system.group, n)
        if cover.is_partition:
            window, cells = _pullback_cells(cover, F, budget)
            mass_of, den = measure.masses(window, system.language_values(window))
            weights = _weights(mass_of, cells)
            count, h = len(cells), _entropy(weights, den)
            b_nu = None if a is None else _heaviest_count(weights, den, a)
        else:
            vf = pullback_iterate(cover, F, budget=budget)
            count = _exact_count(min_subcover(vf, budget=budget))
            mass_of, den = _cover_masses(measure, vf)
            h = _cover_entropy(mass_of, den, vf, budget).value
            b_nu = None if a is None else _partial_cover_count(mass_of, den, vf, a, budget)
        value = h / len(F)
        if not -1e-12 <= value <= bound + 1e-9:
            raise ArgumentError("measure trace value escaped [0, log |V|] (bug)")
        trace.rows.append(AmenableRow(n, len(F), count, h, value, "enumeration", b_nu))
    return trace


# dominant measure selection ----------------------------------------------------


class DominantMeasureResult(NamedTuple):
    winner_index: int
    winner_count: int
    unfiltered_count: int
    bound: int  # ceil(unfiltered / |D|)
    counts: tuple
    net_ok: bool
    # up to five empirical vectors near no candidate, in the order the
    # outer counting DP meets them
    uncovered: tuple


def select_dominant_measure(system: SymbolicSystem, cover: Cover, candidates, L, F, delta,
                            sigma, window: Window, filter_delta, require_net: bool = True,
                            budget=2_000_000) -> DominantMeasureResult:
    """Pick the candidate measure whose filtered count dominates.

    One count of the stage's outer microstates (F, delta, sigma on window)
    gives N(U^d, .) of the whole set and of the part within filter_delta of
    each candidate nu on L.  One outer counting DP on the same stage
    validates the net condition (every microstate's empirical vector lies
    within filter_delta of some candidate's expectations); with a covering
    net the winner provably satisfies count >= ceil(unfiltered / |D|).
    uncovered holds the empirical vectors (1/d) sum_i f(x_i), f in L, of up
    to five microstates no candidate keeps, in the order that DP meets
    them, read off its filter sums (TupleCounts.unmatched_sums).
    """
    if not candidates:
        raise ArgumentError("need at least one candidate measure")
    L = tuple(L)
    filters = [MeasureFilter.build(nu, L, filter_delta) for nu in candidates]
    total, filtered = count_microstates(system, F, delta, sigma, window, cover,
                                        filters=filters, budget=budget)
    # a microstate is near a candidate exactly when it passes that candidate's
    # filter: |(1/d) sum_i f(x_i) - nu(f)| < filter_delta for every f in L
    # every filter tests the same L, so the first filter's sums serve
    sizes = total.tuples("outer")
    uncovered = [tuple(float(s / sigma.d) for s in sums[0]) for sums in sizes.unmatched_sums]
    net_ok = not sizes.unmatched
    if require_net and not net_ok:
        raise ArgumentError(
            f"net condition violated: empirical vector {uncovered[0]} "
            f"is not within filter_delta of any candidate"
        )

    unfiltered = total.n_outer
    counts = [c.n_outer for c in filtered]
    winner = max(range(len(candidates)), key=lambda i: (counts[i], -i))
    bound = -(-unfiltered // len(candidates))  # ceil division
    if net_ok and counts[winner] < bound:
        raise ArgumentError("pigeonhole bound failed despite covering net (bug)")
    return DominantMeasureResult(
        winner_index=winner,
        winner_count=counts[winner],
        unfiltered_count=unfiltered,
        bound=bound,
        counts=tuple(counts),
        net_ok=net_ok,
        uncovered=tuple(uncovered),
    )


# partition counting bound -------------------------------------------------------


class PartitionCountResult(NamedTuple):
    count: int
    log_count: float
    log_bound: float  # |Lambda| (H(p) + 2 eps)
    holds: bool


def partition_bound_arguments(lam_size, p, eta, eps):
    """Yield partition_count_bound's arguments in order, checked and exact:
    lam_size >= 1, p positive and summing to 1, 0 < eta < min p_k, eps > 0.
    A bad one raises ArgumentError in place of its value, so a caller that
    takes the values one by one knows which argument failed."""
    if lam_size < 1:
        raise ArgumentError("lam_size must be >= 1")
    yield lam_size
    probs = [as_fraction(x) for x in p]
    if any(q <= 0 for q in probs):
        raise ArgumentError("probabilities must be strictly positive")
    if sum(probs) != 1:
        raise ArgumentError("probabilities must sum to exactly 1")
    yield probs
    eta = as_fraction(eta)
    if not 0 < eta < min(probs):
        raise ArgumentError("eta must satisfy 0 < eta < min p_k")
    yield eta
    eps = as_fraction(eps)
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    yield eps


def partition_count_bound(lam_size: int, p, eta, eps) -> PartitionCountResult:
    """Exact count of proportion-pinned labelled partitions vs the entropy bound.

    Counts partitions (gamma_1, ..., gamma_n, rest) of a lam_size-point set
    with | |gamma_k|/lam - p_k | < eta for every k, by exact multinomial
    summation in big integers, and compares log count against
    lam (H(p) + 2 eps).
    """
    lam_size, probs, eta, eps = partition_bound_arguments(lam_size, p, eta, eps)
    ranges = []
    for q in probs:
        lo_f = lam_size * (q - eta)
        hi_f = lam_size * (q + eta)
        lo = math.floor(lo_f) + 1 if lo_f == math.floor(lo_f) else math.ceil(lo_f)
        hi = math.ceil(hi_f) - 1 if hi_f == math.ceil(hi_f) else math.floor(hi_f)
        lo = max(lo, 0)
        ranges.append((lo, hi))

    total = 0

    def rec(k, used, partial):
        nonlocal total
        if k == len(ranges):
            total += partial  # remainder goes to the (n+1)-th cell
            return
        lo, hi = ranges[k]
        for a in range(lo, min(hi, lam_size - used) + 1):
            rec(k + 1, used + a, partial * math.comb(lam_size - used, a))

    try:
        rec(0, 0, 1)
    finally:
        del rec  # rec reaches itself through its closure: break the cycle
    entropy = -sum(float(q) * math.log(q) for q in probs)
    log_bound = lam_size * (entropy + 2 * float(eps))
    log_count = log_big(total) if total else NEG_INF
    return PartitionCountResult(total, log_count, log_bound, log_count <= log_bound)


# variational and agreement checkers ----------------------------------------------


class VariationalRow(NamedTuple):
    measure_label: str
    delta: Fraction
    stage: int
    d: int
    count_unfiltered_inner: int
    count_unfiltered_outer: int
    count_filtered_inner: int
    count_filtered_outer: int
    ordered_ok: bool
    gap_outer: float


class VariationalReport(NamedTuple):
    rows: list
    ok: bool

    def worst_gap(self):
        gaps = [r.gap_outer for r in self.rows if r.gap_outer == r.gap_outer]
        return max(gaps) if gaps else 0.0


def check_variational(system: SymbolicSystem, cover: Cover, measures, L, F,
                      deltas, maps, window: Window, budget=2_000_000) -> VariationalReport:
    """Assert the finite-stage variational inequality on a (F, delta) grid.

    For every stage, measure and delta the filtered counts never exceed the
    unfiltered ones (exact integer comparison, both certification modes).
    measures is a list of (label, measure) pairs; the same L filters each.
    Rows come per delta, stage and measure in input order.  A stage cut by
    the budget raises ResourceBudgetError naming its d and delta: the first
    such stage in input order, though the stages are counted in another
    (_counting_order).
    """
    maps = list(maps)
    rows = []
    ok = True
    for delta in deltas:
        delta = as_fraction(delta)
        filters = [MeasureFilter.build(mu, L, delta) for _, mu in measures]
        counted = {}  # stage -> (n_inner, n_outer) unfiltered, then per measure
        cut = None  # (stage, error) of the first stage in input order cut so far
        for stage in _counting_order(system, window, F, delta, maps):
            if cut is not None and stage > cut[0]:
                continue  # a stage before it raises first
            try:
                unfiltered, filtered = count_microstates(system, F, delta, maps[stage], window,
                                                         cover, filters=filters, budget=budget)
            except ResourceBudgetError as exc:
                cut = stage, exc
                continue
            counted[stage] = [(c.n_inner, c.n_outer) for c in (unfiltered, *filtered)]
        if cut is not None:
            stage, exc = cut
            raise ResourceBudgetError(f"stage d={maps[stage].d}, delta={float(delta)}: {exc}",
                                      upper_bound=exc.upper_bound) from exc
        for stage, sigma in enumerate(maps):
            (cui, cuo), *filtered = counted[stage]
            for (label, mu), (cfi, cfo) in zip(measures, filtered):
                ordered = cfi <= cui and cfo <= cuo
                ok = ok and ordered
                vu = stage_value(cuo, sigma.d)
                vf = stage_value(cfo, sigma.d)
                if vu == NEG_INF and vf == NEG_INF:
                    gap = 0.0
                elif vf == NEG_INF:
                    gap = math.inf
                else:
                    gap = vu - vf
                rows.append(VariationalRow(label, delta, stage, sigma.d,
                                           cui, cuo, cfi, cfo, ordered, gap))
    return VariationalReport(rows=rows, ok=ok)


class AgreementRow(NamedTuple):
    n: int
    d: int
    delta: Fraction
    value_sofic_inner: float
    value_sofic_outer: float
    value_amenable: float
    gap: float  # |outer sofic - amenable|
    bound_ok: bool  # sofic <= amenable + slack, on a complete sofic row
    incomplete: bool = False  # the sofic stage ran out of budget


class AgreementReport(NamedTuple):
    rows: list
    ok: bool
    slack_used: dict


def default_agreement_slack(d: int) -> float:
    """0.05 nats once d >= 12; looser at the very small stages."""
    return 0.05 if d >= 12 else 0.12


def check_amenable_agreement(system: SymbolicSystem, cover: Cover, ns, sigma_builder,
                             deltas, F, window: Window, measure=None, L=(),
                             slack=default_agreement_slack,
                             budget=2_000_000) -> AgreementReport:
    """Compare finite-stage sofic values against the amenable values at
    matched scale (d = |F_n|) and assert sofic <= amenable + slack.

    A sofic stage cut by the budget gives an incomplete row that fails the
    bound, so a cut never counts as agreement.
    """
    slack_fn = slack if callable(slack) else (lambda d: slack)
    rows = []
    slack_used = {}
    ok = True
    for n in ns:
        Fn = folner_set(system.group, n)
        d = len(Fn)
        sigma = sigma_builder(n)
        if sigma.d != d:
            raise ArgumentError("sigma_builder must match |F_n| for matched scale")
        if measure is None:
            am = amenable_topological_trace(system, cover, [n], budget=budget)
        else:
            am = amenable_measure_trace(system, cover, measure, [n], budget=budget)
        value_am = am.rows[-1].value
        for delta in deltas:
            delta = as_fraction(delta)
            if measure is None:
                tr = sofic_topological_trace(system, cover, F, delta, [sigma],
                                             window, budget=budget)
            else:
                tr = sofic_measure_trace(system, cover, measure, L, F, delta,
                                         [sigma], window, budget=budget)
            row = tr.rows[-1]
            s = slack_fn(d)
            slack_used[(n, delta)] = s
            vo = row.value_outer
            gap = abs(vo - value_am) if vo != NEG_INF else math.inf
            bound_ok = not row.incomplete and (vo == NEG_INF or vo <= value_am + s)
            ok = ok and bound_ok
            rows.append(AgreementRow(n, d, delta, row.value_inner, vo,
                                     value_am, gap, bound_ok, row.incomplete))
    return AgreementReport(rows=rows, ok=ok, slack_used=slack_used)


# entropy pair scan ---------------------------------------------------------------


class PairScanRow(NamedTuple):
    pair_label: str
    value: float
    positive: bool


class PairScanReport(NamedTuple):
    rows: list
    threshold: float
    note: str = "numerical evidence, not a certificate"


def entropy_pair_scan(system: SymbolicSystem, candidate_pairs, threshold: float,
                      n_stage: int, budget=500_000) -> PairScanReport:
    """Finite-stage scan for entropy pairs.

    Each candidate pair of disjoint cylinder patterns induces the cover by
    their complements; the reported value is the amenable finite-stage
    entropy of that cover at window size n_stage.  Values above threshold
    are flagged as numerical evidence for an entropy pair.
    """
    rows = []
    for p1, p2 in candidate_pairs:
        cov = cylinder_complement_cover(system, [p1, p2])
        label = f"{''.join(map(str, p1.values))}|{''.join(map(str, p2.values))}"
        if len(cov) == 1:
            value = 0.0
        else:
            tr = amenable_topological_trace(system, cov, [n_stage], budget=budget)
            value = tr.rows[-1].value
        rows.append(PairScanRow(label, value, value > threshold))
    return PairScanReport(rows=rows, threshold=threshold)

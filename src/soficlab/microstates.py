"""Counts of the finite model spaces behind the sofic entropy counts.

A microstate is a d-tuple of admissible window patterns that is
approximately equivariant under a sofic map sigma on a finite set F to
tolerance delta, in the averaged-l2 sense

    max_{s in F} sqrt( (1/d) sum_i rho^2(s . x_i, x_{sigma_s(i)}) ) < delta.

Window truncation makes exact membership undecidable, so sets come in two
certified modes: 'outer' uses the lower distance bound (a superset of the
true set), 'inner' uses the upper bound (a subset).  All comparisons are
exact: dyadic weights are rescaled to integers, delta is read as a decimal
literal, and the strict < of the definition is preserved bit-for-bit.

count_microstates counts a stage on the step plan of soficlab._frontier:
the frontier DP for a partition cover, which visits no tuple, and for a
general cover a depth-first scan of the same steps (_scan), whose key rows
_CoverKeys counts.

The cover counts N are what the entropy traces read; the sizes m only
the microstates task, and the net check of select_dominant_measure only
the unmatched count.  So a count holds N alone, and its sizes are one
explicit call, MicrostateCounts.tuples, which runs a counting DP on the
stage's _FrontierDP whichever path counted N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from ._frontier import _FrontierDP, _PackedSums, _scan
from .errors import ArgumentError, ResourceBudgetError
from .symbolic import Pattern, SymbolicSystem, Window, as_fraction
from .covers import Cover, exact_min_cover, undominated

DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class MeasureFilter:
    """Empirical-average filter: |(1/d) sum_i f(x_i) - mu(f)| < delta per f."""

    measure: object
    functions: tuple
    delta: Fraction

    @classmethod
    def build(cls, measure, functions, delta):
        return cls(measure, tuple(functions), as_fraction(delta))


class ComparisonPlan:
    """Precomputed per-shift comparison data for one (window, F) pair.

    For each s in F the comparison window is W_s = {g in W : g s in W};
    the pair list holds (weight, source index of g s, target index of g).
    """

    def __init__(self, system: SymbolicSystem, window: Window, F):
        group = system.group
        self.system = system
        self.window = window
        self.shifts = _shifts(group, F)
        if not self.shifts:
            raise ArgumentError("F must be non-empty")
        denom = 1
        for w in window.weights:
            denom = denom * w.denominator // math.gcd(denom, w.denominator)
        total = system.weights.total
        denom = denom * total.denominator // math.gcd(denom, total.denominator)
        self.scale = denom  # all lo and tail values times scale are integers
        self.pairs = []
        self.tails = []
        for s in self.shifts:
            pairs = []
            mass = Fraction(0)
            for g in window.elements:
                gs = group.multiply(g, s)
                if gs in window.index:
                    w = window.weights[window.index[g]]
                    pairs.append((int(w * denom), window.index[gs], window.index[g]))
                    mass += w
            if not pairs:
                raise ArgumentError(
                    f"window too small for shift {group.element_name(s)}: "
                    "enlarge W so that W and W s overlap"
                )
            self.pairs.append(tuple(pairs))
            self.tails.append(int((total - mass) * denom))

    def distances(self, p_values, q_values, s_index):
        """(lo, hi) scaled by self.scale for rho(s . p, q) on W_s."""
        lo = 0
        for w, src, dst in self.pairs[s_index]:
            if p_values[src] != q_values[dst]:
                lo += w
        return lo, lo + self.tails[s_index]


def _shifts(group, F) -> tuple:
    """F's elements in the group's enumeration order."""
    return tuple(sorted((group.coerce(g) for g in F), key=group.enumeration_key))


def zero_defect_delta(system: SymbolicSystem, window: Window, F, d: int) -> Fraction:
    """A delta small enough that no single coordinate mismatch survives.

    With this tolerance the enumerated (outer) set consists exactly of the
    tuples with perfect pattern agreement along every sigma_s overlap: the
    lightest possible mismatch already violates the averaged-l2 bound.
    """
    plan = ComparisonPlan(system, window, F)
    min_w = min(w for pairs in plan.pairs for (w, _, _) in pairs)
    # d * delta^2 <= (min_w/scale)^2 guarantees the cut; halve for margin
    return Fraction(min_w, 2 * d * plan.scale)


@dataclass(frozen=True)
class _ScaledFunction:
    """One test function of a measure filter, rescaled to integers.

    values[c] is f on language pattern c times scale, the common
    denominator of the f-values and of the bounds.  A tuple passes when lo
    < sum of its values < hi, i.e. d (mu(f) - delta) < sum_i f(x_i) < d
    (mu(f) + delta).
    """

    values: tuple
    lo: int
    hi: int
    scale: int


def _filter_tables(window, lang, measure_filter, d):
    """The filter's test functions as integer tables over the window language."""
    from .symbolic import integrate

    tables = []
    for f in measure_filter.functions:
        for g in f.window.elements:
            if g not in window.index:
                raise ArgumentError(
                    f"test function {f.label} needs coordinates outside the window"
                )
        proj = [window.index[g] for g in f.window.elements]
        mu_f = integrate(measure_filter.measure, f)
        exact = [f(tuple(v[i] for i in proj)) for v in lang]
        bounds = [d * (mu_f - measure_filter.delta), d * (mu_f + measure_filter.delta)]
        scale = math.lcm(*(q.denominator for q in exact + bounds))
        lo, hi = (int(q * scale) for q in bounds)
        tables.append(_ScaledFunction(tuple(int(q * scale) for q in exact), lo, hi, scale))
    return tables


class _CoverKeys:
    """How one cover reads the microstates over one window language.

    table[c] is the key of language pattern c: the cell holding it for a
    partition, c itself for a general cover.  N(U^d, .) of a microstate set
    is read off the set of its key rows by count().
    """

    def __init__(self, window, lang, cover: Cover):
        for g in cover.window.elements:
            if g not in window.index:
                raise ArgumentError("cover window must sit inside the microstate window")
        proj = [window.index[g] for g in cover.window.elements]
        self.cover = cover
        self.patterns = [tuple(v[i] for i in proj) for v in lang]
        if not cover.is_partition:
            self.table = range(len(lang))
            return
        owner = cover.cell_of
        try:
            self.table = tuple(map(owner.__getitem__, self.patterns))
        except KeyError as exc:
            raise ArgumentError(f"microstate pattern uncovered: {exc}") from exc

    def count(self, keys, budget: int, spent: int = 0):
        """(N(U^d, .), search nodes) for the microstates whose key rows form
        the set keys, under a budget of which spent is used up.

        A partition's key rows are the cell signatures, so the count is their
        number; a general cover reduces per coordinate to maximal elements,
        builds the product cover family (at most budget sets) and runs the
        exact set-cover search over the sorted rows in the budget - spent
        nodes left.
        """
        if self.cover.is_partition or not keys:
            return len(keys), 0
        restricted = [tuple(map(self.patterns.__getitem__, r)) for r in sorted(keys)]
        d = len(restricted[0])
        occurring = [frozenset(t[j] for t in restricted) for j in range(d)]
        per_position = []
        for j in range(d):
            views = [e & occurring[j] for e in self.cover.elements]
            maximal = [views[i] for i in undominated(views)]
            if not maximal:
                raise ArgumentError(f"coordinate {j} has uncovered patterns")
            per_position.append(maximal)

        n_products = 1
        for options in per_position:
            n_products *= len(options)
            if n_products > budget:
                raise ResourceBudgetError(
                    f"product cover family too large (> {budget})"
                )
        universe = frozenset(range(len(restricted)))
        candidate_sets = []
        for views in itertools.product(*per_position):
            covered = frozenset(
                k for k, t in enumerate(restricted)
                if all(t[j] in views[j] for j in range(d))
            )
            if covered:
                candidate_sets.append(covered)
        result = exact_min_cover(candidate_sets, universe, budget=budget - spent)
        if not result.exact:
            raise ResourceBudgetError("count_cover search budget exceeded",
                                      upper_bound=result.count)
        return result.count, result.nodes


def _stage(system, F, delta, sigma, window):
    """Validated delta, comparison plan and window language of one stage.
    The plan is kept on the system, keyed by window and shifts as its
    penalty tables are, so the stages of a trace build it once."""
    delta = as_fraction(delta)
    if delta <= 0:
        raise ArgumentError("delta must be positive")
    shifts = _shifts(system.group, F)
    key = (ComparisonPlan, window.elements, shifts)
    plan = system._penalty_cache.get(key)
    if plan is None:
        plan = system._penalty_cache[key] = ComparisonPlan(system, window, shifts)
    return delta, plan, system.language_values(window)


class TupleCounts(NamedTuple):
    """Sizes of one stage's microstate set in one certified mode.

    m counts the set and filtered[k] its part that also passes filters[k].
    unmatched counts its microstates that pass none of the filters, and
    unmatched_sums holds the filter sums of up to five of them, repeats
    allowed, in the order the counting DP meets them: per filter, sum_i
    f(x_i) for each of its test functions, as exact Fractions.  The sizes
    of a filtered count hold its own m only.
    """

    m: int
    filtered: tuple
    unmatched: int
    unmatched_sums: tuple


@dataclass(frozen=True)
class MicrostateCounts:
    """Cover counts N(U^d, .) of one stage's microstate set, in both
    certified modes.  method names the path that counted them: "dp" for the
    frontier DP, "scan" for the tuple scan.  _source holds what tuples reads:
    the stage's _FrontierDP, its _PackedSums and the tally of these counts
    (0 unfiltered, k + 1 for filters[k]), or None for a stage with no
    window pattern, whose sizes are all 0 and filtered empty.
    """

    n_inner: int
    n_outer: int
    method: str = field(default="scan", compare=False)
    _source: tuple = field(default=None, compare=False, repr=False)

    def tuples(self, mode: str) -> TupleCounts:
        """The sizes of the set in mode ("inner" or "outer"), from one
        counting DP (_FrontierDP.sequences) on the stage, on every cover.
        It is charged to the budget the cover counts charged, so it can
        raise ResourceBudgetError."""
        if mode not in ("inner", "outer"):
            raise ArgumentError(f"unknown mode {mode!r}")
        if self._source is None:
            return TupleCounts(0, (), 0, ())
        dp, packing, tally = self._source
        per_tally, unmatched, sums = dp.sequences(mode == "inner", packing)
        if tally:
            return TupleCounts(per_tally[tally], (), 0, ())
        return TupleCounts(per_tally[0], tuple(per_tally[1:]), unmatched, sums)


def count_microstates(system: SymbolicSystem, F, delta, sigma, window: Window,
                      cover: Cover, measure_filter: MeasureFilter = None, filters=(),
                      budget: int = DEFAULT_NODE_BUDGET):
    """Cover counts of one stage's microstate sets, in both certified modes.

    The set holds the d-tuples of window patterns within delta of sigma on
    F (passing measure_filter too, when one is given: it prunes the count).
    Returns (counts, filtered), where filtered[k] counts the part of the set
    that also passes filters[k].  Their sizes m are read with tuples.

    Both paths walk the steps of one _FrontierDP.  A partition cover takes
    the frontier DP (method "dp"), which never visits a tuple.  A general
    cover takes one streaming scan of those steps (method "scan", see
    _scan): each microstate reaches the counter as language indices, its
    key row is the tuple of the indices themselves, and only the set of
    key rows is kept.  The counts are read off those sets once the scan
    ends.  Both paths decide every filter on the same packed integer sums
    (_PackedSums).  The whole stage, the general cover's set-cover searches
    and any later tuples call included, runs under one budget: each part
    gets what the parts before it left, and ResourceBudgetError is raised
    when it runs out.
    """
    delta, plan, lang = _stage(system, F, delta, sigma, window)
    method = counting_method(cover)
    if not lang:
        empty = MicrostateCounts(0, 0, method)
        return empty, (empty,) * len(filters)
    d = sigma.d
    keys = _CoverKeys(window, lang, cover)
    prune = _filter_tables(window, lang, measure_filter, d) if measure_filter is not None else []
    tables = [_filter_tables(window, lang, f, d) for f in filters]
    dp = _FrontierDP(plan, lang, delta, sigma, keys.table, budget)
    packing = _PackedSums(prune, tables, d, len(lang))
    found = _by_dp(dp, prune, tables) if cover.is_partition else _by_scan(dp, packing, keys)
    counts = [MicrostateCounts(n_inner, n_outer, method, (dp, packing, k))
              for k, (n_inner, n_outer) in enumerate(found)]
    return counts[0], tuple(counts[1:])


def _by_dp(dp, prune, tables):
    """Per tally, (n_inner, n_outer) from the signature DPs.  One tallies
    the unfiltered counts and every filter whose tables are constant on
    cells; a filter holding any other table takes a run of its own."""
    beside = [all(map(dp.on_cells, own)) for own in tables]
    shared = iter(dp.signatures(prune, [own for own, ok in zip(tables, beside) if ok]))
    return [next(shared)] + [next(shared) if ok else dp.signatures(prune + own)[0]
                             for own, ok in zip(tables, beside)]


def _by_scan(dp, packing, keys):
    """Per tally, (n_inner, n_outer) from one scan of dp's steps, which
    keeps each tally's inner and outer key rows; dp.spent is left at the
    nodes the scan and the set-cover searches used."""
    tallies = [(set(), set()) for _ in range(len(packing.filters) + 1)]  # unfiltered first
    keeping = {}  # packed sums -> the tallies a microstate with them enters

    def leaf(indices, inner_ok, packed):
        kept = keeping.get(packed)
        if kept is None:
            kept = keeping[packed] = [tallies[0]] + [
                t for t, ok in zip(tallies[1:], packing.passed(packed)) if ok]
        for inner, outer in kept:
            outer.add(indices)  # a general cover's key row is the index row
            if inner_ok:
                inner.add(indices)

    dp.spent = _scan(dp, packing, leaf)

    def cover_count(rows):
        n, nodes = keys.count(rows, dp.budget, dp.spent)
        dp.spent += nodes
        return n

    return [(cover_count(inner), cover_count(outer)) for inner, outer in tallies]


def counting_method(cover: Cover) -> str:
    """The path count_microstates takes on a stage: "dp" (the frontier DP)
    for a partition cover, "scan" (the tuple scan) for a general cover.
    Only the cover decides: the DP counts every partition stage, on every
    group, F and sigma."""
    return "dp" if cover.is_partition else "scan"


# test oracles ---------------------------------------------------------------------
#
# The materialised path: enumerate the tuples, filter them, count the
# cover over their index rows.  Nothing in soficlab computes a result
# through it; the tests check the streaming scan against it.


@dataclass
class MicrostateSet:
    """The microstates of one stage in one certified mode, as value tuples."""

    system: SymbolicSystem
    window: Window
    d: int
    tuples: tuple  # each microstate is a tuple of d value-tuples

    def __len__(self):
        return len(self.tuples)

    @cached_property
    def rows(self) -> tuple:
        """Each microstate as a tuple of indices into the window language."""
        index = {v: c for c, v in enumerate(self.system.language_values(self.window))}
        return tuple(tuple(map(index.__getitem__, t)) for t in self.tuples)


def microstate_check(system: SymbolicSystem, patterns, F, delta, sigma,
                     window: Window = None, mode: str = "outer",
                     plan: ComparisonPlan = None) -> bool:
    """Decide the averaged-l2 equivariance test for one tuple, exactly."""
    values = [p.values if isinstance(p, Pattern) else tuple(p) for p in patterns]
    if window is None:
        window = patterns[0].window
    if plan is None:
        plan = ComparisonPlan(system, window, F)
    if mode not in ("inner", "outer"):
        raise ArgumentError(f"unknown mode {mode!r}")
    d = len(values)
    delta = as_fraction(delta)
    # sum_i dist^2 < d delta^2, with dist scaled by plan.scale
    threshold = d * delta * delta * plan.scale * plan.scale
    for s_index, s in enumerate(plan.shifts):
        perm = sigma.image_array(s)
        total = 0
        for i in range(d):
            lo, hi = plan.distances(values[i], values[perm[i]], s_index)
            dist = lo if mode == "outer" else hi
            total += dist * dist
        if not Fraction(total) < threshold:
            return False
    return True


def enumerate_microstates_both(system: SymbolicSystem, F, delta, sigma,
                               window: Window,
                               measure_filter: MeasureFilter = None,
                               strategy: str = "pruned",
                               budget: int = DEFAULT_NODE_BUDGET):
    """The certified-inner and certified-outer sets of one stage, sorted.

    strategy 'pruned' runs the scan behind count_microstates; 'naive'
    checks every tuple of the full product space.
    """
    if strategy not in ("pruned", "naive"):
        raise ArgumentError(f"unknown strategy {strategy!r}")
    delta, plan, lang = _stage(system, F, delta, sigma, window)
    inner_out = []
    outer_out = []
    if lang:
        prune = (_filter_tables(window, lang, measure_filter, sigma.d)
                 if measure_filter is not None else [])

        def leaf(indices, inner_ok, _packed):
            t = tuple(map(lang.__getitem__, indices))
            outer_out.append(t)
            if inner_ok:
                inner_out.append(t)

        packing = _PackedSums(prune, [], sigma.d, len(lang))
        if strategy == "naive":
            _naive_scan(plan, lang, delta, sigma, packing, leaf, budget)
        else:
            _scan(_FrontierDP(plan, lang, delta, sigma, range(len(lang)), budget), packing, leaf)
        inner_out.sort()
        outer_out.sort()
    return (MicrostateSet(system, window, sigma.d, tuple(inner_out)),
            MicrostateSet(system, window, sigma.d, tuple(outer_out)))


def _naive_scan(plan, lang, delta, sigma, packing, leaf, budget):
    """_scan by checking each of the len(lang)^d tuples in full.

    The penalties come from plan.distances, memoised here, and each sum is
    compared with the exact threshold d delta^2 scale^2.  The filter is
    checked on packing.required's tables directly, not on packed sums, and
    leaf gets None for them.
    """
    d = sigma.d
    if len(lang) ** d > budget:
        raise ResourceBudgetError(f"naive scan of {len(lang)}^{d} tuples exceeds budget")
    threshold = d * delta * delta * plan.scale * plan.scale
    perms = [sigma.image_array(s) for s in plan.shifts]
    squares = {}  # (shift index, p, q) -> (lo^2, hi^2)
    for combo in itertools.product(range(len(lang)), repeat=d):
        sums_out = [0] * len(perms)
        sums_in = [0] * len(perms)
        for s_index, perm in enumerate(perms):
            for i in range(d):
                key = (s_index, combo[i], combo[perm[i]])
                if key not in squares:
                    lo, hi = plan.distances(lang[key[1]], lang[key[2]], s_index)
                    squares[key] = lo * lo, hi * hi
                lo2, hi2 = squares[key]
                sums_out[s_index] += lo2
                sums_in[s_index] += hi2
        if all(v < threshold for v in sums_out) and _passes(packing.required, combo):
            leaf(combo, all(v < threshold for v in sums_in), None)


def _passes(tables, indices) -> bool:
    """Whether a tuple of language indices passes every filter table."""
    return all(t.lo < sum(map(t.values.__getitem__, indices)) < t.hi for t in tables)


def filter_microstates(M: MicrostateSet, measure_filter: MeasureFilter) -> MicrostateSet:
    """Apply the empirical-average filter to an already enumerated set."""
    tables = _filter_tables(M.window, M.system.language_values(M.window),
                            measure_filter, M.d)
    kept = tuple(t for t, indices in zip(M.tuples, M.rows) if _passes(tables, indices))
    return MicrostateSet(M.system, M.window, M.d, kept)


def count_cover(M: MicrostateSet, cover: Cover, budget: int = 250_000) -> int:
    """N(U^d, M): minimal number of product cells U_{i_1} x ... x U_{i_d}
    covering the microstate set, counted as count_microstates counts it.
    """
    if not M.tuples:
        return 0
    keys = _CoverKeys(M.window, M.system.language_values(M.window), cover)
    return keys.count({tuple(map(keys.table.__getitem__, r)) for r in M.rows}, budget)[0]

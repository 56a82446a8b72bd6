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

count_microstates counts a stage by one of two paths over one step plan,
_FrontierDP's.  A microstate's penalty is a sum of edge terms over the
sigma-graph, one sum per shift, so the points can be placed one at a time
along a greedy elimination order (after Dechter 1999).  A partition cover
takes the frontier DP, whatever the group, F and sigma: equal partial maps
merge (min-plus determinisation of a weighted automaton, after Mohri
1997), and no tuple is visited.  A general cover takes the same steps
without merging, as a depth-first scan of the tuples.  Both paths read
one penalty table per shift, compare with one integer cap, and carry a
measure filter's sums as one packed int (_PackedSums).  The DP carries
the sums of a table constant on cells beside its maps, not in their
keys, so one DP run counts the unfiltered tally and every filter of that
kind, and keeps its successor memo.  A map is held as rows, the entries
that agree on the frontier digits a step neither reads nor moves (on a
cycle, point 0's pattern), and successors are built once per distinct
row.  On a cycle that memo depends on neither d nor delta, only on the
integer cap, and the map a prefix reaches under one cap fixes its map
under every smaller cap.  So the system keeps the memo across stages, a
stage no longer than one the memo has finished runs through it under its
larger cap, and a trace counted longest first determinises the cycle
about once.

The cover counts N are what the entropy traces read; the tuple counts m
only the microstates task.  The scan gets m for free, but on the DP path
m takes two counting DPs of their own, so they run only when m (or the
unmatched count) is read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import ArgumentError, ResourceBudgetError
from .symbolic import Pattern, SymbolicSystem, Window, as_fraction
from .covers import Cover, exact_min_cover, undominated

DEFAULT_NODE_BUDGET = 2_000_000
_SHOWN = 5  # the unmatched microstates whose filter sums a count reports


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
        self.shifts = tuple(
            sorted((group.coerce(g) for g in F), key=group.enumeration_key)
        )
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
    """Validated delta, comparison plan and window language of one stage."""
    delta = as_fraction(delta)
    if delta <= 0:
        raise ArgumentError("delta must be positive")
    return delta, ComparisonPlan(system, window, F), system.language_values(window)


class MicrostateCounts:
    """Sizes m and cover counts N(U^d, .) of one stage's microstate sets.

    On the unfiltered counts of count_microstates, unmatched is the number
    of outer microstates that pass none of its filters, and unmatched_sums
    holds the filter sums of up to five of them, repeats allowed, in the
    order the counting path meets them: per filter, sum_i f(x_i) for each
    of its test functions, as exact Fractions.  method names that path:
    "dp" for the frontier DP, "scan" for the tuple scan.

    n_inner and n_outer are counted with the object.  On the DP path m and
    unmatched are counted on first read, under the budget of the call that
    made the object, so reading them can raise ResourceBudgetError.
    Equality and hashing take (m_inner, m_outer, n_inner, n_outer), so they
    read m; method, unmatched and unmatched_sums take no part.  repr shows
    m and unmatched only once they have been read, so it never runs a DP.
    """

    __slots__ = ("n_inner", "n_outer", "method", "_sizes", "_tally")

    def __init__(self, m_inner, m_outer, n_inner, n_outer, unmatched=0,
                 unmatched_sums=(), method="scan"):
        self.n_inner, self.n_outer, self.method = n_inner, n_outer, method
        self._sizes = _Sizes((m_inner,), (m_outer,), (unmatched,), (unmatched_sums,))
        self._tally = 0

    @classmethod
    def _read_later(cls, sizes, tally, n_inner, n_outer, method):
        """Counts whose m and unmatched are tally's entries of sizes."""
        self = cls.__new__(cls)
        self.n_inner, self.n_outer, self.method = n_inner, n_outer, method
        self._sizes, self._tally = sizes, tally
        return self

    m_inner = property(lambda self: self._sizes.m_inner[self._tally])
    m_outer = property(lambda self: self._sizes.m_outer[self._tally])
    unmatched = property(lambda self: self._sizes.unmatched[self._tally])
    unmatched_sums = property(lambda self: self._sizes.unmatched_sums[self._tally])

    def _key(self):
        return self.m_inner, self.m_outer, self.n_inner, self.n_outer

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ("m_inner", "m_outer", "n_inner", "n_outer", "unmatched", "unmatched_sums",
                  "method")
        return "MicrostateCounts({})".format(", ".join(
            f"{name}={getattr(self, name)!r}" for name in fields
            if name in ("n_inner", "n_outer", "method") or self._sizes.known(name)))


class _Sizes(NamedTuple):
    """m and unmatched per tally, the unfiltered tally first: reading any
    field counts nothing, so known holds for every name."""

    m_inner: tuple
    m_outer: tuple
    unmatched: tuple
    unmatched_sums: tuple

    def known(self, name):
        return True


class _DPSizes:
    """_Sizes of every tally of one DP stage, each DP run on first read.

    The outer counting DP gives m_outer, unmatched and unmatched_sums, the
    inner one m_inner.  Both run on the stage's _FrontierDP, so they charge
    the budget the signatures charged; a cut raises at the read and is not
    kept.
    """

    def __init__(self, dp, packing):
        self.dp, self.packing = dp, packing

    @cached_property
    def _outer(self):
        per_tally, unmatched, sums = self.dp.sequences(False, self.packing)
        rest = len(per_tally) - 1
        return per_tally, (unmatched,) + (0,) * rest, (sums,) + ((),) * rest

    m_outer = property(lambda self: self._outer[0])
    unmatched = property(lambda self: self._outer[1])
    unmatched_sums = property(lambda self: self._outer[2])

    @cached_property
    def m_inner(self):
        return self.dp.sequences(True, self.packing)[0]

    def known(self, name):
        """Whether field name has been counted, so reading it runs no DP."""
        return (name if name == "m_inner" else "_outer") in self.__dict__


class _Tally:
    """Running counts of the microstates passing one filter."""

    __slots__ = ("m_inner", "m_outer", "inner", "outer")

    def __init__(self):
        self.m_inner = self.m_outer = 0
        self.inner = set()  # key rows
        self.outer = set()

    def counts(self, cover_count, **unmatched) -> MicrostateCounts:
        return MicrostateCounts(self.m_inner, self.m_outer, cover_count(self.inner),
                                cover_count(self.outer), **unmatched)


def count_microstates(system: SymbolicSystem, F, delta, sigma, window: Window,
                      cover: Cover, measure_filter: MeasureFilter = None, filters=(),
                      budget: int = DEFAULT_NODE_BUDGET):
    """Counts of one stage's microstate sets, in both certified modes.

    The set holds the d-tuples of window patterns within delta of sigma on
    F (passing measure_filter too, when one is given: it prunes the count).
    Returns (counts, filtered), where filtered[k] counts the part of the set
    that also passes filters[k], and counts reports the outer microstates
    that pass none of filters.

    Both paths walk the steps of one _FrontierDP.  A partition cover takes
    the frontier DP (method "dp"), which never visits a tuple.  A general
    cover takes one streaming scan of those steps (method "scan", see
    _scan): each microstate reaches the counter as language indices, its
    key row is the tuple of the indices themselves, and only the set of
    key rows is kept.  The counts are read off those
    sets once the scan ends.  Both paths decide every filter on the same
    packed integer sums (_PackedSums).  The whole stage, the general
    cover's set-cover searches included, runs under one budget: each search
    gets the nodes the scan and the searches before it left, and
    ResourceBudgetError is raised when it runs out.  On the DP path m and
    unmatched are counted when first read and charged to the same budget,
    so that read can raise it too (see MicrostateCounts).
    """
    delta, plan, lang = _stage(system, F, delta, sigma, window)
    if not lang:
        empty = MicrostateCounts(0, 0, 0, 0, method=counting_method(cover))
        return empty, (empty,) * len(filters)
    d = sigma.d
    keys = _CoverKeys(window, lang, cover)
    prune = _filter_tables(window, lang, measure_filter, d) if measure_filter is not None else []
    tables = [_filter_tables(window, lang, f, d) for f in filters]
    dp = _FrontierDP(plan, lang, delta, sigma, keys.table, budget)
    if cover.is_partition:
        return _count_by_dp(dp, prune, tables)
    packing = _PackedSums(prune, tables, d, len(lang))
    tallies = [_Tally() for _ in range(len(tables) + 1)]  # the unfiltered tally first
    keeping = {}  # packed sums -> the tallies a microstate with them enters
    unmatched_sums = []
    n_unmatched = 0

    def leaf(indices, inner_ok, packed):
        nonlocal n_unmatched
        kept = keeping.get(packed)
        if kept is None:
            kept = keeping[packed] = [tallies[0]] + [
                t for t, ok in zip(tallies[1:], packing.passed(packed)) if ok]
        for tally in kept:
            tally.m_outer += 1
            tally.outer.add(indices)  # a general cover's key row is the index row
            if inner_ok:
                tally.m_inner += 1
                tally.inner.add(indices)
        if len(kept) == 1:  # only the unfiltered tally: no filter keeps it
            n_unmatched += 1
            if n_unmatched <= _SHOWN:
                unmatched_sums.append(packing.exact(packed))

    spent = _scan(dp, packing, leaf)

    def cover_count(rows):
        nonlocal spent
        n, nodes = keys.count(rows, budget, spent)
        spent += nodes
        return n

    return (tallies[0].counts(cover_count, unmatched=n_unmatched,
                              unmatched_sums=tuple(unmatched_sums)),
            tuple(t.counts(cover_count) for t in tallies[1:]))


def _count_by_dp(dp, prune, tables):
    """count_microstates' result from the frontier DP: the signature DPs now,
    the counting DPs behind m when a caller reads m.  One signature DP
    tallies the unfiltered counts and every filter whose tables are constant
    on cells; a filter holding any other table takes a run of its own."""
    sizes = _DPSizes(dp, _PackedSums(prune, tables, dp.d, dp.n))
    beside = [all(map(dp.on_cells, own)) for own in tables]
    shared = iter(dp.signatures(prune, [own for own, ok in zip(tables, beside) if ok]))
    found = [next(shared)] + [next(shared) if ok else dp.signatures(prune + own)[0]
                              for own, ok in zip(tables, beside)]
    counts = [MicrostateCounts._read_later(sizes, k, n_inner, n_outer, "dp")
              for k, (n_inner, n_outer) in enumerate(found)]
    return counts[0], tuple(counts[1:])


def _scan(dp, packing, leaf) -> int:
    """Call leaf(indices, inner_ok, packed) on every certified-outer
    microstate of dp's stage that passes packing.required; return the nodes
    visited.

    indices is the microstate as a tuple of language indices in position
    order, inner_ok says whether it is also certified-inner, and packed is
    its packed filter sums.  The scan is the frontier DP without merging: a
    depth first walk of dp.steps, placing one point a step.  A step tries
    its lead term's candidates cheapest first, so it breaks out as soon as
    the cheapest left would reach dp.cap, scores its other terms, and the
    leaf scores dp.closing.  Every candidate tried is one node of
    dp.budget.  A partial tuple is dropped as soon as no completion can
    pass packing.required.
    """
    d, cap, budget = dp.d, dp.cap, dp.budget
    required, feasible, increment = packing.required, packing.feasible, packing.increment
    everything = (tuple(range(dp.n)),)  # one cell: every pattern

    def resolve(terms, frontier):  # per term: shift, partner point (d: a loop's), rows
        return [(s, d if slot is None else frontier[slot],
                 dp.tables[s].matrix(kind, False), dp.tables[s].matrix(kind, True))
                for s, slot, kind in terms]

    plan = []  # per step: point, lead shift, its partner, its candidates, other terms
    frontier = []
    for step in dp.steps:
        if step.terms:
            s0, slot0, kind0 = step.terms[0]
            lead = [cells[0] for cells in dp.tables[s0].candidates(kind0, everything)]
            partner0 = d if slot0 is None else frontier[slot0]
        else:  # no term: every pattern costs nothing
            s0, partner0, lead = 0, d, [[(0, 0, x) for x in everything[0]]]
        plan.append((step.point, s0, partner0, lead, resolve(step.terms[1:], frontier)))
        frontier = [frontier[j] for j in step.keep] + [step.point] * step.stays
    closing = resolve(dp.closing, frontier)
    last = dp.steps[-1].point
    assign = [0] * (d + 1)  # each point's pattern, then a loop's partner 0
    nodes = 0

    def rec(k, packed, outs, ins):
        nonlocal nodes
        if k == d:
            x = assign[last]
            for s, y, lo, hi in closing:
                outs[s] += lo[assign[y]][x]
                ins[s] += hi[assign[y]][x]
            if max(outs) < cap:
                leaf(tuple(assign[:d]), max(ins) < cap, packed)
            return
        point, s0, partner0, lead, terms = plan[k]
        for plo, phi, x in lead[assign[partner0]]:
            nodes += 1
            if nodes > budget:
                raise ResourceBudgetError("microstate enumeration budget exceeded")
            if outs[s0] + plo >= cap:
                break  # candidates are sorted: all later ones bust too
            assign[point] = x
            nouts, nins = outs[:], ins[:]
            nouts[s0] += plo
            nins[s0] += phi
            for s, y, lo, hi in terms:
                nouts[s] += lo[assign[y]][x]
                nins[s] += hi[assign[y]][x]
            if max(nouts) >= cap:
                continue
            nxt = packed + increment[x]
            if not required or feasible(nxt, k + 1):
                rec(k + 1, nxt, nouts, nins)

    try:
        rec(0, 0, [0] * len(dp.tables), [0] * len(dp.tables))
    finally:
        del rec  # rec reaches itself through its closure: break the cycle
    return nodes


# frontier DP ----------------------------------------------------------------------


def counting_method(cover: Cover) -> str:
    """The path count_microstates takes on a stage: "dp" (the frontier DP)
    for a partition cover, "scan" (the tuple scan) for a general cover.
    Only the cover decides: the DP counts every partition stage, on every
    group, F and sigma."""
    return "dp" if cover.is_partition else "scan"


_FWD, _BWD, _LOOP = 0, 1, 2  # a term's penalty: pen(y, x), pen(x, y), pen(x, x)
_AUTOMATON = "successors"  # the penalty cache's key of the kept successor memos


class _PenaltyTable:
    """One shift's penalties over one window language, kept on the system.

    lo[p][q] and hi[p][q] are lo^2 and hi^2 of rho(s . lang[p], lang[q])
    scaled by the plan's scale, the only penalties the DPs and the scan
    read.  A term between a new pattern x and a placed partner y reads them
    by kind: _FWD pen(y, x) (the edge y -> x), _BWD pen(x, y), and _LOOP
    pen(x, x), whose only partner is 0.  The views below are built on first
    use and kept with the table.
    """

    def __init__(self, plan, lang, s_index):
        rows = [[plan.distances(p, q, s_index) for q in lang] for p in lang]
        self.lo = [[lo * lo for lo, _ in row] for row in rows]
        self.hi = [[hi * hi for _, hi in row] for row in rows]
        self._views = {}

    def matrix(self, kind, inner):
        """M[y][x]: the penalty of a kind term (hi^2 if inner, else lo^2)."""
        key = (kind, inner)
        hit = self._views.get(key)
        if hit is None:
            pen = self.hi if inner else self.lo
            if kind == _FWD:
                hit = pen
            elif kind == _BWD:
                hit = [list(column) for column in zip(*pen)]
            else:
                hit = [[row[x] for x, row in enumerate(pen)]]
            self._views[key] = hit
        return hit

    def candidates(self, kind, cells):
        """C[y][c]: cell c's patterns x as (lo^2, hi^2, x), cheapest first."""
        key = (kind, cells)
        hit = self._views.get(key)
        if hit is None:
            hit = self._views[key] = [
                [sorted((lo[x], hi[x], x) for x in cell) for cell in cells]
                for lo, hi in zip(self.matrix(kind, False), self.matrix(kind, True))]
        return hit

    def ordered(self, kind, inner):
        """O[y]: every pattern x as (penalty, x), cheapest first; only the
        counting DPs read these."""
        key = (kind, inner, "ordered")
        hit = self._views.get(key)
        if hit is None:
            hit = self._views[key] = [sorted((p, x) for x, p in enumerate(row))
                                      for row in self.matrix(kind, inner)]
        return hit


def _penalty_table(plan, lang, s_index) -> _PenaltyTable:
    """The system's penalty table for the plan's window and shift s_index."""
    cache = plan.system._penalty_cache
    key = (plan.window.elements, plan.shifts[s_index])
    table = cache.get(key)
    if table is None:
        table = cache[key] = _PenaltyTable(plan, lang, s_index)
    return table


class _Step(NamedTuple):
    """Placing one point.  The frontier before the step holds width points
    in slot order; keep lists the slots still on it after the step, which
    come first, followed by the point itself when it stays (has an unplaced
    neighbour).  terms lists (shift index, slot or None, kind), one per
    sigma-edge between the point and a placed point or itself."""

    point: int
    width: int
    keep: tuple
    stays: bool
    terms: tuple

    @property
    def kind(self):
        """Everything a step's transition reads: equal kinds, equal maps."""
        return self.width, self.keep, self.stays, self.terms


def _placement(images, d, prefer_closed=False):
    """The frontier DP's steps: every point of sigma once, in order.

    The sigma-graph joins i and sigma_s(i) for each shift s; a placed point
    with an unplaced neighbour is on the frontier.  Each step places the
    point that leaves the frontier smallest (greedy elimination, after
    Dechter 1999).  Ties go, if prefer_closed, to the point with the most
    placed neighbours, then to a neighbour of the latest placed point,
    images sigma_s(u) before preimages and shifts in order, then to the
    least index.  On a single cycle this is 0, sigma(0), sigma^2(0), ...

    Returns (steps, closing).  When the last point has several terms, its
    step scores only the first and keeps the other terms' partners on the
    frontier, followed by the point; closing lists those other terms as
    (shift index, partner slot or None, kind) on that final frontier, to
    be scored on the final maps.  So the last step is like the ones before
    it (on a cycle it is one of them), and its successors can be looked up.
    """
    nbrs = [[] for _ in range(d)]  # images first, then preimages
    preimages = [[[] for _ in range(d)] for _ in images]
    for perm, pre in zip(images, preimages):
        for i, j in enumerate(perm):
            if i != j:
                nbrs[i].append(j)
                pre[j].append(i)
    for pre in preimages:
        for j, us in enumerate(pre):
            nbrs[j].extend(us)
    distinct = [tuple(dict.fromkeys(a)) for a in nbrs]
    unplaced = [set(a) for a in nbrs]  # each point's unplaced neighbours
    placed = [False] * d
    touched = [-1] * d  # the latest step that placed a neighbour of each point
    adjacent = set()  # the unplaced points with a placed neighbour
    isolated = iter([v for v in range(d) if not nbrs[v]])
    next_isolated = next(isolated, None)
    lowest = 0  # no unplaced point with a neighbour lies below it
    frontier = []  # the placed points with an unplaced neighbour, in slot order
    slot = {}  # frontier point -> its slot
    steps = []
    closing = ()
    for count in range(d):
        candidates = adjacent
        if not adjacent:
            while lowest < d and (placed[lowest] or not nbrs[lowest]):
                lowest += 1
            candidates = [lowest] if lowest < d else []
        # rank: (frontier growth, -placed neighbours if prefer_closed,
        # -latest touch, order among the latest's neighbours, index)
        best = None if next_isolated is None else (0, 0, 1, 0, next_isolated)
        for v in candidates:
            grow = 1 if unplaced[v] else 0
            for u in distinct[v]:
                if placed[u] and len(unplaced[u]) == 1:
                    grow -= 1  # v is u's last unplaced neighbour
            if best is None or grow <= best[0]:
                t = touched[v]
                rank = (grow, -sum(placed[u] for u in distinct[v]) if prefer_closed else 0, -t,
                        nbrs[steps[t].point].index(v) if t >= 0 else 0, v)
                if best is None or rank < best:
                    best = rank
        v = best[-1]
        placed[v] = True
        if v == next_isolated:
            next_isolated = next(isolated, None)
        terms = []
        for s, pre in enumerate(preimages):
            for u in pre[v]:
                if u in slot:
                    terms.append((s, slot[u], _FWD))
        for s, perm in enumerate(images):
            if perm[v] == v:
                terms.append((s, None, _LOOP))
            elif perm[v] in slot:
                terms.append((s, slot[perm[v]], _BWD))
        for u in nbrs[v]:
            unplaced[u].discard(v)
            touched[u] = count
        adjacent.discard(v)
        adjacent.update(unplaced[v])
        keep = tuple([j for j, u in enumerate(frontier) if unplaced[u]])
        stays = bool(unplaced[v])
        if count == d - 1 and len(terms) > 1:  # defer all terms but the lead
            keep = tuple(sorted({j for _, j, _ in terms[1:] if j is not None}))
            closing = tuple((s, None if j is None else keep.index(j), kind)
                            for s, j, kind in terms[1:])
            terms, stays = terms[:1], True
        steps.append(_Step(v, len(frontier), keep, stays, tuple(terms)))
        frontier = [frontier[j] for j in keep]
        if stays:
            frontier.append(v)
        slot = {u: j for j, u in enumerate(frontier)}
    return steps, closing


class _Context(NamedTuple):
    """What _FrontierDP._successors reads for one kind of step."""

    before: int  # n^width before the step
    after: int  # and after it
    runs: list  # blocks of kept slots, see _FrontierDP._layout
    kinc: list  # per pattern, the key increment of placing it
    s0: int  # the lead term's shift index
    div0: int  # and the divisor of its partner's digit
    lead: list  # per partner pattern, per cell: candidates, cheapest first
    extra: list  # the other terms, as by _FrontierDP._rows
    feasible: object  # the required tables' check, or None
    several: bool  # several shifts: Pareto entries
    decoded: object  # a memo of decoded keys, or None for one per row
    cap: int  # the cap the run's maps are built under
    passive: tuple  # n^slot per passive slot, see _FrontierDP.signatures


class _Automaton:
    """The successor memos a system holds for one window, shifts and cells
    on a narrow plan: kinds maps a step kind to (rows, maps), every row's
    and map's successors under cap met so far, canonical holds each equal
    row and map as one object, regrouped maps (passive, map) to the map
    regrouped for those passive slots, and projections per smaller cap a
    row to its projection.  reach is the largest d of a stage that ran all
    its steps through them, 0 until one has."""

    __slots__ = ("cap", "reach", "kinds", "canonical", "regrouped", "projections")

    def __init__(self, cap):
        self.cap, self.reach, self.kinds, self.canonical = cap, 0, {}, {}
        self.regrouped, self.projections = {}, {}


class _FrontierDP:
    """The counts of one stage with a partition cover, on any group, and
    the step plan, penalty tables, cap and budget that _scan walks for a
    general cover (whose cells are the single patterns).

    A microstate's penalty in shift s is the sum over the points i of
    pen_s(x_i, x_{sigma_s(i)}), with lo^2 for outer and hi^2 for inner, and
    an integer penalty sum passes when it is below cap.  The points are
    placed one at a time (_placement).  A term is scored when the later of
    its two points is placed, a self-loop when its point is, except that the
    last point scores its other terms on the final maps.  The patterns
    on the frontier, read as base-n digits, form one int code, and a state
    key packs it with the sums of the filter tables kept in the keys: code
    + n^width * sums.  Filter sums are carried exactly as integers;
    required tables (the pruning filter, and in the signature DP a
    filter's own tables when it takes a run of its own) drop a partial
    sequence as soon as no completion can pass them.  The signature DP
    keeps the sums of tables constant on cells beside its maps instead
    (see signatures).
    """

    def __init__(self, plan, lang, delta, sigma, table, budget):
        threshold = sigma.d * delta * delta * plan.scale * plan.scale
        self.cap = -(-threshold.numerator // threshold.denominator)  # s < cap: passes
        self.n = n = len(lang)
        self.d = sigma.d
        self.tables = [_penalty_table(plan, lang, k) for k in range(len(plan.shifts))]
        self.cells = tuple(tuple(c for c in range(n) if table[c] == key)
                           for key in dict.fromkeys(table))
        images = [sigma.image_array(s) for s in plan.shifts]
        self.steps, self.closing = _placement(images, sigma.d)
        self.narrow = max(step.width for step in self.steps) <= 2  # as a cycle's
        if not self.narrow:
            # keep the order whose frontiers can hold fewer codes in all
            other = _placement(images, sigma.d, prefer_closed=True)
            if sum(n ** step.width for step in other[0]) < sum(
                    n ** step.width for step in self.steps):
                self.steps, self.closing = other
        self.budget = budget
        self.spent = 0
        self._cache = plan.system._penalty_cache
        self._key = (plan.window.elements, plan.shifts, self.cells)

    def spend(self, live):
        """Charge one step: the states it extends times the language size."""
        self.spent += live * self.n
        if self.spent > self.budget:
            raise ResourceBudgetError("merged-state DP budget exceeded")

    def _automaton(self):
        """The _Automaton of this stage's window, shifts and cells that the
        system holds, which its steps then run through.  A held automaton
        serves the stage when its cap is the stage's, or when it is larger
        and the automaton has finished a stage at least as long (reach >=
        d), whose maps then project onto the stage's (see signatures).
        Otherwise the stage replaces it with an empty one at its own cap."""
        automata = self._cache.setdefault(_AUTOMATON, {})
        held = automata.get(self._key)
        if held is None or held.cap < self.cap or held.cap > self.cap and held.reach < self.d:
            held = automata[self._key] = _Automaton(self.cap)
        return held

    def _layout(self, step, increment):
        """How one step rewrites state keys: (n^width before, n^width after,
        runs, kinc).  A run (divisor, modulus, weight) moves a block of kept
        slots: code // divisor % modulus * weight is its part of the new
        code.  kinc[x] is the key increment of placing pattern x: its filter
        sums, and its own digit when the point stays."""
        n = self.n
        runs = []
        for pos, j in enumerate(step.keep):
            if runs and step.keep[pos - 1] == j - 1:
                div, mod, weight = runs[-1]
                runs[-1] = (div, mod * n, weight)
            else:
                runs.append((n ** j, n, n ** pos))
        after = n ** (len(step.keep) + step.stays)
        own = n ** len(step.keep) if step.stays else 0
        return (n ** step.width, after, runs,
                [inc * after + x * own for x, inc in enumerate(increment)])

    def _rows(self, terms, width, inner=None):
        """Per term (shift index, slot or None, kind) on a frontier of width
        slots: (shift index, divisor, rows), where the partner's pattern is
        code // divisor % n (0 for a loop) and rows[partner][x] the term's
        penalty, lo^2 and hi^2 as a pair of rows if inner is None."""
        out = []
        for s, slot, kind in terms:
            table = self.tables[s]
            rows = ((table.matrix(kind, False), table.matrix(kind, True)) if inner is None
                    else table.matrix(kind, inner))
            out.append((s, self.n ** (width if slot is None else slot), rows))
        return out

    def on_cells(self, table):
        """Whether table takes one value on each cell, so that a sequence's
        sum is fixed by its cells (as an origin-site indicator's is under
        origin_partition)."""
        values = table.values
        return all(len({values[x] for x in cell}) == 1 for cell in self.cells)

    def signatures(self, required, filters=()):
        """Per tally, (n_inner, n_outer): how many cell sequences some
        microstate passing every table of required realises, in each
        certified mode.  Tally 0 counts those, tally k + 1 those that also
        pass filters[k], every table of which must be constant on cells.

        After a prefix of placed points, what the rest can still do depends
        only on one map: state key -> least penalties over the prefix's
        realisations.  With one shift that is (least lo^2 sum, least hi^2
        sum), entries at or above cap dropped and hi capped at cap; with
        several, the Pareto-least vectors of per-shift lo^2 sums and of
        per-shift hi^2 sums below cap, since outer and inner each ask one
        existence question.  Prefixes with equal maps merge and carry their
        multiplicity; only equal maps merge, so the counts are exact.

        A table constant on cells (on_cells) has its sums fixed by the cell
        sequence, so they ride beside the maps: each map carries {beside
        sums: multiplicity}, a successor under cell c advances them by c's
        increment, a required one is checked once per (map, sums) pair, and
        the tallies are read off the final pairs.  With no such table a
        multiplicity is a plain int.  A required table that is not constant
        on cells stays in the entry keys (code + n^width * sums) and is
        decided on the count of placed points.

        A slot is passive for a step kind when the step keeps it in place
        and no term reads it (a cycle's point 0 on its middle steps).  A map
        is held as (passive code, row) pairs, a row holding the entries that
        share those digits, with the digits cleared from its keys; so a
        row's successors (_successors) need not know the passive code, and
        a map's are its rows' at their codes (_joined).  Maps are regrouped
        when the passive slots change (_regroup).  Successors depend only on
        the step's kind and the cap unless a table stays in the keys.
        Without one, each row's and each live map's successors are built
        once per run of equal kinds and looked up after, equal rows and maps
        held as one object; with one, they are rebuilt at every step.  A
        wider plan keeps only the live maps' successors, nothing past the
        run.

        On a plan whose frontiers hold at most two points, as a cycle's do,
        every row's and map's successors are kept on the system (_automaton)
        and outlive the stage.  The map a prefix reaches under a cap C fixes
        its map under every cap c <= C: drop the entries with lo >= c and
        cap hi at c, or with several shifts drop the vectors whose max is >=
        c (_projected, row by row).  That projection commutes with the
        successors, the sums beside the maps do not read the cap, and
        _accepts reads only the stage's own cap, so a stage runs its steps
        under the held automaton's cap when that is larger and the automaton
        has finished a stage at least as long.  It then drops the maps whose
        projection is empty, and each step still charges the distinct
        projections of its live maps: the live maps of the run under its own
        cap, so no charge depends on what the system held before.  A trace
        counted longest first so determinises about once.
        """
        d, n = self.d, self.n
        keyed = _PackedSums([t for t in required if not self.on_cells(t)], [], d, n)
        beside = _PackedSums([t for t in required if self.on_cells(t)], filters, d, n)
        moves = [beside.increment[cell[0]] for cell in self.cells]
        feasible = beside.feasible if beside.required else None
        plain = not (beside.required or filters)  # a multiplicity is an int
        several = len(self.tables) > 1
        self._values = {}  # with several shifts: one object per equal entry value
        start = ((0,) * len(self.tables),)
        entry = (0, (start, start) if several else (0, 0))
        states = {frozenset({(0, frozenset({entry}))}): 1 if plain else {0: 1}}
        self.spend(len(self.cells))  # the first step starts one map per cell
        held = self._automaton() if self.narrow and not keyed.required else None
        cap = self.cap if held is None else held.cap  # the cap the maps are built under
        # row -> its projection onto self.cap, kept per cap on the held automaton
        projections = held.projections.setdefault(self.cap, {}) if cap > self.cap else None
        kind, passive, canonical = None, (), {} if held is None else held.canonical
        store = not keyed.required  # else successors read count: nothing is kept
        for count, step in enumerate(self.steps, 1):
            if step.kind != kind:
                kind, ctx = step.kind, self._context(step, keyed, several, cap)
                # row -> its successors, map -> its successors: the held
                # automaton's, else this run's
                rows, memo = ({}, {}) if held is None else held.kinds.setdefault(kind, ({}, {}))
                if ctx.passive != passive:
                    passive = ctx.passive
                    states = {self._regroup(state, passive, canonical, held): m
                              for state, m in states.items()}
            if count > 1:
                self.spend(len(states) if projections is None
                           else self._project(states, projections, several))
            merged = {}
            for state, multiplicity in states.items():
                joined = memo.get(state)
                if joined is None:
                    joined = self._joined(ctx, state, count, rows if store else {}, canonical)
                    if store:
                        memo[state] = joined
                if plain:
                    for _, nxt in joined:
                        merged[nxt] = merged.get(nxt, 0) + multiplicity
                    continue
                for cell, nxt in joined:
                    move, bucket = moves[cell], merged.get(nxt)
                    for sums, m in multiplicity.items():
                        sums += move
                        if feasible is None or feasible(sums, count):
                            if bucket is None:
                                bucket = merged[nxt] = {}
                            bucket[sums] = bucket.get(sums, 0) + m
            if held is None:  # keep only the live maps' successors
                memo = {s: memo[s] for s in merged if s in memo}
                rows, canonical = {}, {}
            states = merged
        if held is not None:
            held.reach = max(held.reach, self.d)
        closing = self._closing()
        realised = {}  # beside sums -> [inner, outer] cell sequences with them
        for state, multiplicity in states.items():
            inner, outer = self._accepts(state, closing, several)
            if outer:
                for sums, m in [(0, multiplicity)] if plain else multiplicity.items():
                    found = realised.setdefault(sums, [0, 0])
                    found[0] += inner * m
                    found[1] += m
        tallies = [[0, 0] for _ in range(len(filters) + 1)]
        for sums, found in realised.items():
            for tally, ok in zip(tallies, (True, *beside.passed(sums))):
                if ok:
                    tally[0] += found[0]
                    tally[1] += found[1]
        return [tuple(tally) for tally in tallies]

    def _project(self, states, projections, several):
        """Drop the maps of a run under a larger cap whose projection onto
        self.cap is empty, and return how many distinct projections the
        rest have: the number of live maps of the run under self.cap.  A
        map projects row by row (_projected, memoised in projections)."""
        seen = set()
        for state in list(states):
            image = []
            for code, row in state:
                low = projections.get(row)
                if low is None:
                    low = projections[row] = self._projected(row, several)
                if low:
                    image.append((code, low))
            if image:
                seen.add(frozenset(image))
            else:
                del states[state]
        return len(seen)

    def _joined(self, ctx, state, count, rows, canonical):
        """(cell, map) for each cell under which some row of state has a
        successor: the map holding each such row's successor at the row's
        passive code.  A row's successors are built once (_successors) and
        kept in rows; successor rows and maps are interned in canonical."""
        nexts = {}  # cell -> the next map's (passive code, row) pairs
        for code, row in state:
            built = rows.get(row)
            if built is None:
                built = rows[row] = [(cell, canonical.setdefault(nxt, nxt))
                                     for cell, nxt in self._successors(ctx, row, count)]
            for cell, nxt in built:
                nexts.setdefault(cell, []).append((code, nxt))
        return [(cell, canonical.setdefault(nxt, nxt))
                for cell, nxt in ((cell, frozenset(pairs)) for cell, pairs in nexts.items())]

    def _regroup(self, state, passive, canonical, held):
        """state's entries as a map for a step whose passive slots have the
        place values passive, its rows interned in canonical; memoised on
        the held automaton, if any."""
        memo = {} if held is None else held.regrouped
        hit = memo.get((passive, state))
        if hit is None:
            rows = {}
            for code, row in state:
                for key, value in row:
                    own = sum((key + code) // w % self.n * w for w in passive)
                    rows.setdefault(own, []).append((key + code - own, value))
            hit = memo[passive, state] = frozenset(
                (own, canonical.setdefault(row, row))
                for own, row in ((own, frozenset(e)) for own, e in rows.items()))
        return hit

    def _projected(self, state, several):
        """The map a prefix reaches under self.cap, from the one it reaches
        under a larger cap: with one shift, drop the entries with lo >= cap
        and cap hi at it; with several, drop the vectors whose max is >=
        cap, and the entries left with no lo^2 vector."""
        cap = self.cap
        if not several:  # an item is (key, (lo, hi)); most are kept as they are
            return frozenset([item if item[1][1] <= cap else (item[0], (item[1][0], cap))
                              for item in state if item[1][0] < cap])
        entries = []
        for key, (outs, ins) in state:
            outs = tuple([v for v in outs if max(v) < cap])
            if outs:
                entries.append((key, (outs, tuple([v for v in ins if max(v) < cap]))))
        return frozenset(entries)

    def _closing(self, inner=None):
        """(n^width, terms) of the final frontier: a final key's code is key
        % n^width, its last digit is the last point's pattern, and the
        closing terms are laid out as by _rows."""
        width = len(self.steps[-1].keep) + self.steps[-1].stays
        return self.n ** width, self._rows(self.closing, width, inner)

    def _accepts(self, state, closing, several):
        """(inner, outer): whether a final map holds an inner, an outer
        realisation once the closing terms are scored."""
        size, terms = closing
        cap, n = self.cap, self.n
        inner = outer = False
        for code, row in state:
            for key, value in row:
                key = (key + code) % size  # the frontier code
                x = key * n // size
                if several:
                    outs, ins = value
                    for s, div, (lo, hi) in terms:
                        y = key // div % n
                        outs = [v[:s] + (v[s] + lo[y][x],) + v[s + 1:] for v in outs]
                        ins = [v[:s] + (v[s] + hi[y][x],) + v[s + 1:] for v in ins]
                    outer = outer or any(max(v) < cap for v in outs)
                    inner = any(max(v) < cap for v in ins)
                else:
                    lo, hi = value
                    for _, div, (tlo, thi) in terms:
                        y = key // div % n
                        lo += tlo[y][x]
                        hi += thi[y][x]
                    outer = outer or lo < cap
                    inner = hi < cap
                if inner:
                    return True, True
        return False, outer

    def _context(self, step, packing, several, cap):
        """The _Context of one kind of step under packing and cap."""
        terms = self._rows(step.terms, step.width)
        if terms:
            s0, div0, _ = terms[0]
            lead = self.tables[s0].candidates(step.terms[0][2], self.cells)
        else:  # no term: every pattern of a cell costs nothing
            s0, div0 = 0, self.n ** step.width
            lead = [[[(0, 0, x) for x in cell] for cell in self.cells]]
        # Few codes: each key is decoded once for the run of this step kind.
        # Many codes: each map's keys are decoded once for all its cells
        # (decoded is None).
        decoded = None if self.n ** step.width > 1024 else {}
        # passive: slots the step keeps in place and no term reads
        read = {slot for _, slot, _ in step.terms}
        passive = tuple(self.n ** j for j, k in enumerate(step.keep) if j == k and j not in read)
        return _Context(*self._layout(step, packing.increment), s0, div0, lead, terms[1:],
                        packing.feasible if packing.required else None, several, decoded,
                        cap, passive)

    def _read(self, ctx, key, decoded):
        """(base, lead candidates per cell, other terms) of one state key, kept
        in decoded: base is its part of every successor's key."""
        before, after, runs, div0, lead, extra = (
            ctx.before, ctx.after, ctx.runs, ctx.div0, ctx.lead, ctx.extra)
        n = self.n
        sums, code = divmod(key, before)
        base = sums * after
        for div, mod, weight in runs:
            base += code // div % mod * weight
        hit = decoded[key] = (base, lead[code // div0 % n], [
            (s, lo[code // div % n], hi[code // div % n]) for s, div, (lo, hi) in extra])
        return hit

    def _successors(self, ctx, state, count):
        """(cell, row) for each cell under which some entry of a row state
        survives one more point: the row after it.  count is the number of
        placed points after the step; only a required table in the keys
        reads it."""
        if ctx.several:
            return self._pareto_successors(ctx, state, count)
        after, kinc, feasible, cap = ctx.after, ctx.kinc, ctx.feasible, ctx.cap
        decoded = {} if ctx.decoded is None else ctx.decoded
        row = []
        for cell in range(len(self.cells)):
            entries = {}
            for key, (lo, hi) in state:
                base, rows, terms = decoded.get(key) or self._read(ctx, key, decoded)
                for plo, phi, x in rows[cell]:
                    nlo = lo + plo
                    if nlo >= cap:
                        break  # candidates are sorted: all later ones bust too
                    if terms:
                        for _, tlo, thi in terms:
                            nlo += tlo[x]
                            phi += thi[x]
                        if nlo >= cap:
                            continue
                    nkey = base + kinc[x]
                    if feasible is not None and not feasible(nkey // after, count):
                        continue
                    nhi = hi + phi
                    if nhi > cap:
                        nhi = cap
                    old = entries.get(nkey)
                    if old is None:
                        entries[nkey] = (nlo, nhi)
                    elif nlo < old[0] or nhi < old[1]:
                        entries[nkey] = (min(nlo, old[0]), min(nhi, old[1]))
            if entries:
                row.append((cell, frozenset(entries.items())))
        return row

    def _pareto_successors(self, ctx, state, count):
        """_successors for several shifts, whose entries hold the Pareto-least
        lo^2 and hi^2 vectors.  Adding one vector to a sorted Pareto-least set
        keeps it so; only entries reached twice are reduced again.  Equal
        entry values are held as one object."""
        after, kinc, s0, feasible = ctx.after, ctx.kinc, ctx.s0, ctx.feasible
        decoded = {} if ctx.decoded is None else ctx.decoded
        cap, values = ctx.cap, self._values
        k = len(self.tables)
        row = []
        for cell in range(len(self.cells)):
            entries, merged = {}, set()
            for key, (outs, ins) in state:
                base, rows, terms = decoded.get(key) or self._read(ctx, key, decoded)
                floors = outs[0] if len(outs) == 1 else [min(v[s] for v in outs)
                                                         for s in range(k)]
                for plo, phi, x in rows[cell]:
                    if floors[s0] + plo >= cap:
                        break  # candidates are sorted: all later ones bust too
                    add = [0] * k
                    add[s0] = plo
                    for s, tlo, _ in terms:
                        add[s] += tlo[x]
                        if floors[s] + add[s] >= cap:
                            break  # every vector busts shift s
                    else:
                        if len(outs) == 1:  # the floors check was exact
                            nouts = (tuple(map(int.__add__, outs[0], add)),)
                        else:
                            nouts = tuple(t for t in (tuple(map(int.__add__, v, add))
                                                      for v in outs) if max(t) < cap)
                            if not nouts:
                                continue
                        nkey = base + kinc[x]
                        if feasible is not None and not feasible(nkey // after, count):
                            continue
                        nins = ins
                        if ins:
                            add = [0] * k
                            add[s0] = phi
                            for s, _, thi in terms:
                                add[s] += thi[x]
                            nins = tuple(t for t in (tuple(map(int.__add__, v, add))
                                                     for v in ins) if max(t) < cap)
                        value = (nouts, nins)
                        old = entries.get(nkey)
                        if old is None:
                            entries[nkey] = values.setdefault(value, value)
                        elif old != value:
                            entries[nkey] = (old[0] + nouts, old[1] + nins)
                            merged.add(nkey)
            for nkey in merged:
                outs, ins = entries[nkey]
                value = (_least(outs), _least(ins))
                entries[nkey] = values.setdefault(value, value)
            if entries:
                row.append((cell, frozenset(entries.items())))
        return row

    def sequences(self, inner, packing):
        """Microstate counts in one certified mode (inner: hi^2 sums).

        A counting DP over state keys code + n^width * (sums + span * pens),
        pens the per-shift penalty sums as base-cap digits: a layer maps
        each key to how many partial sequences reach it.  Returns
        (per_tally, unmatched, sums): per_tally[0] counts the microstates
        passing packing.required, per_tally[k + 1] those also passing
        packing.filters[k], unmatched those passing none of the filters, and
        sums holds the exact filter sums (packing.exact) of up to five of the
        latter, read off the final keys, a key of multiplicity m at most m
        times.
        """
        n, cap, span = self.n, self.cap, packing.span
        feasible = packing.feasible if packing.required else None
        weights = [cap ** s for s in range(len(self.tables))]
        layer = {0: 1}
        for count, step in enumerate(self.steps, 1):
            self.spend(len(layer))
            before, after, runs, kinc = self._layout(step, packing.increment)
            terms = self._rows(step.terms, step.width, inner)
            if terms:
                s0, div0, _ = terms[0]
                lead = self.tables[s0].ordered(step.terms[0][2], inner)
            else:
                s0, div0, lead = 0, before, [[(0, x) for x in range(n)]]
            stride, w0, extra = after * span, weights[s0], terms[1:]
            nxt = {}
            for key, multiplicity in layer.items():
                rest, code = divmod(key, before)
                base = rest * after
                for div, mod, weight in runs:
                    base += code // div % mod * weight
                if extra:
                    pens = [rest // span // w % cap for w in weights]
                    room = cap - pens[s0]
                    others = [(s, rows[code // div % n]) for s, div, rows in extra]
                else:
                    room = cap - rest // span // w0 % cap
                for p, x in lead[code // div0 % n]:
                    if p >= room:
                        break  # successors are sorted: all later ones bust too
                    added = p * w0
                    if extra:
                        total = pens[:]
                        total[s0] += p
                        for s, row in others:
                            total[s] += row[x]
                            added += row[x] * weights[s]
                        if max(total) >= cap:
                            continue
                    new = base + kinc[x] + added * stride
                    if feasible is not None and not feasible(new // after % span, count):
                        continue
                    nxt[new] = nxt.get(new, 0) + multiplicity
            layer = nxt
        per_tally = [0] * (len(packing.filters) + 1)
        unmatched = 0
        sums = []
        size, closing = self._closing(inner)
        for key, multiplicity in layer.items():
            rest, code = divmod(key, size)
            if closing:
                pens = [rest // span // w % cap for w in weights]
                for s, div, pen in closing:
                    pens[s] += pen[code // div % n][code * n // size]
                if max(pens) >= cap:
                    continue
            per_tally[0] += multiplicity
            passed = packing.passed(rest % span)
            for k, ok in enumerate(passed):
                if ok:
                    per_tally[k + 1] += multiplicity
            if any(passed):
                continue
            unmatched += multiplicity
            if len(sums) < _SHOWN:
                sums += [packing.exact(rest % span)] * min(multiplicity, _SHOWN - len(sums))
        return per_tally, unmatched, tuple(sums)


def _least(vectors):
    """The Pareto-least of some vectors, sorted: none is dominated."""
    out = []
    for v in sorted(set(vectors)):
        if not any(all(a <= b for a, b in zip(u, v)) for u in out):
            out.append(v)
    return tuple(out)


class _PackedSums:
    """The filter sums the scan and the DPs carry, packed into one int.

    required lists the tables every counted microstate must pass: a partial
    sequence is dropped as soon as no completion can pass them.  filters
    lists one table list per filter, tallied separately at the end.  Digit
    k holds table k's sum over a sequence of count patterns less count times
    its least value over the language, which lies in [0, d * (greatest -
    least)]; adding increment[x] advances every sum by pattern x at once.
    feasible and passed are memoised: both paths ask them far more often
    than there are distinct packed values.
    """

    def __init__(self, required, filters, d, n):
        self.required = required
        self.filters = filters
        self.d = d
        tables = [*required, *(t for own in filters for t in own)]
        self.low = [min(t.values) for t in tables]
        self.high = [max(t.values) for t in tables]
        self.radix = [d * (high - low) + 1 for low, high in zip(self.low, self.high)]
        self.base = [math.prod(self.radix[:k]) for k in range(len(tables))]
        self.span = math.prod(self.radix)  # every packed value is below span
        self.increment = [0] * n
        for t, low, b in zip(tables, self.low, self.base):
            for x, value in enumerate(t.values):
                self.increment[x] += (value - low) * b
        self._feasible = [{} for _ in range(d + 1)]  # per count: packed -> verdict
        self._passed = {}

    def sums(self, packed, count):
        """Every table's sum over a sequence of count patterns, required first."""
        return [packed // b % r + count * low
                for b, r, low in zip(self.base, self.radix, self.low)]

    def feasible(self, packed, count):
        """Whether some completion of a sequence of count patterns with these
        sums can still pass every required table."""
        memo = self._feasible[count]
        hit = memo.get(packed)
        if hit is None:
            remaining = self.d - count
            hit = memo[packed] = all(
                t.lo < total + remaining * high and total + remaining * low < t.hi
                for t, total, low, high in zip(self.required, self.sums(packed, count),
                                               self.low, self.high))
        return hit

    def _by_filter(self, packed):
        """Per filter, (table, sum) for each of its tables over a complete
        sequence with these sums."""
        sums = iter(self.sums(packed, self.d)[len(self.required):])
        return [list(zip(own, sums)) for own in self.filters]

    def exact(self, packed):
        """Per filter, sum_i f(x_i) for each of its test functions over a
        complete sequence with these sums, as exact Fractions."""
        return tuple(tuple(Fraction(total, t.scale) for t, total in pairs)
                     for pairs in self._by_filter(packed))

    def passed(self, packed):
        """Per filter, whether a complete sequence with these sums passes it."""
        hit = self._passed.get(packed)
        if hit is None:
            hit = self._passed[packed] = tuple(all(t.lo < total < t.hi for t, total in pairs)
                                               for pairs in self._by_filter(packed))
        return hit


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

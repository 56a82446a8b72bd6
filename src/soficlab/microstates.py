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

count_microstates counts a stage by one of two paths.  When F is one
shift s, sigma_s is a single d-cycle and the cover is a partition, a
microstate is a cyclic sequence of patterns whose penalty is a sum of
neighbour terms, whatever the group, and a merged-state DP along the
cycle counts the stage without visiting a tuple (min-plus determinisation
of a weighted automaton, after Mohri 1997).  Every other stage goes to a
depth-first scan of the tuples.  Both paths carry a measure filter's
sums as one packed int (_PackedSums), which decides the filters for both.

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

    values[c] is f on language pattern c times the common denominator of
    the f-values and of the bounds.  A tuple passes when lo < sum of its
    values < hi, i.e. d (mu(f) - delta) < sum_i f(x_i) < d (mu(f) + delta).
    """

    values: tuple
    lo: int
    hi: int


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
        tables.append(_ScaledFunction(tuple(int(q * scale) for q in exact), lo, hi))
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
    of outer microstates that pass none of its filters, and unmatched_rows
    holds up to five of them as index rows into the window language, in the
    order the counting path finds them.  method names that path: "dp" for
    the merged-state DP, "scan" for the tuple scan.

    n_inner and n_outer are counted with the object.  On the DP path m and
    unmatched are counted on first read, under the budget of the call that
    made the object, so reading them can raise ResourceBudgetError.
    Equality and hashing take (m_inner, m_outer, n_inner, n_outer), so they
    read m; method, unmatched and unmatched_rows take no part.
    """

    __slots__ = ("n_inner", "n_outer", "method", "_sizes", "_tally")

    def __init__(self, m_inner, m_outer, n_inner, n_outer, unmatched=0,
                 unmatched_rows=(), method="scan"):
        self.n_inner, self.n_outer, self.method = n_inner, n_outer, method
        self._sizes = _Sizes((m_inner,), (m_outer,), (unmatched,), (unmatched_rows,))
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
    unmatched_rows = property(lambda self: self._sizes.unmatched_rows[self._tally])

    def _key(self):
        return self.m_inner, self.m_outer, self.n_inner, self.n_outer

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"MicrostateCounts(m_inner={self.m_inner!r}, m_outer={self.m_outer!r}, "
                f"n_inner={self.n_inner!r}, n_outer={self.n_outer!r}, "
                f"unmatched={self.unmatched!r}, unmatched_rows={self.unmatched_rows!r}, "
                f"method={self.method!r})")


@dataclass(frozen=True)
class _Sizes:
    """m and unmatched per tally, the unfiltered tally first."""

    m_inner: tuple
    m_outer: tuple
    unmatched: tuple
    unmatched_rows: tuple


class _CycleSizes:
    """_Sizes of every tally of one DP stage, each DP run on first read.

    The outer counting DP gives m_outer, unmatched and unmatched_rows, the
    inner one m_inner.  Both run on the stage's _CycleDP, so they charge the
    budget the signatures charged; a cut raises at the read and is not kept.
    """

    def __init__(self, dp, packing):
        self.dp, self.packing = dp, packing

    @cached_property
    def _outer(self):
        per_tally, unmatched, rows = self.dp.sequences(False, self.packing, rows_wanted=5)
        rest = len(per_tally) - 1
        return per_tally, (unmatched,) + (0,) * rest, (rows,) + ((),) * rest

    m_outer = property(lambda self: self._outer[0])
    unmatched = property(lambda self: self._outer[1])
    unmatched_rows = property(lambda self: self._outer[2])

    @cached_property
    def m_inner(self):
        return self.dp.sequences(True, self.packing)[0]


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

    A partition cover, one shift s and a sigma_s that is a single d-cycle
    take the merged-state DP (method "dp"; see _CycleDP), which never
    visits a tuple.  Every other stage takes one streaming scan (method
    "scan"), which serves every cover: each microstate reaches the counter
    as language indices, its key row is read off the cover's index -> key
    table (the partition cell, or the index itself for a general cover),
    and only the set of key rows is kept.  The counts are read off those
    sets once the scan ends.  Both paths decide every filter on the same
    packed integer sums (_PackedSums).  The whole stage, the general
    cover's set-cover searches included, runs under one budget: each search
    gets the nodes the scan and the searches before it left, and
    ResourceBudgetError is raised when it runs out.  On the DP path m and
    unmatched are counted when first read and charged to the same budget,
    so that read can raise it too (see MicrostateCounts).
    """
    delta, plan, lang = _stage(system, F, delta, sigma, window)
    order = _cycle_order(plan.shifts, sigma, cover)
    if not lang:
        empty = MicrostateCounts(0, 0, 0, 0, method="scan" if order is None else "dp")
        return empty, (empty,) * len(filters)
    d = sigma.d
    keys = _CoverKeys(window, lang, cover)
    table = keys.table
    prune = _filter_tables(window, lang, measure_filter, d) if measure_filter is not None else []
    tables = [_filter_tables(window, lang, f, d) for f in filters]
    if order is not None:
        return _count_on_cycle(_CycleDP(plan, lang, delta, sigma, order, table, budget),
                               prune, tables)
    packing = _PackedSums(prune, tables, d, len(lang))
    tallies = [_Tally() for _ in range(len(tables) + 1)]  # the unfiltered tally first
    keeping = {}  # packed sums -> the tallies a microstate with them enters
    unmatched = []
    n_unmatched = 0

    def leaf(indices, inner_ok, packed):
        nonlocal n_unmatched
        signature = tuple(map(table.__getitem__, indices))
        kept = keeping.get(packed)
        if kept is None:
            kept = keeping[packed] = [tallies[0]] + [
                t for t, ok in zip(tallies[1:], packing.passed(packed)) if ok]
        for tally in kept:
            tally.m_outer += 1
            tally.outer.add(signature)
            if inner_ok:
                tally.m_inner += 1
                tally.inner.add(signature)
        if len(kept) == 1:  # only the unfiltered tally: no filter keeps it
            n_unmatched += 1
            if n_unmatched <= 5:
                unmatched.append(tuple(indices))

    spent = _scan(plan, lang, delta, sigma, packing, leaf, budget)

    def cover_count(rows):
        nonlocal spent
        n, nodes = keys.count(rows, budget, spent)
        spent += nodes
        return n

    return (tallies[0].counts(cover_count, unmatched=n_unmatched,
                              unmatched_rows=tuple(unmatched)),
            tuple(t.counts(cover_count) for t in tallies[1:]))


def _count_on_cycle(dp, prune, tables):
    """count_microstates' result from the merged-state DP: the signature DP
    per tally now, the counting DPs behind m when a caller reads m."""
    sizes = _CycleSizes(dp, _PackedSums(prune, tables, dp.d, dp.n))
    counts = []
    for k, own in enumerate([[]] + tables):
        n_inner, n_outer = dp.signatures(_PackedSums(prune + own, [], dp.d, dp.n))
        counts.append(MicrostateCounts._read_later(sizes, k, n_inner, n_outer, "dp"))
    return counts[0], tuple(counts[1:])


def _penalties(plan, lang, delta, sigma):
    """The scaled threshold and a cached penalty lookup for one stage.

    Returns (t_num, t_den, penalties): penalties(s_index, p, q) is
    (lo^2, hi^2) for rho(s . lang[p], lang[q]) scaled by plan.scale, and a
    shift's sum of lo^2 (hi^2) over the d coordinates passes the outer
    (inner) test when sum * t_den < t_num.
    """
    threshold = sigma.d * delta * delta * plan.scale * plan.scale
    pen_cache = {}

    def penalties(s_index, pi, qi):
        key = (s_index, pi, qi)
        hit = pen_cache.get(key)
        if hit is None:
            lo, hi = plan.distances(lang[pi], lang[qi], s_index)
            hit = (lo * lo, hi * hi)
            pen_cache[key] = hit
        return hit

    return threshold.numerator, threshold.denominator, penalties


def _scan(plan, lang, delta, sigma, packing, leaf, budget) -> int:
    """Call leaf(indices, inner_ok, packed) on every certified-outer
    microstate that passes packing.required; return the nodes visited.

    indices lists the microstate's patterns as indices into lang (the list
    may be reused after the call), inner_ok says whether it is also
    certified-inner, and packed is its packed filter sums.  The scan is
    depth first.  At each position the first pending constraint drives
    candidate order: candidates are visited by ascending penalty against
    the already-fixed partner pattern, so the scan breaks out of a position
    as soon as the cheapest remaining candidate would cross the (monotone)
    threshold.  A partial tuple is dropped as soon as no completion can
    pass packing.required.
    """
    d = sigma.d
    n_lang = len(lang)
    n_shifts = len(plan.shifts)
    t_num, t_den, penalties = _penalties(plan, lang, delta, sigma)
    required, feasible, increment = packing.required, packing.feasible, packing.increment

    # term (s, i, j=sigma_s(i)) is evaluated once both ends are assigned
    terms_at = [[] for _ in range(d)]
    for s_index, s in enumerate(plan.shifts):
        perm = sigma.image_array(s)
        for i in range(d):
            j = perm[i]
            terms_at[max(i, j)].append((s_index, i, j))

    assign = [0] * d
    sums_out = [0] * n_shifts
    sums_in = [0] * n_shifts
    nodes = 0
    free_list = [(0, 0, c) for c in range(n_lang)]
    sorted_cache = {}

    def sorted_candidates(s_index, role, fixed):
        key = (s_index, role, fixed)
        hit = sorted_cache.get(key)
        if hit is None:
            out = []
            for c in range(n_lang):
                if role == "p":
                    po, pi_ = penalties(s_index, c, fixed)
                elif role == "q":
                    po, pi_ = penalties(s_index, fixed, c)
                else:
                    po, pi_ = penalties(s_index, c, c)
                out.append((po, pi_, c))
            out.sort(key=lambda t: (t[0], t[2]))
            sorted_cache[key] = out
            hit = out
        return hit

    def rec(pos, packed):
        nonlocal nodes
        if pos == d:
            leaf(assign, max(sums_in) * t_den < t_num, packed)  # penalties are >= 0
            return
        terms = terms_at[pos]
        if terms:
            s0, i0, j0 = terms[0]
            if i0 == pos and j0 == pos:
                cands = sorted_candidates(s0, "self", None)
            elif i0 == pos:
                cands = sorted_candidates(s0, "p", assign[j0])
            else:
                cands = sorted_candidates(s0, "q", assign[i0])
            rest = terms[1:]
        else:
            s0 = None
            cands = free_list
            rest = ()
        for po0, pi0, c in cands:
            nodes += 1
            if nodes > budget:
                raise ResourceBudgetError("microstate enumeration budget exceeded")
            if s0 is not None:
                if not (sums_out[s0] + po0) * t_den < t_num:
                    break  # candidates are sorted: all later ones bust too
                sums_out[s0] += po0
                sums_in[s0] += pi0
            assign[pos] = c
            ok = True
            added = []
            for s_index, i, j in rest:
                po, pi_ = penalties(s_index, assign[i], assign[j])
                sums_out[s_index] += po
                sums_in[s_index] += pi_
                added.append((s_index, po, pi_))
                if not sums_out[s_index] * t_den < t_num:
                    ok = False
                    break
            if ok:
                nxt = packed + increment[c]
                if not required or feasible(nxt, pos + 1):
                    rec(pos + 1, nxt)
            for s_index, po, pi_ in added:
                sums_out[s_index] -= po
                sums_in[s_index] -= pi_
            if s0 is not None:
                sums_out[s0] -= po0
                sums_in[s0] -= pi0
        assign[pos] = 0

    try:
        rec(0, 0)
    finally:
        del rec  # rec reaches itself through its closure: break the cycle
    return nodes


# merged-state DP on one cycle ---------------------------------------------------


def _cycle_order(shifts, sigma, cover):
    """sigma's cycle 0, sigma_s(0), sigma_s^2(0), ... when the DP counts the stage.

    The DP takes a partition cover and one shift s whose sigma_s, read off
    its image array, is a single d-cycle, on any group: a microstate's
    penalty is then a sum of neighbour terms along the cycle.  Every other
    stage returns None and goes to the scan.
    """
    if len(shifts) != 1 or not cover.is_partition:
        return None
    perm = sigma.image_array(shifts[0])
    order = [0]
    for _ in range(len(perm) - 1):
        order.append(perm[order[-1]])
    if perm[order[-1]] != 0 or len(set(order)) != len(perm):
        return None
    return order


def counting_method(system: SymbolicSystem, F, sigma, cover: Cover) -> str:
    """The path count_microstates takes on this stage: "dp" for the
    merged-state DP (one shift, a sigma_s that is a single d-cycle and a
    partition cover, on any group), "scan" for the tuple scan."""
    shifts = [system.group.coerce(g) for g in F]
    return "scan" if _cycle_order(shifts, sigma, cover) is None else "dp"


class _CycleDP:
    """The counts of one stage whose sigma_s is a single d-cycle.

    Read along the cycle c_0, ..., c_{d-1} (c_{k+1} = sigma_s(c_k)), a
    microstate is a sequence x_0, ..., x_{d-1} of language indices, and its
    penalty is pen(x_0, x_1) + ... + pen(x_{d-2}, x_{d-1}) plus the closing
    term pen(x_{d-1}, x_0), with lo^2 for outer and hi^2 for inner.  An
    integer penalty sum passes when it is below cap.  Filter sums are carried
    exactly as integers; required tables (the pruning filter, and a tally's
    own filter in the signature DP) drop a partial sequence as soon as no
    completion can pass them.
    """

    def __init__(self, plan, lang, delta, sigma, order, table, budget):
        t_num, t_den, penalties = _penalties(plan, lang, delta, sigma)
        self.cap = -(-t_num // t_den)  # integer s: s < cap exactly when s * t_den < t_num
        self.n = n = len(lang)
        self.d = sigma.d
        self.order = order
        pens = [[penalties(0, p, q) for q in range(n)] for p in range(n)]
        self.pen_lo = [[lo for lo, _ in row] for row in pens]
        self.pen_hi = [[hi for _, hi in row] for row in pens]
        self.cells = [[c for c in range(n) if table[c] == key]
                      for key in dict.fromkeys(table)]
        # successors of each last pattern, cheapest first, per cell
        self.succ_cell = [[sorted((pens[p][x][0], pens[p][x][1], x) for x in cell)
                           for cell in self.cells] for p in range(n)]
        self.budget = budget
        self.spent = 0

    # successors over the whole language, cheapest first: only sequences reads them
    @cached_property
    def succ_lo(self):
        return [sorted((row[x], x) for x in range(self.n)) for row in self.pen_lo]

    @cached_property
    def succ_hi(self):
        return [sorted((row[x], x) for x in range(self.n)) for row in self.pen_hi]

    def spend(self, live):
        """Charge one step: its live states times the language size."""
        self.spent += live * self.n
        if self.spent > self.budget:
            raise ResourceBudgetError("merged-state DP budget exceeded")

    def signatures(self, packing):
        """(n_inner, n_outer): how many cell sequences some microstate passing
        every table of packing.required realises, in each certified mode.

        After a prefix of cells, what the rest of the cycle can still do
        depends only on one map: (first pattern, last pattern, packed sums)
        -> (least lo^2 sum, least hi^2 sum) over the prefix's realisations,
        entries at or above cap dropped and hi sums capped at cap.  Prefixes
        with equal maps merge and carry their multiplicity; the closing term
        decides acceptance at the end.  Only equal maps merge, so the counts
        are exact.

        With no required table a map's successors do not depend on the step,
        so each live map's are built once (_successors) and looked up after,
        with equal maps held as one object.  A required table is decided on
        the count of placed patterns, so with one they are rebuilt each step.
        """
        d, cap, increment = self.d, self.cap, packing.increment
        states = {}
        for cell in self.cells:
            entries = {(x, x, increment[x]): (0, 0) for x in cell
                       if packing.feasible(increment[x], 1)}
            if entries:
                state = frozenset(entries.items())
                states[state] = states.get(state, 0) + 1
        self.spend(len(self.cells))
        memo = None if packing.required else {}  # live map -> its successor maps
        canonical = {}  # live map -> the one object held for it
        for count in range(2, d + 1):
            self.spend(len(states))
            merged = {}
            for state, multiplicity in states.items():
                if memo is None:
                    row = self._successors(state, packing, count)
                else:
                    row = memo.get(state)
                    if row is None:
                        row = memo[state] = [canonical.setdefault(nxt, nxt) for nxt in
                                             self._successors(state, packing, count)]
                for nxt in row:
                    merged[nxt] = merged.get(nxt, 0) + multiplicity
            if memo is not None:  # forget the maps that left
                memo = {s: memo[s] for s in merged if s in memo}
                canonical = {s: s for s in merged}
            states = merged
        n_inner = n_outer = 0
        for state, multiplicity in states.items():
            if any(lo + self.pen_lo[last][first] < cap for (first, last, _), (lo, _) in state):
                n_outer += multiplicity
            if any(hi + self.pen_hi[last][first] < cap for (first, last, _), (_, hi) in state):
                n_inner += multiplicity
        return n_inner, n_outer

    def _successors(self, state, packing, count):
        """The maps after state and one more cell, one for each cell under
        which some entry survives.  count is the number of placed patterns
        after the step; only a required table reads it."""
        cap, increment = self.cap, packing.increment
        row = []
        for ci in range(len(self.cells)):
            entries = {}
            for (first, last, sums), (lo, hi) in state:
                for plo, phi, x in self.succ_cell[last][ci]:
                    nlo = lo + plo
                    if nlo >= cap:
                        break  # successors are sorted: all later ones bust too
                    nsums = sums + increment[x]
                    if packing.required and not packing.feasible(nsums, count):
                        continue
                    nhi = hi + phi
                    if nhi > cap:
                        nhi = cap
                    key = (first, x, nsums)
                    old = entries.get(key)
                    if old is None:
                        entries[key] = (nlo, nhi)
                    elif nlo < old[0] or nhi < old[1]:
                        entries[key] = (min(nlo, old[0]), min(nhi, old[1]))
            if entries:
                row.append(frozenset(entries.items()))
        return row

    def sequences(self, inner, packing, rows_wanted=0):
        """Microstate counts in one certified mode (inner: hi^2 sums).

        A counting DP per first pattern over (last pattern, penalty sum s,
        packed filter sums): a layer maps the last pattern to a dict from
        the code s * packing.span + sums to how many sequences reach it.
        Returns (per_tally, unmatched, rows): per_tally[0] counts the
        microstates passing packing.required, per_tally[k + 1] those also
        passing packing.filters[k], unmatched those passing none of the
        filters, and rows holds up to rows_wanted of the latter as index
        rows in position order, walked back through their first pattern's
        layers.
        """
        d, cap, span, increment = self.d, self.cap, packing.span, packing.increment
        pen = self.pen_hi if inner else self.pen_lo
        succ = self.succ_hi if inner else self.succ_lo
        per_tally = [0] * (len(packing.filters) + 1)
        unmatched = 0
        rows = []
        self.spend(1)
        for first in range(self.n):
            if not packing.feasible(increment[first], 1):
                continue
            layer = {first: {increment[first]: 1}}
            layers = [layer]
            for count in range(2, d + 1):
                self.spend(sum(map(len, layer.values())))
                nxt = {}
                for last, codes in layer.items():
                    for p, x in succ[last]:
                        if p >= cap:
                            break  # successors are sorted: all later ones bust too
                        limit = (cap - p) * span  # code < limit exactly when s + p < cap
                        shift = p * span + increment[x]
                        target = nxt.get(x)
                        for code, multiplicity in codes.items():
                            if code >= limit:
                                continue
                            new = code + shift
                            if packing.required and not packing.feasible(new % span, count):
                                continue
                            if target is None:
                                target = nxt[x] = {}
                            target[new] = target.get(new, 0) + multiplicity
                layer = nxt
                if len(rows) < rows_wanted:
                    layers.append(layer)
            for last, codes in layer.items():
                limit = (cap - pen[last][first]) * span
                for code, multiplicity in codes.items():
                    if code >= limit:
                        continue
                    per_tally[0] += multiplicity
                    passed = packing.passed(code % span)
                    for k, ok in enumerate(passed):
                        if ok:
                            per_tally[k + 1] += multiplicity
                    if any(passed):
                        continue
                    unmatched += multiplicity
                    if len(rows) == rows_wanted:
                        continue
                    for path in _walk_back(layers, pen, packing, last, code):
                        row = [0] * d
                        for position, x in zip(self.order, path):
                            row[position] = x
                        rows.append(tuple(row))
                        if len(rows) == rows_wanted:
                            break
        return per_tally, unmatched, tuple(rows)


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
        self.increment = [sum((t.values[x] - low) * b
                         for t, low, b in zip(tables, self.low, self.base)) for x in range(n)]
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

    def passed(self, packed):
        """Per filter, whether a complete sequence with these sums passes it."""
        hit = self._passed.get(packed)
        if hit is None:
            sums = self.sums(packed, self.d)[len(self.required):]
            out = []
            for own in self.filters:
                out.append(all(t.lo < total < t.hi for t, total in zip(own, sums)))
                sums = sums[len(own):]
            hit = self._passed[packed] = tuple(out)
        return hit


def _walk_back(layers, pen, packing, last, code):
    """Every pattern sequence that ends at (last, code) in layers[-1], in
    cycle order; layers come from one first pattern's counting DP."""
    span, increment = packing.span, packing.increment
    stack = [(len(layers) - 1, last, code, ())]
    while stack:
        k, last, code, tail = stack.pop()
        path = (last,) + tail
        if k == 0:
            yield path
            continue
        s = code // span
        for x in range(len(pen) - 1, -1, -1):  # pushed in reverse, popped ascending
            p = pen[x][last]
            prev = code - p * span - increment[last]
            if p <= s and prev in layers[k - 1].get(x, ()):
                stack.append((k - 1, x, prev, path))


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
    scans = {"pruned": _scan, "naive": _naive_scan}
    if strategy not in scans:
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

        scans[strategy](plan, lang, delta, sigma, _PackedSums(prune, [], sigma.d, len(lang)),
                        leaf, budget)
        inner_out.sort()
        outer_out.sort()
    return (MicrostateSet(system, window, sigma.d, tuple(inner_out)),
            MicrostateSet(system, window, sigma.d, tuple(outer_out)))


def _naive_scan(plan, lang, delta, sigma, packing, leaf, budget):
    """_scan by checking each of the len(lang)^d tuples in full.

    The filter is checked on packing.required's tables directly, not on
    packed sums, and leaf gets None for them.
    """
    d = sigma.d
    if len(lang) ** d > budget:
        raise ResourceBudgetError(f"naive scan of {len(lang)}^{d} tuples exceeds budget")
    t_num, t_den, penalties = _penalties(plan, lang, delta, sigma)
    perms = [sigma.image_array(s) for s in plan.shifts]
    for combo in itertools.product(range(len(lang)), repeat=d):
        sums_out = [0] * len(perms)
        sums_in = [0] * len(perms)
        for s_index, perm in enumerate(perms):
            for i in range(d):
                po, pi_ = penalties(s_index, combo[i], combo[perm[i]])
                sums_out[s_index] += po
                sums_in[s_index] += pi_
        if all(v * t_den < t_num for v in sums_out) and _passes(packing.required, combo):
            leaf(combo, all(v * t_den < t_num for v in sums_in), None)


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

"""The frontier DP behind count_microstates, and the tuple scan (_scan)
that walks its steps without merging.

A microstate's penalty is a sum of edge terms over the sigma-graph, so the
points are placed one at a time along a greedy elimination order (after
Dechter 1999, _placement).  For a partition cover _FrontierDP merges equal
partial maps (min-plus determinisation, after Mohri 1997), each held as
rows.  One rule decides what it keeps: a narrow plan (a cycle's) with no
table in the keys runs through the cycle automaton its system holds
(_Automaton), and every other stage keeps one step's row successors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ResourceBudgetError

_SHOWN = 5  # the unmatched microstates whose filter sums a count reports
_FWD, _BWD, _LOOP = 0, 1, 2  # a term's penalty: pen(y, x), pen(x, y), pen(x, x)


class _PenaltyTable:
    """One shift's penalties over one window language, kept on the system.

    lo[p][q] and hi[p][q] are lo^2 and hi^2 of rho(s . lang[p], lang[q])
    scaled by the plan's scale, the only penalties the DPs and the scan
    read.  A term between a new pattern x and a placed partner y reads them
    by kind: _FWD pen(y, x) (the edge y -> x), _BWD pen(x, y), and _LOOP
    pen(x, x), whose only partner is 0.  The views below are built on first
    use and kept with the table.  lo^2 and hi^2 sort alike (hi = lo + a tail
    fixed per shift), so one sorted view (candidates) serves every reader.
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


def _stage_cap(plan, delta, d) -> int:
    """The integer cap of a stage of d points at the Fraction delta under
    plan: a penalty sum s passes when s < cap, i.e. s < d delta^2
    plan.scale^2, computed on ints alone."""
    a, b = delta.numerator * plan.scale, delta.denominator
    return -(-d * a * a // (b * b))


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
    with an unplaced neighbour is on the frontier.  When sigma has one
    shift and it is a single d-cycle with d >= 2, the steps are read off
    the cycle: 0, sigma(0), sigma^2(0), ..., each point scoring its edge
    from the one before and the last deferring its edge back to 0 to the
    closing, which is the plan the greedy order gives there.  Otherwise
    each step places the point that leaves the frontier smallest (greedy
    elimination, after Dechter 1999, _greedy_placement).

    Returns (steps, closing).  When the last point has several terms, its
    step scores only the first and keeps the other terms' partners on the
    frontier, followed by the point; closing lists those other terms as
    (shift index, partner slot or None, kind) on that final frontier, to
    be scored on the final maps.  So the last step is like the ones before
    it (on a cycle it is one of them), and its successors can be looked up.
    """
    if len(images) == 1 and d >= 2:
        perm, order = images[0], [0]
        while len(order) < d and perm[order[-1]]:
            order.append(perm[order[-1]])
        if len(order) == d and perm[order[-1]] == 0:
            return ([_Step(0, 0, (), True, ()), _Step(order[1], 1, (0,), True, ((0, 0, _FWD),))]
                    + [_Step(u, 2, (0,), True, ((0, 1, _FWD),)) for u in order[2:]],
                    ((0, 0, _BWD),))
    return _greedy_placement(images, d, prefer_closed)


def _greedy_placement(images, d, prefer_closed):
    """_placement's steps and closing by greedy elimination: each step
    places the point that leaves the frontier smallest.  Ties go, if
    prefer_closed, to the point with the most placed neighbours, then to a
    neighbour of the latest placed point, images sigma_s(u) before
    preimages and shifts in order, then to the least index."""
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
    """The cycle automaton a system holds for one window, shifts and cells:
    the successors of every row and map that the narrow plan's stages have
    met under cap.  kinds maps a step kind to (rows, maps, context), each
    row's and map's successors and the kind's _Context under cap; canonical
    holds each equal row and map as one object, and regrouped maps
    (passive, map) to the map regrouped for those passive slots.  verdicts
    maps (last step kind, closing terms) to {final map: _accepts' verdict}
    under cap.  reach is the largest d of a stage that ran all its steps
    through it, 0 until one has.  A shorter stage's projections and
    verdicts live for that stage only (_FrontierDP.signatures): no other
    stage reads them.

    tail is where the longest plain stage (no filter) run under cap so far
    stood one step before its end: (kinds, maps, charges), the kinds of
    its first t steps, its live maps after them, each with its
    multiplicity, and the charge each of its steps 2..t made.  Those maps
    depend only on the t kinds and cap, so a plain stage under cap whose
    first t + 1 kinds begin with them starts at step t + 1 from there;
    ((), {}, ()) until a plain stage of d >= 2 has run."""

    __slots__ = ("cap", "reach", "kinds", "canonical", "regrouped", "verdicts", "tail")

    def __init__(self, cap):
        self.cap, self.reach = cap, 0
        self.kinds, self.canonical, self.regrouped, self.verdicts = {}, {}, {}, {}
        self.tail = ((), {}, ())

    @classmethod
    def serving(cls, dp, keyed):
        """The automaton dp's system holds for its window, shifts and cells,
        which dp's steps run through, or None when dp's plan is wide or
        keyed (a table stays in the keys).  It serves when its cap is dp's,
        or larger with reach >= d, its maps then projected onto dp's (see
        _FrontierDP.signatures); otherwise dp replaces it with an empty one
        at its own cap."""
        if keyed or not dp.narrow:
            return None
        automata = dp.plan.system._penalty_cache.setdefault(cls, {})
        key = (dp.plan.window.elements, dp.plan.shifts, dp.cells)
        held = automata.get(key)
        if held is None or held.cap < dp.cap or held.cap > dp.cap and held.reach < dp.d:
            held = automata[key] = cls(dp.cap)
        return held

    def regroup(self, dp, state, passive):
        """dp._regroup of state for the passive slots passive, kept."""
        hit = self.regrouped.get((passive, state))
        if hit is None:
            hit = self.regrouped[passive, state] = dp._regroup(state, passive, self.canonical)
        return hit


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
        self.cap = _stage_cap(plan, delta, sigma.d)
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
        self.plan = plan
        self.budget = budget
        self.spent = 0

    def spend(self, live):
        """Charge one step: the states it extends times the language size."""
        self.spent += live * self.n
        if self.spent > self.budget:
            raise ResourceBudgetError("merged-state DP budget exceeded")

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
        when the passive slots change (_regroup).

        What outlives a step follows one rule.  Unless a table stays in the
        keys (it reads the count of placed points), successors depend only
        on the step's kind and the cap.  So on a narrow plan with no table
        in the keys every row's and map's successors are kept on the
        system's _Automaton (_Automaton.serving), with each step kind's
        context and each final map's _accepts verdict, equal rows and maps
        held as one object, and outlive the stage.  The map a prefix reaches
        under a cap C fixes its map under every cap c <= C: drop the entries
        with lo >= c and cap hi at c, or with several shifts drop the vectors
        whose max is >= c (_projected, row by row, kept for the stage only).
        That projection commutes with the successors, the sums beside the
        maps do not read the cap, and _accepts reads only the stage's own
        cap, so a stage runs its steps under the held automaton's cap when
        that is larger and the automaton has finished a stage at least as
        long.  It then drops the maps whose projection is empty, and each
        step still charges the distinct projections of its live maps: the
        live maps of the run under its own cap, so no charge depends on what
        the system held before.  Such a stage judges its final maps under
        its own cap and drops those verdicts; only a stage at the held cap
        keeps them.  A trace counted from its largest cap down so
        determinises about once.  Every other stage keeps one step's row
        successors and no map's.

        The live maps after t steps, and their multiplicities, depend only
        on the first t step kinds and the cap.  So a plain stage (no
        filter) at the held cap starts from the automaton's tail when the
        tail's kinds begin its own and are fewer: it replays the tail's
        charges through spend one by one and walks only its later steps,
        and leaves its own tail there when it is longer (_Automaton).  Its
        counts, charges and cut points are a fresh system's.
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
        held = _Automaton.serving(self, keyed.required)
        cap = self.cap if held is None else held.cap  # the cap the maps are built under
        # row -> its projection onto self.cap, kept for this stage
        projections = {} if cap > self.cap else None
        tailed = plain and held is not None and projections is None  # reads and writes the tail
        start, charges = 0, []  # the steps taken from the tail; each step's charge after the first
        kind, passive = None, ()
        if tailed and 0 < len(held.tail[0]) < d and all(
                step.kind == k for step, k in zip(self.steps, held.tail[0])):
            kinds, states, charges = held.tail
            start, charges = len(kinds), list(charges)
            for charge in charges:
                self.spend(charge)
            passive = held.kinds[kinds[-1]][2].passive  # as the tail's maps are grouped
        for count, step in enumerate(self.steps[start:], start + 1):
            if held is None:  # one step's rows: row -> its successors
                rows, canonical = {}, {}
            if step.kind != kind:
                kind = step.kind
                if held is None:
                    ctx = self._context(step, keyed, several, cap)
                else:  # row -> its successors, map -> its successors, the context
                    if kind not in held.kinds:
                        held.kinds[kind] = ({}, {}, self._context(step, keyed, several, cap))
                    rows, maps, ctx = held.kinds[kind]
                    canonical = held.canonical
                if ctx.passive != passive:
                    passive = ctx.passive
                    states = {self._regroup(state, passive, canonical) if held is None
                              else held.regroup(self, state, passive): m
                              for state, m in states.items()}
            if count > 1:
                charges.append(len(states) if projections is None
                               else self._project(states, projections, several))
                self.spend(charges[-1])
            merged = {}
            for state, multiplicity in states.items():
                joined = None if held is None else maps.get(state)
                if joined is None:
                    joined = self._joined(ctx, state, count, rows, canonical)
                    if held is not None:
                        maps[state] = joined
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
            states = merged
            if tailed and count == d - 1 > len(held.tail[0]):
                held.tail = (tuple(step.kind for step in self.steps[:count]), states,
                             tuple(charges))
        if held is not None:
            held.reach = max(held.reach, self.d)
        closing = self._closing()
        # final map -> (inner, outer), kept on the automaton under its own cap
        verdicts = ({} if held is None or cap > self.cap
                    else held.verdicts.setdefault((self.steps[-1].kind, self.closing), {}))
        realised = {}  # beside sums -> [inner, outer] cell sequences with them
        for state, multiplicity in states.items():
            verdict = verdicts.get(state)
            if verdict is None:
                verdict = verdicts[state] = self._accepts(state, closing, several)
            inner, outer = verdict
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

    def _regroup(self, state, passive, canonical):
        """state's entries as a map for a step whose passive slots have the
        place values passive, its rows interned in canonical."""
        rows = {}
        for code, row in state:
            for key, value in row:
                own = sum((key + code) // w % self.n * w for w in passive)
                rows.setdefault(own, []).append((key + code - own, value))
        return frozenset((own, canonical.setdefault(row, row))
                         for own, row in ((own, frozenset(e)) for own, e in rows.items()))

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
                lead = self.tables[s0].candidates(step.terms[0][2], (tuple(range(n)),))
            else:
                s0, div0, lead = 0, before, [[[(0, 0, x) for x in range(n)]]]
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
                for plo, phi, x in lead[code // div0 % n][0]:
                    p = phi if inner else plo
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

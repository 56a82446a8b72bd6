"""Finite covers of a subshift by unions of cylinders over a common window.

A cover element is a set of admissible window patterns (each pattern is a
clopen cylinder, so open and Borel covers coincide at this resolution).  The
module provides the join / pullback algebra, exact minimal-subcover counting
by branch and bound, the Shannon entropy of a partition, cover entropy by a
branch and bound over element orders, and measure-weighted partial cover
counts.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import ArgumentError, ResourceBudgetError
from .groups import FiniteSubset
from .symbolic import SymbolicSystem, Window, as_fraction

DEFAULT_NODE_BUDGET = 500_000


class Cover:
    """A finite cover of the window language by pattern sets."""

    def __init__(self, system: SymbolicSystem, window: Window, elements, drop_empty=False):
        language = set(system.language_values(window))
        sets = []
        for raw in elements:
            vals = frozenset(tuple(v) for v in raw)
            trimmed = vals & language
            if not trimmed:
                if drop_empty:
                    continue
                raise ArgumentError("cover element is empty as a pattern set")
            sets.append(trimmed)
        if not sets:
            raise ArgumentError("cover needs at least one non-empty element")
        covered = frozenset().union(*sets)
        if covered != frozenset(language):
            missing = sorted(language - covered)[0]
            raise ArgumentError(f"not a cover: pattern {missing} is uncovered")
        self.system = system
        self.window = window
        self.elements = tuple(sets)

    def __len__(self):
        return len(self.elements)

    @cached_property
    def is_partition(self) -> bool:
        return sum(map(len, self.elements)) == len(frozenset().union(*self.elements))

    @cached_property
    def cell_of(self) -> dict:
        """Pattern values -> index of the cell holding them (for partitions)."""
        return {v: idx for idx, e in enumerate(self.elements) for v in e}

    def canonical(self):
        return tuple(sorted(tuple(sorted(e)) for e in self.elements))

    def __repr__(self):
        kind = "partition" if self.is_partition else "cover"
        return f"Cover({self.system.label}, |W|={len(self.window)}, {len(self)} {kind} cells)"


def origin_partition(system: SymbolicSystem) -> Cover:
    """Partition of X by the symbol at the identity coordinate."""
    window = system.window([system.group.identity])
    lang = set(system.language_values(window))
    cells = [[(a,)] for a in system.alphabet if (a,) in lang]
    return Cover(system, window, cells)


def trivial_cover(system: SymbolicSystem, window: Window = None) -> Cover:
    window = window or system.window([system.group.identity])
    return Cover(system, window, [system.language_values(window)])


def cylinder_complement_cover(system: SymbolicSystem, patterns) -> Cover:
    """The cover {U_1^c, ..., U_n^c} for pairwise disjoint cylinders U_i."""
    pats = list(patterns)
    if len(pats) < 2:
        raise ArgumentError("need at least two candidate cylinders")
    window = pats[0].window
    for p in pats[1:]:
        window = system.window(window.elements + p.window.elements)
    lifted = []
    for p in pats:
        proj = [window.index[g] for g in p.window.elements]
        lifted.append(frozenset(
            v for v in system.language_values(window)
            if tuple(v[i] for i in proj) == p.values
        ))
    for a, b in itertools.combinations(lifted, 2):
        if a & b:
            raise ArgumentError("candidate cylinders overlap (not separable)")
    language = frozenset(system.language_values(window))
    elements = [language - c for c in lifted]
    return Cover(system, window, elements, drop_empty=True)


def lift(cover: Cover, window: Window) -> Cover:
    """The same cover viewed on a larger window."""
    if cover.window == window:
        return cover
    for g in cover.window.elements:
        if g not in window.index:
            raise ArgumentError("lift target must contain the cover window")
    proj = [window.index[g] for g in cover.window.elements]
    language = cover.system.language_values(window)
    elements = []
    for e in cover.elements:
        elements.append([v for v in language if tuple(v[i] for i in proj) in e])
    return Cover(cover.system, window, elements, drop_empty=True)


def join(v1: Cover, v2: Cover, budget: int = 4096) -> Cover:
    """V1 v V2: pairwise intersections over the united window, empties dropped."""
    if v1.system is not v2.system:
        raise ArgumentError("covers live over different systems")
    system = v1.system
    window = system.window(v1.window.elements + v2.window.elements)
    a = lift(v1, window)
    b = lift(v2, window)
    if len(a) * len(b) > budget:
        raise ResourceBudgetError(f"join would create {len(a) * len(b)} candidate cells")
    elements = [ea & eb for ea, eb in itertools.product(a.elements, b.elements)]
    return Cover(system, window, elements, drop_empty=True)


def pullback(cover: Cover, g) -> Cover:
    """g^{-1} V: each cylinder on W moves to the translated window W g."""
    system = cover.system
    group = system.group
    g = group.coerce(g)
    new_window = system.window(group.multiply(w, g) for w in cover.window.elements)
    ginv = group.inverse(g)
    source = [cover.window.index[group.multiply(h, ginv)] for h in new_window.elements]
    elements = []
    for e in cover.elements:
        elements.append([tuple(v[i] for i in source) for v in e])
    return Cover(system, new_window, elements, drop_empty=True)


def pullback_iterate(cover: Cover, F: FiniteSubset, budget: int = 200_000) -> Cover:
    """V_F = join over g in F of g^{-1} V."""
    if cover.is_partition:
        return Cover(cover.system, *_pullback_cells(cover, F, budget))
    group = cover.system.group
    result = None
    for g in sorted((group.coerce(g) for g in F), key=group.enumeration_key):
        part = pullback(cover, g)
        result = part if result is None else join(result, part, budget=budget)
    return result


def _pullback_cells(cover: Cover, F: FiniteSubset, budget):
    """(window, cells) of V_F for a partition V: the cells are the fibres
    of the per-translate signature, each a list of pattern values on F W,
    in signature order."""
    system = cover.system
    group = system.group
    elems = sorted((group.coerce(g) for g in F), key=group.enumeration_key)
    window = system.window(
        [group.multiply(w, g) for g in elems for w in cover.window.elements]
    )
    language = system.language_values(window, budget=budget * 10)
    # one itemgetter per translate projects a pattern onto W g; on a
    # one-site W it returns the symbol itself, so look cells up by symbol
    lookup = cover.cell_of
    if len(cover.window) == 1:
        lookup = {v: idx for (v,), idx in lookup.items()}
    projections = [operator.itemgetter(*(window.index[group.multiply(w, g)]
                                         for w in cover.window.elements)) for g in elems]
    cells = {}
    for v in language:
        sig = tuple([lookup[project(v)] for project in projections])
        cells.setdefault(sig, []).append(v)
    return window, [vals for _, vals in sorted(cells.items())]


def _leading_fields_eq(k):
    """__eq__, __ne__ and __hash__ for a record that compares and hashes on
    its first k fields alone, and equals only a record of its own class."""

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:k] == other[:k]

    def __ne__(self, other):
        return not __eq__(self, other)

    def __hash__(self):
        return hash(self[:k])

    return __eq__, __ne__, __hash__


class MinCoverResult(NamedTuple):
    count: int
    witness: tuple
    exact: bool  # False means budget ran out: count is a greedy upper bound
    nodes: int = 0  # search nodes charged to the budget; left out of == and hash

    __eq__, __ne__, __hash__ = _leading_fields_eq(3)


def undominated(sets) -> list:
    """Indices, in order, of the sets a minimal cover search must keep: the
    non-empty ones that are neither strictly inside another set nor a
    repeat of an earlier one."""
    return [i for i, s in enumerate(sets)
            if s and not any(s < t or (s == t and j < i) for j, t in enumerate(sets))]


def _greedy_cover(sets, universe):
    remaining = set(universe)
    chosen = []
    while remaining:
        best_i, best_gain = None, -1
        for i, s in enumerate(sets):
            gain = len(s & remaining)
            if gain > best_gain:
                best_i, best_gain = i, gain
        if best_gain <= 0:
            break
        chosen.append(best_i)
        remaining -= sets[best_i]
    return chosen


class _SearchBudget(Exception):
    """exact_min_cover ran out of nodes; it falls back to the greedy bound."""


def exact_min_cover(sets, universe, budget: int = DEFAULT_NODE_BUDGET) -> MinCoverResult:
    """Exact minimum set cover via branch and bound.

    Branches on the uncovered point with fewest candidate sets; prunes with
    a greedy upper bound, a counting lower bound and pairwise set dominance.
    On budget exhaustion the greedy bound is returned flagged inexact.
    """
    universe = frozenset(universe)
    if not universe:
        return MinCoverResult(0, (), True)
    sets = [frozenset(s) & universe for s in sets]
    covered = frozenset().union(*sets) if sets else frozenset()
    if not universe <= covered:
        point = sorted(universe - covered)[0]
        raise ArgumentError(f"uncovered target point: {point}")

    # pairwise-disjoint families (partitions) admit unique covers
    if sum(len(s) for s in sets) == len(covered):
        witness = tuple(i for i, s in enumerate(sets) if s)
        return MinCoverResult(len(witness), witness, True)

    if len(sets) <= 2000:
        keep = undominated(sets)
    else:
        keep = [i for i, s in enumerate(sets) if s]
    work = [sets[i] for i in keep]

    greedy = _greedy_cover(work, universe)
    count, witness = len(greedy), tuple(greedy)  # the best cover found so far
    max_size = max(len(s) for s in work)
    # each point's candidate sets, and the key that branches on the point
    # with the fewest, found once per search rather than at every node
    cands = {p: [i for i, s in enumerate(work) if p in s] for p in universe}
    branch_key = {p: (len(c), p) for p, c in cands.items()}
    nodes = 0

    def dfs(remaining, chosen):
        nonlocal nodes, count, witness
        nodes += 1
        if nodes > budget:
            raise _SearchBudget()
        if not remaining:
            if len(chosen) < count:
                count, witness = len(chosen), tuple(chosen)
            return
        lower = len(chosen) + math.ceil(len(remaining) / max_size)
        if lower >= count:
            return
        point = min(remaining, key=branch_key.__getitem__)
        # a chosen set covers its points, so no candidate here is chosen
        for i in sorted(cands[point], key=lambda i: (-len(work[i] & remaining), i)):
            dfs(remaining - work[i], chosen + [i])

    try:
        dfs(frozenset(universe), [])
    except _SearchBudget:
        return MinCoverResult(len(greedy), tuple(keep[i] for i in greedy), False, budget)
    finally:
        del dfs  # dfs reaches itself through its closure: break the cycle
    return MinCoverResult(count, tuple(keep[i] for i in witness), True, nodes)


def min_subcover(cover: Cover, *, budget: int = DEFAULT_NODE_BUDGET) -> MinCoverResult:
    """N(V): minimal subfamily of V covering X, that is, the window language."""
    universe = frozenset(cover.system.language_values(cover.window))
    return exact_min_cover(cover.elements, universe, budget=budget)


def element_measure(measure, window: Window, element) -> Fraction:
    """mu of a set of patterns on the window, exactly."""
    mass, den = measure.masses(window, element)
    return Fraction(sum(mass.values()), den)


def _cover_masses(measure, cover: Cover):
    """(mass numerators, denominator) of every pattern of the cover's window
    language, which its elements cover exactly: one ``masses`` sweep."""
    return measure.masses(cover.window, cover.system.language_values(cover.window))


def _xlogx(m: int, den: int) -> float:
    """p log p for p = m / den, 0 for p = 0.  Int true division rounds
    correctly, as float(Fraction) does, and math.log of a Fraction logs
    that same float, so this matches the exact-rational evaluation."""
    if not m:
        return 0.0
    p = m / den
    return p * math.log(p)


def _weights(mass_of: dict, atoms) -> list:
    """The mass numerator of each atom: the sum of its patterns' mass_of[v]."""
    return [sum(map(mass_of.__getitem__, atom)) for atom in atoms]


def _entropy(weights, den: int) -> float:
    """-sum over the atoms of mu(A) log mu(A), masses weights[i] / den."""
    h = 0.0
    for w in weights:
        h -= _xlogx(w, den)
    return h


def shannon_entropy(measure, partition: Cover) -> float:
    """H_mu(alpha) = -sum mu(A) log mu(A) in nats (0 log 0 = 0)."""
    if not partition.is_partition:
        raise ArgumentError("shannon_entropy needs a partition")
    mass_of, den = _cover_masses(measure, partition)
    return _entropy(_weights(mass_of, partition.elements), den)


class CoverEntropyResult(NamedTuple):
    value: float
    argmin: tuple  # atoms of a minimizing partition, as frozensets, in element order


def cover_entropy(measure, cover: Cover, budget: int = 250_000) -> CoverEntropyResult:
    """H_mu(V) = min over partitions finer than V of the Shannon entropy.

    Some minimizer is an order partition A_i = V_pi(i) minus the earlier
    V_pi(j) (give the heaviest atom its whole element and repeat: mass only
    moves to heavier atoms, and -x log x is concave), so a branch and bound
    searches element orders under a budget of nodes; a cut raises with the
    least entropy found, at most the greedy order's, as upper_bound.  The
    atoms' terms are summed in ascending mass, so tied minimizers give one
    float.
    """
    mass_of, den = _cover_masses(measure, cover)
    return _cover_entropy(mass_of, den, cover, budget)


def _cover_entropy(mass_of: dict, den: int, cover: Cover, budget: int) -> CoverEntropyResult:
    """cover_entropy on the cover's pattern masses mass_of[v] / den.

    Depth first on an explicit stack from the greedy order (heaviest
    residual first).  A state is the covered set, and a step takes one
    element's residual, heaviest first.  A state is dropped when a path no
    costlier met its covered set; otherwise it costs one node, and it is cut
    when its entropy so far plus q f(M) + f(r - q M), q = r // M, exceeds
    the best found: with mass r left no atom outweighs the largest
    residual M, and by concavity the rest costs at least that.
    """
    elements = cover.elements
    if cover.is_partition:
        return CoverEntropyResult(_entropy(_weights(mass_of, elements), den), tuple(elements))
    language = frozenset(mass_of)

    def f(w):
        return -_xlogx(w, den)

    def steps(covered):
        """(mass, element index, residual) of every non-empty residual,
        heaviest first; a zero-mass residual only once nothing weighs."""
        out = []
        for i, e in enumerate(elements):
            rest = e - covered
            if rest:
                out.append((sum(map(mass_of.__getitem__, rest)), i, rest))
        out.sort(key=lambda step: (-step[0], step[1]))
        return [step for step in out if step[0]] or out[:1]

    def entropy(chosen):
        return _entropy(sorted(w for w, _, _ in chosen), den)

    best_steps, covered = (), frozenset()
    while covered != language:
        step = steps(covered)[0]
        best_steps, covered = best_steps + (step,), covered | step[2]
    best = entropy(best_steps)

    total = sum(mass_of.values())
    least = {}  # covered set -> least entropy so far met there
    nodes = 0
    stack = [(frozenset(), 0, 0.0, ())]  # (covered, its mass, entropy so far, steps)
    while stack:
        covered, mass, h, chosen = stack.pop()
        if covered == language:
            value = entropy(chosen)
            if value < best:
                best, best_steps = value, chosen
            continue
        if least.get(covered, math.inf) <= h:
            continue
        least[covered] = h
        nodes += 1
        if nodes > budget:
            raise ResourceBudgetError("cover entropy search budget exceeded", upper_bound=best)
        options = steps(covered)
        top, left = options[0][0], total - mass
        if top:
            q = left // top
            if h + q * f(top) + f(left - q * top) > best:
                continue
        for step in reversed(options):
            w, _, residual = step
            stack.append((covered | residual, mass + w, h + f(w), chosen + (step,)))
    return CoverEntropyResult(best, tuple(step[2] for step in
                                          sorted(best_steps, key=lambda step: step[1])))


def partial_cover_count(measure, F: FiniteSubset, a, cover: Cover,
                        budget: int = DEFAULT_NODE_BUDGET):
    """b_nu(F, a, V): minimal size of a subfamily of V_F with union measure >= a."""
    return partial_cover_count_of(measure, pullback_iterate(cover, F), a, budget=budget)


def partial_cover_count_of(measure, cover: Cover, a, budget: int = DEFAULT_NODE_BUDGET):
    """b_nu against an already-joined cover.

    On a partition b_nu is read off the sorted cell masses
    (_heaviest_count).  Otherwise branch and bound over the elements,
    heaviest first: include or skip each one, cutting a branch once the
    heaviest remaining elements cannot close the mass gap within the best
    count found.  Masses are integers over one common denominator, so
    every comparison is exact.
    """
    mass_of, den = _cover_masses(measure, cover)
    return _partial_cover_count(mass_of, den, cover, a, budget)


def _heaviest_first(weights, den: int, a, total: int):
    """(order, prefix, target) for b_nu on elements of masses weights[i] / den:
    the element indices heaviest first (ties by index), the prefix sums of
    their weights, and the least integer target with target / den >= a.
    Raises when the union mass total / den is below a."""
    a = as_fraction(a)
    if not 0 < a < 1:
        raise ArgumentError("a must lie strictly between 0 and 1")
    target = -(-a.numerator * den // a.denominator)
    if total < target:
        raise ArgumentError(f"cover union has measure {float(Fraction(total, den)):.6g}"
                            f" < a={float(a):.6g}")
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    prefix = list(itertools.accumulate((weights[i] for i in order), initial=0))
    return order, prefix, target


def _heaviest_count(weights, den: int, a) -> int:
    """b_nu of a partition whose cells have masses weights[i] / den.

    The cells are pairwise disjoint, so any k of them have union mass the
    sum of their masses, which is at most the sum of the k heaviest, and
    the k heaviest attain it.  So b_nu, the fewest cells with union mass
    >= a, is the least k whose k heaviest masses reach a: the first prefix
    sum of the sorted masses at or above the target.  No search runs, so
    no budget is spent.
    """
    _, prefix, target = _heaviest_first(weights, den, a, sum(weights))
    return bisect.bisect_left(prefix, target)


def _partial_cover_count(mass_of: dict, den: int, cover: Cover, a, budget: int) -> int:
    """partial_cover_count_of on the cover's pattern masses mass_of[v] / den."""
    weights = _weights(mass_of, cover.elements)
    if cover.is_partition:
        return _heaviest_count(weights, den, a)
    order, prefix, target = _heaviest_first(weights, den, a, sum(mass_of.values()))
    sets = [cover.elements[i] for i in order]
    best = len(sets)
    nodes = 0
    # depth first, include before skip, on an explicit stack: a branch may
    # skip every element, so recursion would go as deep as there are elements
    stack = [(0, frozenset(), 0, 0)]  # (index, chosen union, its mass, count)
    while stack:
        idx, chosen_union, mass, count = stack.pop()
        nodes += 1
        if nodes > budget:
            raise ResourceBudgetError("partial cover budget exceeded", upper_bound=best)
        if mass >= target:
            best = min(best, count)
            continue
        if idx == len(sets) or count >= best:
            continue
        # fewest heaviest remaining elements whose masses sum to the gap
        need = bisect.bisect_left(prefix, prefix[idx] + target - mass, lo=idx) - idx
        if idx + need == len(prefix) or count + need >= best:
            continue
        new = sets[idx] - chosen_union
        stack.append((idx + 1, chosen_union, mass, count))
        stack.append((idx + 1, chosen_union | new,
                      mass + sum(map(mass_of.__getitem__, new)), count + 1))
    return best

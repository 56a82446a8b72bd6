"""Integer cylinder masses against exact Fraction products.

``masses`` computes a window's cylinder masses as integers over D**n in one
prefix-sharing sweep.  The oracles below are the direct evaluation it
replaced: one Fraction product per cylinder, Fraction sums per element,
and b_nu on masses rescaled over the lcm of every cylinder's denominator.
Masses must agree exactly, entropies float for float, b_nu count for count.
"""

import bisect
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from soficlab import (ArgumentError, BernoulliMeasure, Cover, LatticeGroup, MarkovMeasure,
                      ResourceBudgetError, TestFunction, UnsupportedOperationError,
                      amenable_measure_trace, cover_entropy, element_measure, folner_set,
                      full_shift, golden_mean_system, origin_partition, partial_cover_count_of,
                      shannon_entropy)
from soficlab.symbolic import Pattern, as_fraction, integrate

# --- oracles: exact Fraction products, one cylinder at a time ----------------------


def oracle_cylinder(measure, p: Pattern) -> Fraction:
    if isinstance(measure, BernoulliMeasure):
        out = Fraction(1)
        for v in p.values:
            out *= measure.probs[v]
        return out
    coords = sorted((g[0], v) for g, v in zip(p.window.elements, p.values))
    positions = [c for c, _ in coords]
    if positions != list(range(positions[0], positions[0] + len(positions))):
        raise UnsupportedOperationError("Markov cylinders need interval windows")
    out = measure.initial[coords[0][1]]
    for (_, a), (_, b) in zip(coords, coords[1:]):
        out *= measure.transition[a][b]
    return out


def oracle_element_measure(measure, window, element) -> Fraction:
    total = Fraction(0)
    for values in element:
        total += oracle_cylinder(measure, Pattern(window, values))
    return total


def oracle_entropy(measure, window, atoms) -> float:
    h = 0.0
    for atom in atoms:
        m = oracle_element_measure(measure, window, atom)
        if m > 0:
            h -= float(m) * math.log(m)
    return h


def oracle_cover_entropy(measure, cover: Cover) -> float:
    """The least entropy over the assignment family (every pattern sent to
    an element holding it), each partition's atoms summed in ascending mass
    as cover_entropy sums them off a partition."""
    if cover.is_partition:
        return oracle_entropy(measure, cover.window, cover.elements)
    patterns = sorted(frozenset().union(*cover.elements))
    homes = [[i for i, e in enumerate(cover.elements) if v in e] for v in patterns]
    best = math.inf
    for assignment in itertools.product(*homes):
        atoms = {}
        for v, i in zip(patterns, assignment):
            atoms.setdefault(i, []).append(v)
        h = 0.0
        for m in sorted(oracle_element_measure(measure, cover.window, a) for a in atoms.values()):
            if m > 0:
                h -= float(m) * math.log(m)
        best = min(best, h)
    return best


def oracle_partial_cover_count_of(measure, cover: Cover, a, budget=500_000) -> int:
    a = as_fraction(a)
    if not 0 < a < 1:
        raise ArgumentError("a must lie strictly between 0 and 1")
    window = cover.window
    mass_of = {v: oracle_cylinder(measure, Pattern(window, v))
               for v in frozenset().union(*cover.elements)}
    scale = math.lcm(a.denominator, *(m.denominator for m in mass_of.values()))
    mass_of = {v: m.numerator * (scale // m.denominator) for v, m in mass_of.items()}
    target = a.numerator * (scale // a.denominator)
    weights = [sum(map(mass_of.__getitem__, e)) for e in cover.elements]
    order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
    sets = [cover.elements[i] for i in order]
    prefix = list(itertools.accumulate((weights[i] for i in order), initial=0))
    if sum(mass_of.values()) < target:
        raise ArgumentError("cover union has measure below a")
    best = len(sets)
    nodes = 0

    def dfs(idx, chosen_union, mass, count):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise ResourceBudgetError("partial cover budget exceeded", upper_bound=best)
        if mass >= target:
            best = min(best, count)
            return
        if idx == len(sets) or count >= best:
            return
        need = bisect.bisect_left(prefix, prefix[idx] + target - mass, lo=idx) - idx
        if idx + need == len(prefix) or count + need >= best:
            return
        new = sets[idx] - chosen_union
        dfs(idx + 1, chosen_union | new, mass + sum(map(mass_of.__getitem__, new)), count + 1)
        dfs(idx + 1, chosen_union, mass, count)

    try:
        dfs(0, frozenset(), 0, 0)
    finally:
        del dfs
    return best


# --- instances ----------------------------------------------------------------------

Z = LatticeGroup(1)
SYSTEMS = (full_shift(("0", "1"), Z), golden_mean_system(Z),
           full_shift(("a", "b", "c"), Z))
PARRY_ROWS = {"0": {"0": "0.6180339887498949", "1": "0.3819660112501051"},
              "1": {"0": 1, "1": 0}}


@st.composite
def _measures(draw, system):
    """A Bernoulli measure or a stationary Markov chain with rational entries,
    zeros allowed; on the golden mean also the spec's 16-digit Parry chain."""
    k = len(system.alphabet)
    weights = st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any)
    kinds = ["bernoulli", "markov"] + (["parry"] if system.alphabet == ("0", "1") else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "parry":
        return MarkovMeasure.stationary(system, PARRY_ROWS)
    if kind == "bernoulli":
        w = draw(weights)
        return BernoulliMeasure(system, [Fraction(x, sum(w)) for x in w])
    rows = [[Fraction(x, sum(w)) for x in w] for w in (draw(weights) for _ in range(k))]
    try:
        return MarkovMeasure.stationary(system, rows)
    except ArgumentError:  # no unique stationary vector
        assume(False)


@st.composite
def _instances(draw):
    system = draw(st.sampled_from(SYSTEMS))
    mu = draw(_measures(system))
    lo = draw(st.integers(-3, 1))
    n = draw(st.integers(1, 4))
    elements = draw(st.permutations(range(lo, lo + n)))
    if draw(st.integers(0, 4)) == 0:  # a window with a gap: Bernoulli only
        elements = elements + [lo + n + 1]
    window = system.window(elements)
    language = list(system.language_values(window))
    order = draw(st.permutations(range(len(language))))
    patterns = [language[i] for i in order]
    overlapping = len(language) <= 9 and draw(st.booleans())
    cells = draw(st.integers(1, 3 if overlapping else 4))
    if overlapping:
        member = st.sets(st.integers(0, cells - 1), min_size=1, max_size=2)
        homes = [draw(member) for _ in language]
    else:
        homes = [{draw(st.integers(0, cells - 1))} for _ in language]
    cover = Cover(system, window, [[v for v, h in zip(language, homes) if c in h]
                                   for c in range(cells)], drop_empty=True)
    a = Fraction(draw(st.integers(1, 19)), 20)
    return mu, window, patterns, cover, a


@settings(max_examples=200, deadline=None)
@given(_instances())
def test_integer_masses_match_fraction_products(instance):
    mu, window, patterns, cover, a = instance
    if isinstance(mu, MarkovMeasure) and max(window.elements)[0] - min(
            window.elements)[0] + 1 != len(window):
        for read in (lambda: mu.masses(window, patterns),
                     lambda: mu.cylinder(Pattern(window, patterns[0])),
                     lambda: oracle_cylinder(mu, Pattern(window, patterns[0]))):
            with pytest.raises(UnsupportedOperationError, match="interval windows"):
                read()
        return
    mass, den = mu.masses(window, patterns)
    assert set(mass) == set(patterns)
    for v in patterns:
        expected = oracle_cylinder(mu, Pattern(window, v))
        assert Fraction(mass[v], den) == expected
        assert mu.cylinder(Pattern(window, v)) == expected
    for e in cover.elements:
        assert element_measure(mu, window, e) == oracle_element_measure(mu, window, e)
    if cover.is_partition:
        assert shannon_entropy(mu, cover) == oracle_entropy(mu, window, cover.elements)
    assert cover_entropy(mu, cover).value == oracle_cover_entropy(mu, cover)
    try:
        expected_b = oracle_partial_cover_count_of(mu, cover, a)
    except ArgumentError:
        with pytest.raises(ArgumentError, match="cover union has measure"):
            partial_cover_count_of(mu, cover, a)
    else:
        assert partial_cover_count_of(mu, cover, a) == expected_b
    table = {v: Fraction(i % 3, 1 + i % 4) for i, v in enumerate(patterns)}
    f = TestFunction(window, table, default=Fraction(1, 7))
    assert integrate(mu, f) == sum(
        (f(v) * oracle_cylinder(mu, Pattern(window, v))
         for v in itertools.product(mu.system.alphabet, repeat=len(window))), Fraction(0))


@pytest.mark.parametrize("lo, hi", [(0, 7), (-3, 4), (-5, 5)])
def test_parry_entropy_float_identical_on_long_windows(lo, hi):
    """The spec's Parry chain has a 107-bit D, so masses over D**n are far
    from float range: every H_mu term must still round as float(Fraction)."""
    gm = SYSTEMS[1]
    mu = MarkovMeasure.stationary(gm, PARRY_ROWS)
    window = gm.interval_window(lo, hi)
    language = gm.language_values(window)
    words = Cover(gm, window, [[v] for v in language])
    halves = Cover(gm, window, [[v for v in language if v[0] == s] for s in "01"])
    for cover in (words, halves):
        assert shannon_entropy(mu, cover) == oracle_entropy(mu, window, cover.elements)
        assert (partial_cover_count_of(mu, cover, "0.9")
                == oracle_partial_cover_count_of(mu, cover, "0.9"))


@st.composite
def _partitions(draw):
    system = draw(st.sampled_from(SYSTEMS))
    mu = draw(_measures(system))
    window = system.interval_window(0, draw(st.integers(0, 3)))
    language = list(system.language_values(window))
    cells = draw(st.integers(1, len(language)))
    homes = [draw(st.integers(0, cells - 1)) for _ in language]
    cover = Cover(system, window, [[v for v, h in zip(language, homes) if h == c]
                                   for c in range(cells)], drop_empty=True)
    return mu, cover, Fraction(draw(st.integers(1, 99)), 100)


@settings(max_examples=200, deadline=None)
@given(_partitions())
def test_partition_b_nu_closed_form_matches_search_oracle(instance):
    """On a partition b_nu is the count of heaviest cells, under budget 0;
    the oracle searches subfamilies on Fraction masses."""
    mu, cover, a = instance
    assert cover.is_partition
    try:
        expected = oracle_partial_cover_count_of(mu, cover, a)
    except ArgumentError:
        with pytest.raises(ArgumentError, match="cover union has measure"):
            partial_cover_count_of(mu, cover, a, budget=0)
    else:
        assert partial_cover_count_of(mu, cover, a, budget=0) == expected


def test_parry_b_nu_on_sixteen_sites_is_exact():
    """The spec's Parry chain at a = 9/10 on F_16: the trace's b_nu is the
    fewest golden-mean words of length 16 whose Fraction masses, summed
    heaviest first, reach 9/10."""
    gm = SYSTEMS[1]
    mu = MarkovMeasure.stationary(gm, PARRY_ROWS)
    row, = amenable_measure_trace(gm, origin_partition(gm), mu, [16], a="0.9").rows
    window = gm.window(folner_set(gm.group, 16))
    masses = sorted((oracle_cylinder(mu, Pattern(window, v))
                     for v in gm.language_values(window)), reverse=True)
    reached = list(itertools.accumulate(masses))
    expected = next(k for k, total in enumerate(reached, 1) if total >= Fraction(9, 10))
    assert (row.count, row.b_nu) == (len(masses), expected) == (2584, 2135)

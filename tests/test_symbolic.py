import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import (ArgumentError, BernoulliMeasure, FiniteTableGroup, FreeGroup,
                      LatticeGroup, MarkovMeasure, MetricWeights, ResourceBudgetError,
                      SymbolicSystem, TestFunction, UnsupportedOperationError, as_fraction,
                      count_cyclic_words, full_shift, golden_mean_system, integrate)

# Independent sets in the n x n grid graph (OEIS A006506; Calkin and Wilf,
# "The number of independent sets in a grid graph", SIAM J. Discrete Math.
# 11, 1998): hard squares on the n x n box.
A006506 = (2, 7, 63, 1234, 55447, 5598861, 1280128950, 660647962955,
           770548397261707, 2030049051145980050, 12083401651433651945979,
           162481813349792588536582997, 4935961285224791538367780371090)


def brute_force_language(system, window):
    """Independent oracle: scan all |A|^|W| assignments against all
    translated forbidden patterns."""
    group = system.group
    out = []
    elems = window.elements
    for values in itertools.product(system.alphabet, repeat=len(elems)):
        table = dict(zip(elems, values))
        ok = True
        for felems, fvals in system.forbidden:
            v0_inv = group.inverse(felems[0])
            for w in elems:
                g = group.multiply(v0_inv, w)
                translated = [group.multiply(v, g) for v in felems]
                if all(t in table for t in translated):
                    if all(table[t] == fv for t, fv in zip(translated, fvals)):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(values)
    return tuple(out)


def test_language_counts_against_brute_force(gm, fs):
    for n in range(1, 7):
        w = gm.interval_window(0, n - 1)
        assert gm.language_values(w) == brute_force_language(gm, w)
        wf = fs.interval_window(0, n - 1)
        assert len(fs.language_values(wf)) == 2 ** n


def test_golden_mean_fibonacci_recurrence(gm):
    counts = [len(gm.language_values(gm.interval_window(0, n - 1)))
              for n in range(1, 15)]
    assert counts[0] == 2 and counts[1] == 3
    for n in range(2, 14):
        assert counts[n] == counts[n - 1] + counts[n - 2]
    assert counts[3] == 8  # length 4


def test_transfer_matrix_oracle_agrees(gm):
    fib = [1, 1]
    for _ in range(16):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 17):
        w = gm.interval_window(0, n - 1)
        assert gm.count_language(w) == fib[n + 1]  # F(n + 2)
        if n <= 14:
            assert gm.count_language(w) == len(gm.language_values(w))
    lucas = [2, 1]
    for _ in range(12):
        lucas.append(lucas[-1] + lucas[-2])
    assert [count_cyclic_words(gm, n) for n in range(1, 13)] == lucas[1:13]
    assert count_cyclic_words(gm, 12) == 322


def test_language_of_non_nearest_neighbour_system(Z):
    # forbid 1?1 over a gap window: locally admissible patterns on {0,1,2}
    sys = SymbolicSystem(("0", "1"), Z, forbidden=[(((0,), (2,)), ("1", "1"))])
    w = sys.interval_window(0, 2)
    assert sys.language_values(w) == brute_force_language(sys, w)
    assert sys.count_language(w) == len(brute_force_language(sys, w)) == 6
    # the counter reads any reach; the cyclic-word oracle only words of length <= 2
    with pytest.raises(UnsupportedOperationError):
        count_cyclic_words(sys, 3)


def hard_square(Z2):
    return SymbolicSystem(("0", "1"), Z2, forbidden=[(((0, 0), (1, 0)), ("1", "1")),
                                                     (((0, 0), (0, 1)), ("1", "1"))])


def box(system, shape, at=None):
    at = at or (0,) * len(shape)
    return system.window(itertools.product(*(range(a, a + n) for a, n in zip(at, shape))))


def test_hard_square_counts_a006506(Z2):
    hs = hard_square(Z2)
    for n, expected in enumerate(A006506, start=1):
        assert hs.count_language(box(hs, (n, n))) == expected, n


def test_box_shape_and_reach_checks(Z2):
    """Windows that are not boxes are counted as boxes are."""
    hs = hard_square(Z2)
    for elements in ([(0, 0), (1, 1)], [(0, 0), (0, 1), (1, 0)],
                     [(0, 0), (2, 0), (1, 1), (1, 2), (2, 1), (3, 3)]):
        w = hs.window(elements)
        assert hs.count_language(w) == len(hs.language_values(w)), elements
    assert hs.count_language(hs.window([(0, 0), (0, 1), (1, 0)])) == 5
    assert hs.count_language(box(hs, (2, 3), at=(-1, 4))) == 17
    free = full_shift(("0", "1"), Z2)
    assert free.count_language(box(free, (3, 4))) == 2 ** 12


def test_box_language_budget_cut_raises(Z2):
    """The counter charges one node per (state, symbol) tried, 586 on the
    5x5 hard-square box: one node short raises, never a count."""
    hs = hard_square(Z2)
    for budget in (1, 585):
        with pytest.raises(ResourceBudgetError, match="language count"):
            hs.count_language(box(hs, (5, 5)), budget=budget)
    assert hs.count_language(box(hs, (5, 5)), budget=586) == 55447
    assert not hs._language_cache  # a count lists and caches no pattern


def test_cached_language_keeps_the_callers_budget(Z2):
    """The 3x3 box's 63 patterns take 246 nodes to enumerate: a budget
    below that raises on a fresh system and again once the language is
    cached, so a warm cache moves no cut point."""
    hs = hard_square(Z2)
    w = box(hs, (3, 3))
    with pytest.raises(ResourceBudgetError, match="language"):
        hs.language_values(w, budget=1)
    assert len(hs.language_values(w)) == 63
    for budget in (1, 245):
        with pytest.raises(ResourceBudgetError, match="language"):
            hs.language_values(w, budget=budget)
    assert len(hs.language_values(w, budget=246)) == 63
    fresh = hard_square(Z2)
    with pytest.raises(ResourceBudgetError, match="language"):
        fresh.language_values(box(fresh, (3, 3)), budget=245)
    assert len(fresh.language_values(box(fresh, (3, 3)), budget=246)) == 63
    assert _prefix_nodes(fresh, box(fresh, (3, 3))) == 246


# random SFTs whose forbidden shapes lie within two consecutive slices;
# module-level groups, so hypothesis draws no function-scoped fixtures
Z1_GROUP = LatticeGroup(1)
Z2_GROUP = LatticeGroup(2)


@st.composite
def _two_slice_systems(draw, rank, reach=range(-1, 2)):
    """Alphabet and forbidden patterns with cells in reach^(rank-1) x {0, 1}."""
    alphabet = ("0", "1", "2")[:draw(st.integers(2, 3))]
    cells = list(itertools.product(*([reach] * (rank - 1) + [range(2)])))
    forbidden = []
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3, unique=True))
        values = draw(st.lists(st.sampled_from(alphabet), min_size=len(shape),
                               max_size=len(shape)))
        forbidden.append((shape, values))
    return alphabet, forbidden


def brute_force_cyclic_words(system, n):
    """Independent oracle: the words of length n whose periodic extension
    holds no translate of a forbidden pattern."""
    return sum(
        not any(all(w[(g[0] + t) % n] == v for g, v in zip(elems, vals))
                for elems, vals in system.forbidden for t in range(n))
        for w in itertools.product(system.alphabet, repeat=n))


@settings(max_examples=60, deadline=None)
@given(_two_slice_systems(1), st.integers(1, 8))
def test_cyclic_words_match_brute_force(drawn, n):
    alphabet, forbidden = drawn
    system = SymbolicSystem(alphabet, Z1_GROUP, forbidden=forbidden)
    assert count_cyclic_words(system, n) == brute_force_cyclic_words(system, n)


@settings(max_examples=40, deadline=None)
@given(_two_slice_systems(2, reach=range(2)), st.integers(1, 4), st.integers(1, 4))
def test_row_and_column_transfer_agree(drawn, width, height):
    """Transposing the system and the box swaps row for column transfer."""
    alphabet, forbidden = drawn
    system = SymbolicSystem(alphabet, Z2_GROUP, forbidden=forbidden)
    transposed = SymbolicSystem(alphabet, Z2_GROUP, forbidden=[
        ([(y, x) for x, y in shape], values) for shape, values in forbidden])
    assert (system.count_language(box(system, (width, height)))
            == transposed.count_language(box(transposed, (height, width))))


def test_row_and_column_transfer_agree_on_hard_squares(Z2):
    hs = hard_square(Z2)
    assert hs.count_language(box(hs, (3, 7))) == hs.count_language(box(hs, (7, 3)))
    # an asymmetric system: horizontal 11 and vertical 10 forbidden
    asym = SymbolicSystem(("0", "1"), Z2, forbidden=[(((0, 0), (1, 0)), ("1", "1")),
                                                     (((0, 0), (0, 1)), ("1", "0"))])
    flip = SymbolicSystem(("0", "1"), Z2, forbidden=[(((0, 0), (0, 1)), ("1", "1")),
                                                     (((0, 0), (1, 0)), ("1", "0"))])
    for rows, cols in ((2, 5), (3, 4), (4, 6)):
        assert (asym.count_language(box(asym, (cols, rows)))
                == flip.count_language(box(flip, (rows, cols)))
                == len(asym.language_values(box(asym, (cols, rows)))))


# random forbidden sets on four groups, against the brute-force oracle
F2_GROUP = FreeGroup(2)
_POOLS = [  # each group, with the elements windows and forbidden shapes are drawn from
    (Z1_GROUP, [(i,) for i in range(-2, 4)]),
    (Z2_GROUP, list(itertools.product(range(-1, 2), repeat=2))),
    (F2_GROUP, list(itertools.islice(F2_GROUP.enumerate_elements(), 17))),  # length <= 2
    (FiniteTableGroup.cyclic(5), list(range(5))),
]


@st.composite
def _forbidden_instances(draw):
    """A system with 0-4 forbidden patterns of 1-3 sites (one-site ones and
    repeats included) and a window of up to 6 sites, gaps allowed."""
    group, pool = draw(st.sampled_from(_POOLS))
    alphabet = ("0", "1", "2")[:draw(st.integers(2, 3))]
    forbidden = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        values = draw(st.lists(st.sampled_from(alphabet), min_size=len(shape),
                               max_size=len(shape)))
        forbidden.append((shape, values))
    if forbidden and draw(st.booleans()):
        forbidden.append(draw(st.sampled_from(forbidden)))
    system = SymbolicSystem(alphabet, group, forbidden=forbidden)
    return system, system.window(draw(st.lists(st.sampled_from(pool), min_size=1,
                                               max_size=6, unique=True)))


def _prefix_nodes(system, window):
    """Symbols tried by a depth-first enumeration: |A| per prefix on the
    first j < m sites that holds no whole forbidden translate."""
    elems = window.elements
    prefixes = 1 + sum(len(brute_force_language(system, system.window(elems[:j])))
                       for j in range(1, len(elems)))
    return len(system.alphabet) * prefixes


@settings(max_examples=150, deadline=None)
@given(_forbidden_instances())
def test_language_matches_brute_force_on_every_group(instance):
    system, window = instance
    assert system.language_values(window) == brute_force_language(system, window)
    assert system._language_cache[window.elements][0] == _prefix_nodes(system, window)


@settings(max_examples=150, deadline=None)
@given(_forbidden_instances())
def test_count_language_matches_enumerator(instance):
    system, window = instance
    assert system.count_language(window) == len(system.language_values(window))


def test_one_site_slices(Z, Z2):
    """Width-1 boxes and cyclic words cut the box into one-site slices."""
    hs = hard_square(Z2)
    fib = [1, 2]
    for _ in range(8):
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 9):
        assert hs.count_language(box(hs, (n, 1))) == fib[n], n  # F(n + 2)
        assert hs.count_language(box(hs, (1, n))) == fib[n], n
    # a one-site ban ("2" nowhere) beside 11 leaves the golden mean's necklaces
    banned = SymbolicSystem(("0", "1", "2"), Z, forbidden=[(((0,),), ("2",)),
                                                           (((0,), (1,)), ("1", "1"))])
    lucas = [2, 1]
    for _ in range(10):
        lucas.append(lucas[-1] + lucas[-2])
    assert [count_cyclic_words(banned, n) for n in range(1, 11)] == lucas[1:11]
    assert banned.count_language(banned.interval_window(0, 9)) == 144  # F(12)


def test_act_examples(gm):
    w = gm.interval_window(0, 2)
    p = gm.pattern(w, ("0", "1", "1"))
    q = gm.act(1, p)
    assert sorted(g[0] for g in q.window.elements) == [-1, 0, 1]
    assert q.value_at((-1,)) == "0" and q.value_at((0,)) == "1" and q.value_at((1,)) == "1"
    assert gm.act(0, p) == p


def test_act_composition(gm):
    w = gm.interval_window(0, 3)
    p = gm.pattern(w, ("0", "1", "0", "0"))
    for g in (-2, 1, 3):
        for h in (-1, 2):
            assert gm.act(g, gm.act(h, p)) == gm.act(g + h, p)


def test_rho_examples(fs):
    w = fs.interval_window(-2, 2)
    same = fs.pattern(w, ("0",) * 5)
    lo, hi = fs.rho(same, same)
    assert lo == 0 and hi == w.tail
    origin_flip = fs.pattern(w, dict(zip([(g,) for g in range(-2, 3)],
                                         ["0", "0", "1", "0", "0"])))
    lo, hi = fs.rho(same, origin_flip)
    assert lo == Fraction(1, 2)  # identity coordinate carries weight 1/2
    everywhere = fs.pattern(w, ("1",) * 5)
    lo, hi = fs.rho(same, everywhere)
    assert lo == w.mass and hi == w.mass + w.tail


def test_pattern_assignment_must_cover_the_window_exactly(fs):
    w = fs.interval_window(0, 1)
    assert fs.pattern(w, {0: "0", 1: "1"}) == fs.pattern(w, ("0", "1"))
    for assignment in ({0: "0"}, {0: "0", 1: "1", 2: "0"}):
        with pytest.raises(ArgumentError, match="each window element"):
            fs.pattern(w, assignment)


def test_rho_window_mismatch(fs):
    p = fs.pattern(fs.interval_window(0, 1), ("0", "0"))
    q = fs.pattern(fs.interval_window(0, 2), ("0", "0", "0"))
    with pytest.raises(ArgumentError):
        fs.rho(p, q)


def test_rho_tail_monotone_under_window_growth(fs):
    prev = None
    for m in range(1, 6):
        w = fs.interval_window(-m, m)
        assert prev is None or w.tail < prev
        prev = w.tail
    # dyadic enumeration: symmetric interval tails are exactly 2^-(2m+1)
    assert fs.interval_window(-2, 2).tail == Fraction(1, 32)


def test_default_weights_total_one(fs, Z3):
    w = fs.interval_window(-8, 8)
    assert w.mass + w.tail == 1
    finite_sys = full_shift(("a", "b"), Z3)
    wf = finite_sys.window([0, 1, 2])
    assert wf.tail == 0  # whole group resolved: no unseen coordinates


def test_cylinder_measures(fs, skew):
    w = fs.interval_window(0, 2)
    assert skew.cylinder(fs.pattern(w, ("0", "1", "0"))) == Fraction(63, 1000)
    fair = BernoulliMeasure(fs, ["0.5", "0.5"])
    assert fair.cylinder(fs.pattern(w, ("1", "1", "0"))) == Fraction(1, 8)


def test_markov_cylinders_and_stationarity(gm, gm_rational_markov):
    mk = gm_rational_markov
    assert mk.initial == {"0": Fraction(3, 4), "1": Fraction(1, 4)}
    w = gm.interval_window(0, 1)
    assert mk.cylinder(gm.pattern(w, ("0", "1"))) == Fraction(1, 4)
    assert mk.cylinder(gm.pattern(w, ("1", "1"))) == 0
    with pytest.raises(ArgumentError):
        MarkovMeasure(gm, ["0.5", "0.5"],
                      {"0": {"0": "0.5", "1": "0.5"}, "1": {"0": 1, "1": 0}})


@pytest.mark.parametrize("build", [
    lambda gm: BernoulliMeasure(gm, ["1/2", "1/4", "1/4"]),
    lambda gm: MarkovMeasure(gm, ["1"], [["1", "0"], ["1", "0"]]),
    lambda gm: MarkovMeasure.stationary(gm, [["1/2", "1/2"]]),
    lambda gm: MarkovMeasure.stationary(gm, {"0": {"0": "1/2", "1": "1/2"}}),
    lambda gm: MarkovMeasure.stationary(gm, {"0": ["1/2", "1/2"], "1": 1})],
    ids=["bernoulli-length", "initial-length", "row-count", "row-missing", "row-scalar"])
def test_measures_refuse_a_vector_that_is_not_one_per_symbol(gm, build):
    """A per-symbol vector or transition row of the wrong length, or a row
    that is missing or not a sequence, is refused by name."""
    with pytest.raises(ArgumentError, match="need one probability per symbol"):
        build(gm)


def test_markov_needs_interval_window(gm, gm_rational_markov):
    w = gm.window([0, 2])
    with pytest.raises(UnsupportedOperationError):
        gm_rational_markov.cylinder(gm.pattern(w, ("0", "0")))


def test_markov_entropy_rate_parry(parry):
    assert abs(parry.entropy_rate() - math.log((1 + 5 ** 0.5) / 2)) < 1e-12


def test_integrate_examples(fs, skew):
    w0 = fs.window([0])
    f = TestFunction.indicator(fs.pattern(w0, ("0",)))
    assert integrate(skew, f) == Fraction(3, 10)
    const = TestFunction(w0, {("0",): "0.8", ("1",): "0.8"})
    assert integrate(skew, const) == Fraction(4, 5)
    w01 = fs.interval_window(0, 1)
    f01 = TestFunction.indicator(fs.pattern(w01, ("0", "1")))
    fair = BernoulliMeasure(fs, ["0.5", "0.5"])
    assert integrate(fair, f01) == Fraction(1, 4)


def test_integrate_shift_invariance(fs, skew, gm, gm_rational_markov):
    w = fs.interval_window(0, 1)
    f = TestFunction.indicator(fs.pattern(w, ("0", "1")))
    base = integrate(skew, f)
    for g in range(-3, 4):
        assert abs(integrate(skew, f.translate(g)) - base) == 0  # exact rationals
    fm = TestFunction.indicator(gm.pattern(gm.interval_window(0, 1), ("0", "1")))
    base_m = integrate(gm_rational_markov, fm)
    for g in range(-2, 3):
        assert integrate(gm_rational_markov, fm.translate(g)) == base_m


def test_probabilities_validated(fs):
    with pytest.raises(ArgumentError):
        BernoulliMeasure(fs, ["0.5", "0.6"])
    with pytest.raises(ArgumentError):
        BernoulliMeasure(fs, ["0.5"])


def test_as_fraction_decimal_semantics():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(2) == 2
    # a bool is no number, and a NaN or an infinity no exact one
    for x in (True, False, math.nan, math.inf, -math.inf, "nan", "1/0"):
        with pytest.raises(ArgumentError, match="exact number"):
            as_fraction(x)


def test_count_microstates_refuses_a_bool_delta(fs, fs_origin):
    from soficlab import count_microstates, cyclic_model

    with pytest.raises(ArgumentError, match="exact number"):
        count_microstates(fs, [1], True, cyclic_model(fs.group, 4), fs.interval_window(0, 1),
                          fs_origin)


def test_metric_independence_nesting(fs):
    """Two compatible metrics: microstate sets built from one set of weights
    nest inside the sets of the other at related tolerances."""
    from soficlab import cyclic_model
    from soficlab.microstates import enumerate_microstates_both

    alt_weights = MetricWeights(fs.group,
                                weight_fn=lambda g: Fraction(1, 4 ** (abs(g[0]) + 1)),
                                total=Fraction(2, 3))
    alt = full_shift(("0", "1"), fs.group, weights=alt_weights)
    sigma = cyclic_model(fs.group, 4)
    deltas = [Fraction(1, 64), Fraction(1, 16), Fraction(1, 4), Fraction(1, 2)]
    sets_w = {}
    sets_alt = {}
    for d in deltas:
        w1 = fs.interval_window(-1, 1)
        w2 = alt.interval_window(-1, 1)
        sets_w[d] = set(enumerate_microstates_both(fs, [1], d, sigma, w1)[1].tuples)
        sets_alt[d] = set(enumerate_microstates_both(alt, [1], d, sigma, w2)[1].tuples)
    for d2 in deltas:
        assert any(sets_w[d1] <= sets_alt[d2] for d1 in deltas if d1 <= d2), d2
        assert any(sets_alt[d1] <= sets_w[d2] for d1 in deltas if d1 <= d2), d2


def test_language_budget_carries_partial_results(gm):
    from soficlab import ResourceBudgetError

    fresh = golden_mean_system()  # avoid the shared fixture's cache
    w = fresh.interval_window(0, 5)
    with pytest.raises(ResourceBudgetError) as info:
        fresh.language_values(w, budget=9)

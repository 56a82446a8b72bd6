import itertools
import math
from fractions import Fraction

import pytest

from soficlab import (ArgumentError, BernoulliMeasure, MarkovMeasure, MetricWeights,
                      SymbolicSystem, TestFunction, UnsupportedOperationError,
                      as_fraction, count_cyclic_words, count_words,
                      full_shift, golden_mean_system, integrate)


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
    for n in range(1, 15):
        assert count_words(gm, n) == len(gm.language_values(gm.interval_window(0, n - 1)))
    assert count_cyclic_words(gm, 12) == 322


def test_language_of_non_nearest_neighbour_system(Z):
    # forbid 1?1 over a gap window: locally admissible patterns on {0,1,2}
    sys = SymbolicSystem(("0", "1"), Z, forbidden=[(((0,), (2,)), ("1", "1"))])
    w = sys.interval_window(0, 2)
    assert sys.language_values(w) == brute_force_language(sys, w)
    with pytest.raises(UnsupportedOperationError):
        count_words(sys, 3)


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


def test_metric_independence_nesting(fs):
    """Two compatible metrics: microstate sets built from one set of weights
    nest inside the sets of the other at related tolerances."""
    from soficlab import LatticeGroup, cyclic_model, enumerate_microstates_both

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
    assert info.value.dp_prunable
    assert isinstance(info.value.partial, tuple)

import ast
import collections
import contextlib
import gc
import inspect
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soficlab._frontier
import soficlab.microstates
from soficlab import (ArgumentError, BernoulliMeasure, Cover, FiniteSubset, FiniteTableGroup,
                      FreeGroup, LatticeGroup, MarkovMeasure, MeasureFilter, MicrostateCounts,
                      ResourceBudgetError, SoficMap, SymbolicSystem, TestFunction, TupleCounts,
                      check_amenable_agreement,
                      check_variational, count_microstates, counting_method, cyclic_model,
                      exact_min_cover, folner_set, from_folner, full_shift, golden_mean_system,
                      origin_partition, random_free_model, regular_representation,
                      select_dominant_measure, sofic_measure_trace, sofic_topological_trace,
                      zero_defect_delta)
from soficlab.microstates import (count_cover, enumerate_microstates_both, filter_microstates,
                                  microstate_check)


def test_check_exact_equivariance_periodic_point(fs):
    """Shifts of a period-4 point under the matching cyclic sigma: the lower
    distance bound vanishes, the upper carries only the window tail."""
    sigma = cyclic_model(fs.group, 4)
    w = fs.interval_window(-2, 2)
    base = "0110"  # period-4 point ... 0 1 1 0 0 1 1 0 ...
    tuples = []
    for i in range(4):
        p = fs.pattern(w, {(g,): base[(g + i) % 4] for g in range(-2, 3)})
        tuples.append(p.values)
    assert microstate_check(fs, tuples, [1], "0.001", sigma, w, mode="outer")
    # inner mode needs delta above the comparison-window tail
    w1_tail = 1 - w.mass + Fraction(1, 32)  # tail(W_1): drops the g=2 weight
    assert not microstate_check(fs, tuples, [1], "0.001", sigma, w, mode="inner")
    assert microstate_check(fs, tuples, [1], Fraction(1, 8), sigma, w, mode="inner")


def test_check_constant_tuple_collapses(fs):
    sigma = cyclic_model(fs.group, 5)
    w = fs.interval_window(-1, 1)
    constant = [("0", "0", "1")] * 5  # s.x != x: mismatch weight at g=0 is 1/2*...
    # distance lo for s=1: compare x at g+1 with x at g on W_1={-1,0}
    # pattern (g=-1:'0', 0:'0', 1:'1'): mismatch at g=0 (x_1='1' vs x_0='0'),
    # weight w(0)=1/2: lo = 1/2, value = 1/2
    assert microstate_check(fs, constant, [1], "0.51", sigma, w, mode="outer")
    assert not microstate_check(fs, constant, [1], "0.5", sigma, w, mode="outer")


def test_check_single_mismatch_arithmetic(gm):
    """One mismatched coordinate contributes w^2/d inside the square root."""
    sigma = cyclic_model(gm.group, 6)
    w = gm.interval_window(0, 1)
    walk = ["00"] * 6
    walk = [tuple("00")] * 5 + [tuple("01")]  # breaks two dominoes on the cycle
    # exact threshold: contributions at pairs (5,6) and (6,1)
    # pair (5,6): x_5 at 1 = '0' vs x_6 at 0 = '0' -> match
    # pair (6,1): x_6 at 1 = '1' vs x_1 at 0 = '0' -> mismatch, weight 1/2
    value = math.sqrt((1 / 6) * 0.25)
    assert microstate_check(gm, walk, [1], str(value + 1e-9), sigma, w, mode="outer")
    assert not microstate_check(gm, walk, [1], str(value - 1e-9), sigma, w, mode="outer")


def test_window_too_small_raises(fs):
    sigma = cyclic_model(fs.group, 4)
    w = fs.window([0])
    with pytest.raises(ArgumentError, match="nlarge"):
        microstate_check(fs, [("0",)] * 4, [1], "0.5", sigma, w)


def test_zero_defect_enumeration_is_walk_set(fs, fs_origin):
    sigma = cyclic_model(fs.group, 4)
    w = fs.interval_window(0, 1)
    delta = zero_defect_delta(fs, w, [1], 4)
    inner, outer = enumerate_microstates_both(fs, [1], delta, sigma, w)
    assert len(outer) == 16  # one tuple per binary necklace of length 4
    assert len(inner) == 0  # tail(W_1) = 1/2 dominates any tolerance this small
    assert count_cover(outer, fs_origin) == 16


def test_vacuous_delta_gives_full_product(fs, fs_origin):
    sigma = cyclic_model(fs.group, 3)
    w = fs.interval_window(0, 1)
    inner, outer = enumerate_microstates_both(fs, [1], "2", sigma, w)
    assert len(outer) == len(fs.language_values(w)) ** 3  # 4^3
    assert len(inner) == len(outer)  # delta exceeds mass + tail
    assert count_cover(outer, fs_origin) == 8


def test_naive_equals_pruned_exhaustive(fs, gm):
    """DP-pruned enumeration equals the naive |A|^d scan bit for bit."""
    for system in (fs, gm):
        w = system.interval_window(0, 1)
        for d in (2, 3, 4):
            sigma = cyclic_model(system.group, d)
            for delta in ("0.05", "0.2", "0.4", "0.8"):
                got = enumerate_microstates_both(system, [1], delta, sigma, w)
                ref = enumerate_microstates_both(system, [1], delta, sigma, w,
                                                 strategy="naive")
                assert got[0].tuples == ref[0].tuples
                assert got[1].tuples == ref[1].tuples


def test_antitone_in_F(fs):
    sigma = cyclic_model(fs.group, 4)
    w = fs.interval_window(-2, 2)
    small = enumerate_microstates_both(fs, [1], "0.3", sigma, w)[1]
    large = enumerate_microstates_both(fs, [1, 2], "0.3", sigma, w)[1]
    assert set(large.tuples) <= set(small.tuples)


def test_antitone_in_delta(fs):
    sigma = cyclic_model(fs.group, 4)
    w = fs.interval_window(0, 1)
    prev = None
    for delta in ("0.9", "0.5", "0.3", "0.1"):
        cur = set(enumerate_microstates_both(fs, [1], delta, sigma, w)[1].tuples)
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_mode_sandwich(fs):
    sigma = cyclic_model(fs.group, 4)
    w = fs.interval_window(-1, 1)
    inner, outer = enumerate_microstates_both(fs, [1], "0.6", sigma, w)
    assert set(inner.tuples) <= set(outer.tuples)
    assert len(inner) > 0  # nontrivial at this tolerance


def test_filter_containment_and_binomial_count(fs, fair, fs_origin):
    sigma = cyclic_model(fs.group, 10)
    w = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w, ("0",)))
    mf = MeasureFilter.build(fair, [f0], "0.2")
    unfiltered = enumerate_microstates_both(fs, [0], "1.0", sigma, w)[1]
    filtered = enumerate_microstates_both(fs, [0], "1.0", sigma, w,
                                          measure_filter=mf)[1]
    assert set(filtered.tuples) <= set(unfiltered.tuples)
    expected = sum(math.comb(10, k) for k in (4, 5, 6))
    assert len(filtered) == expected
    assert count_cover(filtered, fs_origin) == expected
    # filtering afterwards gives the same set
    assert filter_microstates(unfiltered, mf).tuples == filtered.tuples


def test_incompatible_filter_empties(fs, fs_origin):
    point = BernoulliMeasure(fs, [1, 0])
    sigma = cyclic_model(fs.group, 4)
    w = fs.window([0])
    f1 = TestFunction.indicator(fs.pattern(w, ("1",)))
    # mu(f1) = 0 but every tuple has empirical average >= 0; delta tiny and
    # measure constrained: only the all-zeros tuple survives
    mf = MeasureFilter.build(point, [f1], "0.1")
    filtered = enumerate_microstates_both(fs, [0], "1.0", sigma, w,
                                          measure_filter=mf)[1]
    assert filtered.tuples == ((("0",),) * 4,)


def test_count_cover_necklace_oracle(gm, gm_origin):
    """Cell count against the transfer-matrix trace: Lucas numbers."""
    from soficlab import count_cyclic_words

    w = gm.interval_window(-2, 2)
    for d in (6, 9, 12):
        sigma = cyclic_model(gm.group, d)
        delta = zero_defect_delta(gm, w, [1], d)
        outer = enumerate_microstates_both(gm, [1], delta, sigma, w)[1]
        assert count_cover(outer, gm_origin) == count_cyclic_words(gm, d)


def test_count_cover_empty_set_is_zero(fs, fs_origin):
    sigma = cyclic_model(fs.group, 4)
    w = fs.interval_window(-1, 1)
    inner = enumerate_microstates_both(fs, [1], "0.001", sigma, w)[0]
    assert len(inner) == 0
    assert count_cover(inner, fs_origin) == 0


def test_count_cover_non_partition(fs):
    """Product-cover counting against a tiny hand-checkable instance."""
    from soficlab import Cover

    sigma = cyclic_model(fs.group, 2)
    w = fs.interval_window(0, 1)
    inner, outer = enumerate_microstates_both(fs, [1], "2", sigma, w)
    assert len(outer) == 16
    over = Cover(fs, fs.window([0]),
                 [[("0",), ("1",)], [("1",)]])
    # the element X alone covers every tuple
    assert count_cover(outer, over) == 1


def test_count_cover_matches_exhaustive_min_cover(fs):
    from soficlab import Cover, exact_min_cover

    sigma = cyclic_model(fs.group, 3)
    w = fs.interval_window(0, 1)
    _, outer = enumerate_microstates_both(fs, [1], "0.6", sigma, w)
    cover = Cover(fs, fs.window([0]), [[("0",)], [("0",), ("1",)]])
    got = count_cover(outer, cover)
    # oracle: enumerate every product cell directly and solve the set cover
    proj = [w.index[(0,)]]
    tuples = outer.tuples
    candidate_sets = []
    elements = [frozenset([("0",)]), frozenset([("0",), ("1",)])]
    for assign in itertools.product(range(2), repeat=3):
        covered = frozenset(
            k for k, t in enumerate(tuples)
            if all((t[j][proj[0]],) in elements[assign[j]] for j in range(3))
        )
        candidate_sets.append(covered)
    oracle = exact_min_cover(candidate_sets, range(len(tuples))).count
    assert got == oracle


def test_enumeration_budget_carries_partial(fs):
    from soficlab import ResourceBudgetError

    sigma = cyclic_model(fs.group, 6)
    w = fs.interval_window(0, 1)
    with pytest.raises(ResourceBudgetError) as info:
        enumerate_microstates_both(fs, [1], "2", sigma, w, budget=10)


def test_count_refinement_monotone_on_same_set(fs):
    from soficlab import Cover

    sigma = cyclic_model(fs.group, 4)
    w = fs.interval_window(0, 1)
    outer = enumerate_microstates_both(fs, [1], "0.6", sigma, w)[1]
    finer = Cover(fs, w, [[v] for v in fs.language_values(w)])  # singletons
    coarser = origin_partition(fs)
    assert count_cover(outer, finer) >= count_cover(outer, coarser)


def test_filtered_naive_equals_pruned(fs, fair):
    w = fs.interval_window(0, 1)
    w0 = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w0, ("0",)))
    for delta in ("0.2", "0.35"):
        mf = MeasureFilter.build(fair, [f0], delta)
        for d in (3, 4):
            sigma = cyclic_model(fs.group, d)
            got = enumerate_microstates_both(fs, [1], delta, sigma, w,
                                             measure_filter=mf)
            ref = enumerate_microstates_both(fs, [1], delta, sigma, w,
                                             measure_filter=mf, strategy="naive")
            assert got[0].tuples == ref[0].tuples
            assert got[1].tuples == ref[1].tuples


# streaming counter against the materialise-filter-count oracle ------------------

# module-level systems: hypothesis draws from them, so no function-scoped fixtures
STREAM_FS = full_shift(("0", "1"), LatticeGroup(1))
STREAM_GM = golden_mean_system()


def _product_cover_count(M, cover):
    """N(U^d, M) by brute force: every product cell, then the exact set cover."""
    proj = [M.window.index[g] for g in cover.window.elements]
    cells = [frozenset(k for k, t in enumerate(M.tuples)
                       if all(tuple(x[i] for i in proj) in cover.elements[c]
                              for x, c in zip(t, assign)))
             for assign in itertools.product(range(len(cover)), repeat=M.d)]
    result = exact_min_cover(cells, range(len(M)))
    assert result.exact
    return result.count


def _oracle_counts(inner, outer, cover):
    return MicrostateCounts(_product_cover_count(inner, cover), _product_cover_count(outer, cover))


def _m(counts):
    """(m_inner, m_outer) of counts, one counting DP each."""
    return counts.tuples("inner").m, counts.tuples("outer").m


@st.composite
def _instances(draw):
    system = draw(st.sampled_from([STREAM_FS, STREAM_GM]))
    window = system.interval_window(*draw(st.sampled_from([(0, 1), (-1, 1)])))
    general = draw(st.booleans())
    cover = _overlapping_cover(system) if general else origin_partition(system)
    # the exact product-cover search behind a general cover's count grows
    # fast with d (it runs out of budget at d = 4 on the full shift)
    d = draw(st.integers(2, 3 if general else 5 if len(window) == 2 else 4))
    if draw(st.booleans()):
        sigma = cyclic_model(system.group, d)
    else:
        perm = draw(st.permutations(range(d)))
        sigma = SoficMap(system.group, d, images={(1,): perm}, provenance="random")
    F = draw(st.sampled_from([[1], [1, 2]])) if len(window) == 3 else [1]
    delta = draw(st.sampled_from(["0.05", "0.2", "0.35", "0.6", "1"]))
    mf = None
    if draw(st.booleans()):
        at = system.window([draw(st.sampled_from([0, 1]))])
        f = TestFunction.indicator(system.pattern(at, ("0",)))
        probs = draw(st.sampled_from([["0.5", "0.5"], ["0.7", "0.3"], ["1", "0"]]))
        mf = MeasureFilter.build(BernoulliMeasure(system, probs), [f],
                                 draw(st.sampled_from(["0.1", "0.25", "0.5"])))
    return system, window, sigma, F, delta, mf, cover


def _overlapping_cover(system):
    """{x_0 = 0}, {x_1 = 0} and {a 1 in x_0 x_1}: a cover, not a partition."""
    w = system.interval_window(0, 1)
    lang = system.language_values(w)
    return Cover(system, w, [[v for v in lang if v[0] == "0"], [v for v in lang if v[1] == "0"],
                             [v for v in lang if "1" in v]])


def _two_sided_cover(system, sites):
    """{a 0 in x_a x_b} and {a 1 in x_a x_b} for two sites a, b: a cover,
    not a partition, whose product cover family holds at most 2^d sets."""
    w = system.window(sites)
    lang = system.language_values(w)
    return Cover(system, w, [[v for v in lang if "0" in v], [v for v in lang if "1" in v]])


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_streamed_counts_match_naive_oracle(instance):
    system, window, sigma, F, delta, mf, cover = instance
    inner, outer = enumerate_microstates_both(system, F, delta, sigma, window,
                                              strategy="naive")
    expected = _oracle_counts(inner, outer, cover)
    assert count_cover(outer, cover) == expected.n_outer
    filters = [mf] if mf is not None else []
    got, got_filtered = count_microstates(system, F, delta, sigma, window, cover,
                                          filters=filters)
    assert got == expected
    assert _m(got) == (len(inner), len(outer))
    assert len(inner) <= len(outer) and got.n_inner <= got.n_outer
    if mf is None:
        assert got_filtered == ()
        return
    f_inner, f_outer = filter_microstates(inner, mf), filter_microstates(outer, mf)
    expected_f = _oracle_counts(f_inner, f_outer, cover)
    assert got_filtered == (expected_f,)
    assert _m(got_filtered[0]) == (len(f_inner), len(f_outer))
    assert got.tuples("inner").filtered == (len(f_inner),)
    assert got.tuples("outer").filtered == (len(f_outer),)
    # the filter pruning the scan itself gives the same counts
    pruned = count_microstates(system, F, delta, sigma, window, cover, measure_filter=mf)
    assert pruned == (expected_f, ())
    assert _m(pruned[0]) == (len(f_inner), len(f_outer))
    assert len(f_inner) <= len(f_outer) <= len(outer)
    assert expected_f.n_inner <= expected_f.n_outer
    assert expected_f.n_inner <= got.n_inner and expected_f.n_outer <= got.n_outer


def test_unmatched_counts_the_microstates_no_filter_keeps(fs, fs_origin):
    """d = 8 full shift, 0-frequency filters around 1/4, 1/2 and 3/4 of
    width 0.15: only the all-0 and the all-1 tuple are near none of them."""
    sigma = cyclic_model(fs.group, 8)
    w = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w, ("0",)))
    filters = [MeasureFilter.build(BernoulliMeasure(fs, [p, 1 - p]), [f0], "0.15")
               for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
    got, got_filtered = count_microstates(fs, [0], "1.0", sigma, w, fs_origin,
                                          filters=filters)
    assert got == MicrostateCounts(256, 256)
    outer = got.tuples("outer")
    assert (outer.m, got.tuples("inner").m, outer.unmatched) == (256, 256, 2)
    # per filter, the number of 0s: none in the all-1 tuple, eight in the all-0
    assert sorted(outer.unmatched_sums) == [((0,),) * 3, ((8,),) * 3]
    assert all(c.tuples("outer")[1:] == ((), 0, ()) for c in got_filtered)
    # with no filters, no filter keeps any microstate
    got, _ = count_microstates(fs, [0], "1.0", sigma, w, fs_origin)
    assert got.tuples("outer") == TupleCounts(256, (), 256, ((),) * 5)


def test_general_cover_counts_through_count_cover(fs, fair):
    sigma = cyclic_model(fs.group, 3)
    w = fs.interval_window(0, 1)
    cover = Cover(fs, fs.window([0]), [[("0",)], [("0",), ("1",)]])
    mf = MeasureFilter.build(fair, [TestFunction.indicator(fs.pattern(fs.window([0]), ("0",)))],
                             "0.2")
    inner, outer = enumerate_microstates_both(fs, [1], "0.6", sigma, w)
    got, (got_f,) = count_microstates(fs, [1], "0.6", sigma, w, cover, filters=[mf])
    f_inner, f_outer = filter_microstates(inner, mf), filter_microstates(outer, mf)
    assert got == _oracle_counts(inner, outer, cover)
    assert got_f == _oracle_counts(f_inner, f_outer, cover)
    assert (_m(got), _m(got_f)) == ((len(inner), len(outer)), (len(f_inner), len(f_outer)))


def test_general_cover_search_honours_the_budget(fs):
    """The product-cover search behind a general cover runs under the
    caller's budget: at d = 3 the scan fits in 100 nodes, the search does
    not, and at the default budget the stage finishes."""
    sigma = cyclic_model(fs.group, 3)
    w = fs.interval_window(0, 1)
    cover = _overlapping_cover(fs)
    got, _ = count_microstates(fs, [1], "0.6", sigma, w, cover)
    assert (got.n_inner, got.n_outer, got.method) == (3, 8, "scan")
    with pytest.raises(ResourceBudgetError, match="count_cover search budget exceeded"):
        count_microstates(fs, [1], "0.6", sigma, w, cover, budget=100)


def test_stage_charges_scan_and_searches_to_one_budget(fs, fair, monkeypatch):
    """The scan and the product-cover searches of one stage (inner and
    outer, per tally) share the caller's budget: the nodes they charge never
    add up to more than it, and one node short of what the stage needs cuts
    it, although each part alone would fit.  A counting DP read after them
    is charged to the same budget, so at exactly what the stage needs it is
    cut."""
    sigma = cyclic_model(fs.group, 3)
    w = fs.interval_window(0, 1)
    cover = _overlapping_cover(fs)
    f0 = TestFunction.indicator(fs.pattern(fs.window([0]), ("0",)))
    filters = [MeasureFilter.build(fair, [f0], "0.2"), MeasureFilter.build(fair, [f0], "0.4")]
    charged = []
    scan, search = soficlab.microstates._scan, soficlab.microstates.exact_min_cover

    def charging_scan(*args):
        charged.append(scan(*args))
        return charged[-1]

    def charging_search(*args, **kwargs):
        result = search(*args, **kwargs)
        charged.append(result.nodes)
        return result

    monkeypatch.setattr(soficlab.microstates, "_scan", charging_scan)
    monkeypatch.setattr(soficlab.microstates, "exact_min_cover", charging_search)
    counts = count_microstates(fs, [1], "0.6", sigma, w, cover, filters=filters)
    assert len(charged) == 1 + 2 * 3  # the scan, then inner and outer per tally
    assert charged[0] >= counts[0].tuples("outer").m > 0  # the scan visits every microstate
    need = sum(charged)
    assert max(charged) < need - 1
    for budget in (need, need - 1, need // 2, charged[0] + 1, 100):
        charged.clear()
        try:
            assert count_microstates(fs, [1], "0.6", sigma, w, cover, filters=filters,
                                     budget=budget) == counts
            assert budget >= need
        except ResourceBudgetError:
            assert budget < need
        assert sum(charged) <= budget
    exact, _ = count_microstates(fs, [1], "0.6", sigma, w, cover, filters=filters, budget=need)
    with pytest.raises(ResourceBudgetError, match="merged-state DP budget exceeded"):
        exact.tuples("outer")


def test_scan_prunes_on_the_table_range_over_the_language(gm, gm_origin, parry, monkeypatch):
    """A test function's declared range may be wider than what it takes on
    the window language (here a default of 5 no pattern reaches); the
    pruning cut reads the table, so the scan visits the same nodes and the
    DP counts the same."""
    w = gm.interval_window(-1, 1)
    sigma = cyclic_model(gm.group, 5)
    at = gm.window([0])
    nodes = []
    scan = soficlab.microstates._scan
    monkeypatch.setattr(soficlab.microstates, "_scan",
                        lambda *args: nodes.append(scan(*args)) or nodes[-1])
    counts, sizes, m = [], [], []
    for default in (0, 5):
        f = TestFunction(at, {("0",): 1, ("1",): 0}, default=default)
        mf = MeasureFilter.build(parry, [f], "0.1")
        counts.append(count_microstates(gm, [1, 2], "0.3", sigma, w, gm_origin,
                                        measure_filter=mf))
        m.append(_m(counts[-1][0]))
        sizes.append(tuple(map(len, enumerate_microstates_both(gm, [1, 2], "0.3", sigma, w,
                                                               measure_filter=mf))))
    assert counts[0] == counts[1] and sizes[0] == sizes[1] == m[0] == m[1]
    assert nodes[0] == nodes[1]


def test_streaming_budget_cut_raises_and_trace_marks_row(fs, fs_origin):
    sigma = cyclic_model(fs.group, 6)
    w = fs.interval_window(0, 1)
    with pytest.raises(ResourceBudgetError):
        count_microstates(fs, [1], "2", sigma, w, fs_origin, budget=10)
    row = sofic_topological_trace(fs, fs_origin, [1], "2", [sigma], w, budget=10).rows[0]
    assert row.incomplete


def test_counting_leaves_no_reference_cycles(gm, gm_origin, parry):
    """Every call frees what it built without the cycle collector."""
    w = gm.interval_window(-2, 2)
    maps = [cyclic_model(gm.group, d) for d in (5, 6)]
    at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))

    def variational():
        check_variational(gm, gm_origin, [("parry", parry)], [at_origin], [1],
                          ["0.1"], maps, w)

    def topological():
        sofic_topological_trace(gm, gm_origin, [1], "0.1", maps, w)

    for run in (variational, topological):
        run()  # warm-up: caches filled on first use are not garbage
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


# merged-state DP on one cycle against the naive oracle ------------------------

NAIVE_TUPLES = 4096  # the naive oracle checks n^d tuples; keep it below this


def _lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@st.composite
def _cycle_instances(draw):
    """A stage the DP takes: a Z system, one shift s and a sigma_s that is one
    d-cycle (the cyclic model or a random cyclic order), with optional
    pruning and extra filters."""
    kind = draw(st.sampled_from(["golden-mean", "full", "random"]))
    if kind == "golden-mean":
        system = STREAM_GM
    else:
        alphabet = ("0", "1", "2")[:draw(st.integers(2, 3))]
        forbidden = []
        if kind == "random":
            words = draw(st.lists(st.tuples(st.sampled_from(alphabet), st.sampled_from(alphabet)),
                                  min_size=1, max_size=3, unique=True))
            forbidden = [(((0,), (1,)), w) for w in words]
        system = SymbolicSystem(alphabet, LatticeGroup(1), forbidden=forbidden)
    size = draw(st.integers(2, 5))
    start = draw(st.integers(1 - size, 0))
    window = system.interval_window(start, start + size - 1)
    n = len(system.language_values(window))
    d = draw(st.integers(1, 7))
    while d > 1 and n ** d > NAIVE_TUPLES:
        d -= 1
    s = draw(st.sampled_from([1, -1, 2] if size >= 3 else [1, -1]))
    if s != 2 and draw(st.booleans()):
        sigma = cyclic_model(system.group, d)
    else:
        cycle = draw(st.permutations(range(d)))
        perm = [0] * d
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        sigma = SoficMap(system.group, d, images={(s,): perm}, provenance="random")
    delta = draw(st.sampled_from([None, "0.05", "0.1", "0.2", "0.35", "0.6", "1", "2"]))
    if delta is None:
        delta = zero_defect_delta(system, window, [s], d)

    def measure_filter():
        k = len(system.alphabet)
        probs = draw(st.sampled_from([["0.5", "0.5"], ["0.7", "0.3"], ["1", "0"]] if k == 2
                                     else [["0.5", "0.25", "0.25"], ["0.2", "0.3", "0.5"]]))
        functions = []
        for _ in range(draw(st.integers(1, 2))):
            sites = draw(st.sampled_from([[g] for g in range(start, start + size)]
                                         + [[g, g + 1] for g in range(start, start + size - 1)]))
            values = [draw(st.sampled_from(system.alphabet)) for _ in sites]
            functions.append(TestFunction.indicator(system.pattern(system.window(sites),
                                                                   values)))
        return MeasureFilter.build(BernoulliMeasure(system, probs), functions,
                                   draw(st.sampled_from(["0.1", "0.25", "0.5"])))

    mf = measure_filter() if draw(st.booleans()) else None
    filters = [measure_filter() for _ in range(draw(st.integers(0, 2)))]
    return system, window, sigma, [s], delta, mf, filters


@settings(max_examples=80, deadline=None)
@given(_cycle_instances())
def test_cycle_dp_matches_naive_oracle(instance):
    _check_against_naive(*instance)


def _check_against_naive(system, window, sigma, F, delta, mf, filters, cover=None):
    """count_microstates' m, N, filtered counts and unmatched against the
    naive oracle; cover None is origin_partition.  A partition takes the
    DP, any other cover the scan."""
    if cover is None:
        cover = origin_partition(system)
    method = "dp" if cover.is_partition else "scan"
    got, got_filtered = count_microstates(system, F, delta, sigma, window, cover,
                                          measure_filter=mf, filters=filters)
    assert got.method == method and all(c.method == method for c in got_filtered)
    inner, outer = enumerate_microstates_both(system, F, delta, sigma, window,
                                              measure_filter=mf, strategy="naive")

    def oracle(inner, outer):
        return MicrostateCounts(count_cover(inner, cover), count_cover(outer, cover))

    assert got == oracle(inner, outer)
    for f, counts in zip(filters, got_filtered):
        assert counts == oracle(filter_microstates(inner, f), filter_microstates(outer, f))

    def sums(values):  # per filter, per test function: sum_i f(x_i), f read directly
        return tuple(tuple(sum(f(tuple(v[window.index[g]] for g in f.window.elements))
                               for v in values) for f in own.functions) for own in filters)

    for mode, M in (("inner", inner), ("outer", outer)):
        kept = [filter_microstates(M, f) for f in filters]
        sizes = got.tuples(mode)
        assert (sizes.m, sizes.filtered) == (len(M), tuple(map(len, kept)))
        for k, counts in zip(kept, got_filtered):
            assert counts.tuples(mode) == TupleCounts(len(k), (), 0, ())
        unmatched = set(M.rows).difference(*(k.rows for k in kept))
        assert sizes.unmatched == len(unmatched)
        assert len(sizes.unmatched_sums) == min(5, len(unmatched))
        naive = collections.Counter(sums(t) for t, row in zip(M.tuples, M.rows)
                                    if row in unmatched)
        assert collections.Counter(sizes.unmatched_sums) <= naive
        assert all(type(s) is Fraction
                   for found in sizes.unmatched_sums for own in found for s in own)


def _single_cycle_stages():
    """Stages off Z that the DP takes: Z/n under its regular representation
    (sigma_1 is the n-cycle), and F_2 under a random model whose sigma_a is
    one d-cycle (the seeds are picked for that)."""
    stages = []
    for n in (3, 4, 5, 6):
        group = FiniteTableGroup.cyclic(n)
        for label, system in (("full", full_shift(("0", "1"), group)),
                              ("golden", SymbolicSystem(("0", "1"), group,
                                                        forbidden=[((0, 1), ("1", "1"))]))):
            stages.append((f"Z{n}-{label}", system, system.window([0, 1]),
                           regular_representation(group), 1))
    for d, seed in ((3, 4), (4, 5), (5, 4), (6, 1)):
        group, sigma = random_free_model(2, d, seed)
        system = full_shift(("0", "1"), group)
        stages.append((f"F2-d{d}", system, system.window([(), (1,)]), sigma, (1,)))
    return stages


@pytest.mark.parametrize("stage", _single_cycle_stages(), ids=lambda stage: stage[0])
@pytest.mark.parametrize("delta", [None, "0.2", "0.35", "0.6", "1"])
def test_cycle_dp_on_finite_and_free_groups_matches_naive_oracle(stage, delta):
    """The DP needs one shift, a single d-cycle and a partition, not Z: on
    Z/n and F_2 it equals the naive oracle, with and without a pruning
    filter, and with two tally filters.  delta None is zero_defect_delta."""
    _, system, window, sigma, s = stage
    if delta is None:
        delta = zero_defect_delta(system, window, [s], sigma.d)
    assert counting_method(origin_partition(system)) == "dp"
    fair = BernoulliMeasure(system, ["0.5", "0.5"])
    at = [TestFunction.indicator(system.pattern(system.window([g]), ("0",)))
          for g in window.elements]
    mf = MeasureFilter.build(fair, at[:1], "0.25")
    filters = [MeasureFilter.build(fair, at, "0.2"), MeasureFilter.build(fair, at[1:], "0.4")]
    for prune in (None, mf):
        _check_against_naive(system, window, sigma, [s], delta, prune, filters)


def test_counting_method_names_the_path(gm, gm_origin, fs):
    """The DP runs on every partition cover, whatever sigma and F; only a
    general cover scans."""
    w = gm.interval_window(-1, 1)
    delta = "0.3"
    one_cycle = SoficMap(gm.group, 5, images={(1,): [3, 0, 4, 2, 1]}, provenance="random")
    two_cycles = SoficMap(gm.group, 5, images={(1,): [2, 0, 1, 4, 3]}, provenance="random")
    cases = [([1], cyclic_model(gm.group, 5), gm_origin, "dp"),
             ([1], one_cycle, gm_origin, "dp"),
             ([1], two_cycles, gm_origin, "dp"),
             ([1, 2], cyclic_model(gm.group, 5), gm_origin, "dp")]
    for F, sigma, cover, method in cases:
        assert counting_method(cover) == method
        assert count_microstates(gm, F, delta, sigma, w, cover)[0].method == method
        assert sofic_topological_trace(gm, cover, F, delta, [sigma], w).rows[0].method == method
    general = _overlapping_cover(fs)
    sigma = cyclic_model(fs.group, 3)
    got = count_microstates(fs, [1], delta, sigma, fs.interval_window(0, 1), general)[0]
    assert got.method == "scan" == counting_method(general)


def test_dp_budget_cut_raises_and_trace_marks_row(gm, gm_origin):
    sigma = cyclic_model(gm.group, 8)
    w = gm.interval_window(-2, 2)
    assert counting_method(gm_origin) == "dp"
    with pytest.raises(ResourceBudgetError, match="DP"):
        count_microstates(gm, [1], "0.1", sigma, w, gm_origin, budget=1000)
    row = sofic_topological_trace(gm, gm_origin, [1], "0.1", [sigma], w, budget=1000).rows[0]
    assert row.incomplete and row.method == "dp"
    assert (row.count_inner, row.count_outer) == (0, 0)


def test_dp_counts_d12_at_positive_delta_within_default_budget(gm, gm_origin):
    """Golden mean, window [-2, 2], delta = 1/10: the scan is cut at d = 9,
    the DP finishes d = 12.  At this tolerance the signatures are exactly
    the cyclic golden-mean words, L_d of them (checked against the scan for
    d = 6..8 by the benchmark's pinned 18/29/47)."""
    w = gm.interval_window(-2, 2)
    row = sofic_topological_trace(gm, gm_origin, [1], Fraction(1, 10),
                                  [cyclic_model(gm.group, 12)], w).rows[0]
    assert not row.incomplete and row.method == "dp"
    assert row.count_inner == row.count_outer == _lucas(12)


def test_dp_zero_defect_outer_is_lucas(gm, gm_origin):
    """At zero_defect_delta the outer microstates are the closed golden-mean
    walks: m_outer = n_outer = L_d, far past the scan's reach."""
    w = gm.interval_window(-2, 2)
    for d in (1, 2, 40, 64):
        got, _ = count_microstates(gm, [1], zero_defect_delta(gm, w, [1], d),
                                   cyclic_model(gm.group, d), w, gm_origin)
        assert got.method == "dp"
        assert got.tuples("outer").m == got.n_outer == _lucas(d)
        assert got.tuples("inner").m == got.n_inner == 0


# the frontier DP counts every partition stage ------------------------------


def _hard_core(group, generators):
    """Forbid 11 along each generator: independent sets of the sigma-graph."""
    e = group.identity
    return SymbolicSystem(("0", "1"), group,
                          forbidden=[((e, g), ("1", "1")) for g in generators])


def _frontier_systems():
    """(system, window, the shift sets F to draw from, sigma model(d) or None);
    the Z/n and Z^2 models have a size of their own."""
    out = {}
    for label, system in (("full", STREAM_FS), ("golden", STREAM_GM)):
        out[f"Z-{label}"] = (system, system.interval_window(-1, 1),
                             [[1], [-1], [2], [1, 2], [1, -1]],
                             lambda d, g=system.group: cyclic_model(g, d))
        out[f"Z-{label}-folner"] = (system, system.interval_window(0, 1), [[1]],
                                    lambda d, g=system.group: from_folner(g, folner_set(g, d)))
    Z2 = LatticeGroup(2)
    for label, system in (("full", full_shift(("0", "1"), Z2)),
                          ("hard-square", _hard_core(Z2, [(1, 0), (0, 1)]))):
        shifts = [[(1, 0)], [(0, 1)], [(1, 0), (0, 1)]]
        window = system.window([(0, 0), (1, 0), (0, 1)])
        out[f"Z2-{label}"] = (system, window, shifts, lambda d: cyclic_model(Z2, 2))
        out[f"Z2-{label}-folner"] = (system, window, shifts,
                                     lambda d: from_folner(Z2, folner_set(Z2, 2)))
    for n in (3, 4, 5):
        group = FiniteTableGroup.cyclic(n)
        system = _hard_core(group, [1])
        out[f"Z{n}-golden"] = (system, system.window([0, 1]), [[1], [n - 1], [1, n - 1]],
                               lambda d, g=group: regular_representation(g))
    F2 = FreeGroup(2)
    a, b = (1,), (2,)
    for label, system in (("full", full_shift(("0", "1"), F2)),
                          ("hard-core", _hard_core(F2, [a, b]))):
        out[f"F2-{label}"] = (system, system.window([(), a, b]), [[a], [b], [a, b]], None)
    return out


FRONTIER_SYSTEMS = _frontier_systems()


@st.composite
def _frontier_stages(draw, general=False):
    """Any stage the naive oracle can check: Z, Z^2, Z/n and F_2; one or
    two shifts; each sigma_s a single cycle, a permutation with several
    cycles, a self-map that is not a permutation, or the group's own model
    (cyclic, Folner identity fallback, regular, random free).  The cover is
    origin_partition, or if general a two-sided cover on two window sites."""
    name = draw(st.sampled_from(sorted(FRONTIER_SYSTEMS)))
    system, window, shift_sets, model = FRONTIER_SYSTEMS[name]
    F = draw(st.sampled_from(shift_sets))
    n = len(system.language_values(window))
    d = draw(st.integers(2, 6))
    while d > 2 and n ** d > NAIVE_TUPLES:
        d -= 1
    kind = draw(st.sampled_from(["model", "cycle", "permutation", "self-map"]))
    if kind == "model" and model is not None:
        sigma = model(d)
    elif kind == "model" and name.startswith("F2"):
        _, sigma = random_free_model(2, d, draw(st.integers(0, 50)))
        sigma = SoficMap(system.group, d, images={s: sigma.image_array(s) for s in F})
    else:
        images = {}
        for s in F:
            if kind == "cycle":
                cycle = draw(st.permutations(range(d)))
                image = [0] * d
                for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                    image[i] = j
            elif kind == "self-map":
                image = draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
            else:
                image = draw(st.permutations(range(d)))
            images[s] = image
        sigma = SoficMap(system.group, d, images=images, provenance="random")
    delta = draw(st.sampled_from([None, "0.1", "0.2", "0.35", "0.6", "1"]))
    if delta is None:
        delta = zero_defect_delta(system, window, F, sigma.d)
    fair = BernoulliMeasure(system, ["0.5", "0.5"])

    def measure_filter():
        sites = draw(st.lists(st.sampled_from(window.elements), min_size=1, max_size=2,
                              unique=True))
        functions = [TestFunction.indicator(system.pattern(system.window([g]),
                                                           (draw(st.sampled_from("01")),)))
                     for g in sites]
        return MeasureFilter.build(fair, functions, draw(st.sampled_from(["0.2", "0.3", "0.5"])))

    mf = measure_filter() if draw(st.booleans()) else None
    filters = [measure_filter() for _ in range(draw(st.integers(0, 2)))]
    cover = None
    if general:
        sites = draw(st.lists(st.sampled_from(window.elements), min_size=2, max_size=2,
                              unique=True))
        cover = _two_sided_cover(system, sites)
    return system, window, sigma, F, delta, mf, filters, cover


@settings(max_examples=200, deadline=None)
@given(_frontier_stages())
def test_frontier_dp_matches_naive_oracle(stage):
    """Every partition stage takes the DP, and its m, N, filtered counts,
    unmatched and unmatched_sums agree with the naive oracle's."""
    _check_against_naive(*stage)


@settings(max_examples=80, deadline=None)
@given(_frontier_stages(general=True))
def test_scan_matches_naive_oracle_on_every_stage_shape(stage):
    """The scan walks the frontier DP's steps on every stage shape: with a
    general cover it counts, and its m, N, filtered counts, unmatched and
    unmatched_sums agree with the naive oracle's."""
    _check_against_naive(*stage)


@st.composite
def _mixed_filter_stages(draw):
    """A stage of _frontier_stages whose one call mixes filters constant on
    cells (indicators at the origin, the site origin_partition reads) with
    filters holding a table that is not (an indicator at another window
    site, which each of these languages leaves free within a cell); the
    pruning filter is of either kind, or absent.  Returns the stage and the
    number of filters holding a table that is not constant on cells."""
    system, window, sigma, F, delta, _, _, _ = draw(_frontier_stages())
    origin = system.group.identity
    others = [g for g in window.elements if g != origin]
    fair = BernoulliMeasure(system, ["0.5", "0.5"])

    def measure_filter(constant):
        sites = [origin] if constant else draw(st.sampled_from(
            [[g] for g in others] + [[origin, g] for g in others]))
        functions = [TestFunction.indicator(system.pattern(system.window([g]),
                                                           (draw(st.sampled_from("01")),)))
                     for g in sites]
        return MeasureFilter.build(fair, functions, draw(st.sampled_from(["0.2", "0.3", "0.5"])))

    kinds = draw(st.permutations([True, False] + draw(st.lists(st.booleans(), max_size=1))))
    filters = [measure_filter(constant) for constant in kinds]
    prune = draw(st.sampled_from([None, True, False]))
    mf = None if prune is None else measure_filter(prune)
    return (system, window, sigma, F, delta, mf, filters, None), kinds.count(False)


@settings(max_examples=100, deadline=None)
@given(_mixed_filter_stages())
def test_one_signature_dp_tallies_every_filter_constant_on_cells(stage):
    """Filters constant on cells and filters that are not, in one call, with
    a pruning filter of either kind: the counts equal the naive oracle's,
    and the signature DP runs once for the unfiltered tally and every
    constant filter, plus once per filter holding another table."""
    stage, own_runs = stage
    signatures = soficlab._frontier._FrontierDP.signatures
    runs = []

    def spy(dp, *args, **kwargs):
        runs.append(1)
        return signatures(dp, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soficlab._frontier._FrontierDP, "signatures", spy)
        _check_against_naive(*stage)
    assert len(runs) == 1 + own_runs


@pytest.mark.parametrize("pruning", [True, False])
def test_filter_with_one_value_on_the_language_is_decided(pruning):
    """The golden mean never shows 11, so the indicator of 11 is 0 on every
    pattern: constant on cells, with one possible sum.  Its share must be
    near 1/4, so no microstate passes it, pruning or tallied."""
    window = STREAM_GM.interval_window(-1, 1)
    never = TestFunction.indicator(STREAM_GM.pattern(STREAM_GM.window([0, 1]), ("1", "1")))
    mf = MeasureFilter.build(BernoulliMeasure(STREAM_GM, ["0.5", "0.5"]), [never], "0.1")
    _check_against_naive(STREAM_GM, window, cyclic_model(STREAM_GM.group, 5), [1], "0.35",
                         mf if pruning else None, [] if pruning else [mf])


@pytest.mark.parametrize("system, window, F, images, delta", [
    (STREAM_GM, (0, 2), [1, -1], {1: [3, 0, 1, 4, 2], -1: [4, 3, 2, 0, 1]}, "0.35"),
    (STREAM_GM, (-1, 1), [1, -1], {1: [3, 2, 0, 1], -1: [1, 0, 2, 3]}, "0.5"),
    (STREAM_FS, (0, 2), [1, 2], {1: [2, 1, 3, 0], 2: [2, 0, 3, 1]}, "0.6"),
])
def test_frontier_dp_keeps_every_pareto_least_vector(system, window, F, images, delta):
    """Two shifts: a partial microstate cheap in one shift and another cheap
    in the other both have to be kept, since either may be the one that
    passes.  Keeping only the lexicographically least vector loses outer
    microstates in the first stage and inner ones in the other two."""
    d = len(images[1])
    sigma = SoficMap(STREAM_GM.group, d, images={(s,): image for s, image in images.items()},
                     provenance="random")
    _check_against_naive(system, system.interval_window(*window), sigma, F, delta, None, [])


def _cycle_image(cycle):
    """The permutation that sends each point of cycle to the next."""
    image = [0] * len(cycle)
    for i, j in zip(cycle, cycle[1:] + cycle[:1]):
        image[i] = j
    return tuple(image)


@contextlib.contextmanager
def _greedy_searches():
    """A list whose one item counts the greedy placement searches run in
    the block."""
    greedy = soficlab._frontier._greedy_placement
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return greedy(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soficlab._frontier, "_greedy_placement", counted)
        yield calls


def _placed(images, d):
    """_placement's (points, steps, closing) and how many greedy searches
    it ran."""
    with _greedy_searches() as calls:
        plan = soficlab._frontier._placement(images, d)
    return plan, calls[0]


def _check_cycle_plan(image, prefer_closed):
    """One d-cycle's plan is read off the cycle, is the greedy's exactly,
    places 0, sigma(0), sigma^2(0), ... with at most two points on the
    frontier, and is three step kinds, the d - 2 middle steps one object."""
    d = len(image)
    plan, calls = _placed([image], d)
    assert calls == 0
    assert plan == soficlab._frontier._greedy_placement([image], d, prefer_closed)
    order = [0]
    while len(order) < d:
        order.append(image[order[-1]])
    assert plan[0] == order
    assert max(step.width for step in plan[1]) == min(d, 3) - 1
    assert len(set(plan[1])) == min(d, 3)
    assert len({id(step) for step in plan[1][2:]}) == min(d - 2, 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40).flatmap(lambda d: st.permutations(range(d))), st.booleans())
def test_placement_follows_a_single_cycle(cycle, prefer_closed):
    """On any single d-cycle, not only a rotation, the plan read off the
    cycle equals the greedy elimination's steps and closing."""
    _check_cycle_plan(_cycle_image(cycle), prefer_closed)


def test_placement_reads_every_coprime_rotation_off_the_cycle():
    """Every rotation i -> i + k with gcd(k, d) = 1 is one d-cycle."""
    for d in range(2, 31):
        for k in range(1, d):
            if math.gcd(k, d) == 1:
                for prefer_closed in (False, True):
                    _check_cycle_plan(tuple((i + k) % d for i in range(d)), prefer_closed)


@pytest.mark.parametrize("images", [
    [(0,)],  # d = 1: a fixed point
    [(1, 2, 0, 4, 5, 3)],  # two 3-cycles
    [(1, 2, 3, 0, 4)],  # a 4-cycle and a fixed point
    [(1, 2, 0)] * 2,  # two shifts, each one cycle
    [(1, 2, 3, 4, 0), (2, 3, 4, 0, 1)],
    [(1, 2, 3, 1)],  # a self-map whose path from 0 never returns
    [(1, 0, 0)],  # and one whose does, too early
], ids=["d=1", "two-cycles", "fixed-point", "two-shifts", "two-rotations", "self-map",
        "short-return"])
def test_placement_runs_the_greedy_search_off_a_single_cycle(images):
    """Any sigma but one shift that is one d-cycle with d >= 2 takes the
    greedy search once, in the first tie order."""
    d = len(images[0])
    plan, calls = _placed(images, d)
    assert calls == 1
    assert plan == soficlab._frontier._greedy_placement(images, d, False)


def _greedy_searches_per_stage(system, window, F, sigmas):
    """The greedy placement searches each zero-defect stage runs, one
    trace per stage (its delta depends on d), all on one system."""
    searches = []
    for sigma in sigmas:
        delta = zero_defect_delta(system, window, F, sigma.d)
        with _greedy_searches() as calls:
            trace = sofic_topological_trace(system, origin_partition(system), F, delta,
                                            [sigma], window)
        assert not trace.rows[0].incomplete
        searches.append(calls[0])
    return searches


def test_a_cycle_stage_runs_no_greedy_search():
    """Golden mean, window [-2, 2], zero defect, d = 12, 14, ..., 22 on the
    cyclic model: with F = {1} sigma is one d-cycle, so no stage runs the
    greedy search, while F = {2} (two cycles at even d), F = {1, 2} (two
    shifts) and F_2 hard core on random_free_model still run it."""
    gm = golden_mean_system()
    window = gm.interval_window(-2, 2)
    models = [cyclic_model(gm.group, d) for d in range(12, 23, 2)]
    assert _greedy_searches_per_stage(gm, window, [1], models) == [0] * 6
    assert _greedy_searches_per_stage(gm, window, [2], models) == [1] * 6
    assert min(_greedy_searches_per_stage(gm, window, [1, 2], models)) >= 1
    F2 = FreeGroup(2)
    a, b = (1,), (2,)
    hard_core = _hard_core(F2, [a, b])
    free = [random_free_model(2, d, seed)[1] for d, seed in ((6, 1), (9, 2))]
    assert min(_greedy_searches_per_stage(hard_core, hard_core.window([(), a, b]), [a, b],
                                          free)) >= 1


def _independent_sets(d, edges):
    """Independent sets of a graph on range(d), by branching on a vertex of
    greatest degree; a self-loop keeps its vertex out of every set."""
    neighbours = [set() for _ in range(d)]
    looped = set()
    for i, j in edges:
        if i == j:
            looped.add(i)
        else:
            neighbours[i].add(j)
            neighbours[j].add(i)

    def count(free):
        if not free:
            return 1
        v = max(free, key=lambda u: (len(neighbours[u] & free), -u))
        rest = free - {v}
        if not neighbours[v] & free and v not in looped:
            return 2 * count(rest)
        return count(rest) + (0 if v in looped else count(rest - neighbours[v]))

    return count(frozenset(range(d)))


@pytest.mark.parametrize("d, seed", [(6, 1), (9, 2), (12, 1), (16, 3)])
def test_free_group_hard_core_zero_defect_counts_independent_sets(d, seed):
    """F_2 hard core (11 forbidden along a and b), window {e, a, b},
    F = {a, b}: at zero defect an outer microstate is an independent set of
    the Schreier graph of sigma, so N_outer is their number."""
    group, sigma = random_free_model(2, d, seed)
    a, b = (1,), (2,)
    system = _hard_core(group, [a, b])
    window = system.window([(), a, b])
    got, _ = count_microstates(system, [a, b], zero_defect_delta(system, window, [a, b], d),
                               sigma, window, origin_partition(system))
    edges = [(i, perm[i]) for perm in (sigma.image_array(a), sigma.image_array(b))
             for i in range(d)]
    assert got.method == "dp"
    assert got.n_outer == _independent_sets(d, edges)


@pytest.mark.parametrize("d, mean", [(3, Fraction(7, 3)), (4, Fraction(41, 12))])
def test_free_group_hard_core_annealed_mean_is_exact(d, mean):
    """F_2 hard core at zero defect, averaged over all (d!)^2 pairs of
    permutations (sigma_a, sigma_b): N_outer is the mean number of
    independent sets of a uniform random Schreier graph.  A k-set is
    independent iff sigma_a and sigma_b each move it off itself, which each
    does with probability C(d - k, k) / C(d, k), so the mean is
    sum_k C(d - k, k)^2 / C(d, k), and its k-th term is the mean count of
    the microstates with k 1s at the origin (a filter at mu(1 at e) = k/d
    with tolerance 1/2d).  One system counts every pair, so the pairs whose
    plans are narrow share its cycle automaton."""
    F2 = FreeGroup(2)
    a, b = (1,), (2,)
    system = _hard_core(F2, [a, b])
    window, cover = system.window([(), a, b]), origin_partition(system)
    delta = zero_defect_delta(system, window, [a, b], d)
    one = TestFunction.indicator(system.pattern(system.window([()]), ("1",)))
    filters = [MeasureFilter.build(BernoulliMeasure(system, [1 - Fraction(k, d), Fraction(k, d)]),
                                   [one], Fraction(1, 2 * d)) for k in range(d + 1)]
    perms = list(itertools.permutations(range(d)))
    total, per_k = 0, [0] * (d + 1)
    for pa, pb in itertools.product(perms, repeat=2):
        got, found = count_microstates(system, [a, b], delta,
                                       SoficMap(F2, d, images={a: pa, b: pb}), window, cover,
                                       filters=filters)
        total += got.n_outer
        per_k = [m + c.n_outer for m, c in zip(per_k, found)]
    terms = [Fraction(math.comb(d - k, k) ** 2, math.comb(d, k)) for k in range(d + 1)]
    assert [Fraction(m, len(perms) ** 2) for m in per_k] == terms
    assert Fraction(total, len(perms) ** 2) == sum(terms) == mean


def _torus_hard_squares(n):
    """Independent sets of the n x n torus grid: the trace of T^n, where T
    joins two cyclic rows of length n without adjacent 1s if they share no 1
    (OEIS A027683)."""
    rows = [r for r in range(2 ** n) if not r & (r << 1 | r >> (n - 1)) & (2 ** n - 1)]
    power = [[int(i == j) for j in rows] for i in rows]
    for _ in range(n):
        power = [[sum(p for p, r in zip(line, rows) if not r & c) for c in rows]
                 for line in power]
    return sum(power[k][k] for k in range(len(rows)))


@pytest.mark.parametrize("n, expected", [(3, 34), (4, 743)])
def test_torus_hard_squares_match_the_transfer_trace(n, expected):
    """Hard squares on the cyclic model of Z^2 with side n, window
    {0, e1, e2}, F = {e1, e2}: at zero defect N_outer counts the
    independent sets of the torus grid, trace(T^n)."""
    Z2 = LatticeGroup(2)
    system = _hard_core(Z2, [(1, 0), (0, 1)])
    window = system.window([(0, 0), (1, 0), (0, 1)])
    F = [(1, 0), (0, 1)]
    got, _ = count_microstates(system, F, zero_defect_delta(system, window, F, n * n),
                               cyclic_model(Z2, n), window, origin_partition(system))
    assert got.method == "dp"
    assert got.n_outer == _torus_hard_squares(n) == expected


# the signature DP builds each map's successors once per cap ---------------------


@pytest.fixture
def built(monkeypatch):
    """The successor rows the signature DPs build from now on, one 1 a row."""
    successors = soficlab._frontier._FrontierDP._successors
    rows = []

    def spy(dp, *args):
        rows.append(1)
        return successors(dp, *args)

    monkeypatch.setattr(soficlab._frontier._FrontierDP, "_successors", spy)
    return rows


def _kept_memos(system):
    """The cycle automata the system's comparison plans hold: {(window,
    shifts, cells): _Automaton}, or None."""
    held = {key + (cells,): automaton for key, plan in system._plans.items()
            for cells, automaton in plan.automata.items()}
    return held or None


def test_signature_dp_builds_no_transition_once_the_maps_saturate(built):
    """Full shift, window [-2, 2], zero defect, each d on a fresh system: the
    reachable maps stop changing after a few steps, and from then on a step
    only looks up successors built before, so d = 64 builds no more than
    d = 16."""
    per_d = {}
    for d in (16, 64):
        fs = full_shift(("0", "1"), LatticeGroup(1))
        w = fs.interval_window(-2, 2)
        built.clear()
        got, _ = count_microstates(fs, [1], zero_defect_delta(fs, w, [1], d),
                                   cyclic_model(fs.group, d), w, origin_partition(fs))
        assert got.method == "dp" and got.n_outer == 2 ** d
        per_d[d] = len(built)
    assert 0 < per_d[64] <= per_d[16]


def test_signature_dp_memo_works_under_a_filter_constant_on_cells(built):
    """The same stages under a pruning filter constant on cells (the share
    of 1s at the origin): its sums ride beside the maps, so the maps still
    saturate and d = 64 builds no more successor rows than d = 16.  At zero
    defect a full-shift microstate is any word, so N_outer counts the words
    whose share of 1s is within delta of 1/2."""
    per_d = {}
    for d in (16, 64):
        fs = full_shift(("0", "1"), LatticeGroup(1))
        w = fs.interval_window(-2, 2)
        at_origin = TestFunction.indicator(fs.pattern(fs.window([0]), ("1",)))
        fair = BernoulliMeasure(fs, ["0.5", "0.5"])
        built.clear()
        delta = zero_defect_delta(fs, w, [1], d)
        row = sofic_measure_trace(fs, origin_partition(fs), fair, [at_origin], [1], delta,
                                  [cyclic_model(fs.group, d)], w).rows[0]
        expected = sum(math.comb(d, k) for k in range(d + 1)
                       if abs(Fraction(k, d) - Fraction(1, 2)) < delta)
        assert row.method == "dp" and not row.incomplete
        assert row.count_outer == expected > 0
        per_d[d] = len(built)
    assert 0 < per_d[64] <= per_d[16]


def test_signature_dp_memo_outlives_the_stage_on_a_cycle(built):
    """Golden mean, window [-2, 2], zero defect, d = 12, 14, ..., 22: the
    cap is the same at every d, so a trace over one system builds at most a
    quarter of the successor rows that a fresh system per stage builds, and
    counts the same."""
    stages = range(12, 23, 2)

    def rows_built(shared):
        built.clear()
        for d in stages:
            gm = shared or golden_mean_system()
            w = gm.interval_window(-2, 2)
            got, _ = count_microstates(gm, [1], zero_defect_delta(gm, w, [1], d),
                                       cyclic_model(gm.group, d), w, origin_partition(gm))
            assert got.n_outer == _lucas(d)
        return len(built)

    fresh = rows_built(None)
    assert 0 < 4 * rows_built(golden_mean_system()) <= fresh


def test_signature_dp_keeps_one_cap(built):
    """Golden mean, window [-2, 2], where d = 12 and d = 16 at delta = 1/10
    have different caps.  The first stage at a cap keeps every map's
    successors, so the same stage again builds no row.  The longer stage
    has the larger cap and replaces the held automaton with one at its
    cap; d = 12 after it reads that automaton through its own cap, builds
    no row and leaves it held.  A stage longer than any the automaton
    finished, d = 18 at delta = 1/20 (a smaller cap), replaces it again."""

    def stage(gm, d, delta="0.1"):
        built.clear()
        got, _ = count_microstates(gm, [1], delta, cyclic_model(gm.group, d),
                                   gm.interval_window(-2, 2), origin_partition(gm))
        assert got.n_outer == _lucas(d)
        (held,) = _kept_memos(gm).values()
        return len(built), held.cap

    fresh, cap = stage(golden_mean_system(), 12)
    gm = golden_mean_system()
    assert stage(gm, 12) == (fresh, cap) and fresh > 0
    assert stage(gm, 12) == (0, cap)
    rows, larger = stage(gm, 16)
    assert rows > 0 and larger > cap
    assert stage(gm, 12) == (0, larger)
    assert stage(gm, 18, "0.05") == stage(golden_mean_system(), 18, "0.05")
    assert stage(gm, 18, "0.05")[1] < larger


def test_wide_frontier_leaves_no_successor_memo():
    """The Z^2 torus of side 3 under hard squares has frontiers wider than
    two points: its stages, repeated at one cap, keep no successor memo on
    the system, while a cycle's do."""
    Z2 = LatticeGroup(2)
    system = _hard_core(Z2, [(1, 0), (0, 1)])
    window = system.window([(0, 0), (1, 0), (0, 1)])
    F = [(1, 0), (0, 1)]
    delta = zero_defect_delta(system, window, F, 9)
    for _ in range(2):
        got, _ = count_microstates(system, F, delta, cyclic_model(Z2, 3), window,
                                   origin_partition(system))
        assert got.n_outer == _torus_hard_squares(3)
    assert _kept_memos(system) is None
    gm = golden_mean_system()
    w = gm.interval_window(-1, 1)
    for _ in range(2):
        count_microstates(gm, [1], "0.1", cyclic_model(gm.group, 8), w, origin_partition(gm))
    assert _kept_memos(gm) is not None


def test_stage_with_a_table_in_the_keys_builds_each_row_once_a_step(built, monkeypatch):
    """Golden mean, window [-2, 2], delta = 1/10, d = 12, pruned by the Parry
    filter on the indicator of 1 at site 2, which is not constant on cells:
    its sums stay in the keys, so the stage holds no automaton, yet each
    step builds a row's successors once, 259 builds for 259 distinct (step,
    row) pairs."""
    successors = soficlab._frontier._FrontierDP._successors  # the built spy
    pairs = set()

    def spy(dp, ctx, row, count):
        pairs.add((count, row))
        return successors(dp, ctx, row, count)

    monkeypatch.setattr(soficlab._frontier._FrontierDP, "_successors", spy)
    gm = golden_mean_system()
    at_2 = TestFunction.indicator(gm.pattern(gm.window([2]), ("1",)))
    mf = MeasureFilter.build(_golden_parry(gm), [at_2], Fraction(1, 10))
    got, _ = count_microstates(gm, [1], Fraction(1, 10), cyclic_model(gm.group, 12),
                               gm.interval_window(-2, 2), origin_partition(gm),
                               measure_filter=mf)
    assert (got.n_inner, got.n_outer) == (321, 322)
    assert len(built) == len(pairs) == 259
    assert _kept_memos(gm) is None


MEMO_PLANS = {  # system maker, window, F, the stage sides: n -> sigma
    "Z-golden": (golden_mean_system, lambda s: s.interval_window(-2, 2), [1], range(4, 9)),
    "Z-full-two-shifts": (lambda: full_shift(("0", "1"), LatticeGroup(1)),
                          lambda s: s.interval_window(-1, 1), [1, -1], range(4, 9)),
    "Z2-torus": (lambda: _hard_core(LatticeGroup(2), [(1, 0), (0, 1)]),
                 lambda s: s.window([(0, 0), (1, 0), (0, 1)]), [(1, 0), (0, 1)], (2, 3)),
}


def _memo_stage(system, plan, n, delta, prune, filters):
    """(n_inner, n_outer) of a stage and of each filter; a filter tests one
    window site, the origin (its sums ride beside the maps) or another (its
    sums stay in the keys)."""
    _, window_of, F, _ = MEMO_PLANS[plan]
    window = window_of(system)
    sigma = cyclic_model(system.group, n)
    if delta is None:
        delta = zero_defect_delta(system, window, F, sigma.d)
    fair = BernoulliMeasure(system, ["0.5", "0.5"])

    def at(site):
        g = window.elements[0] if site == "beside" else window.elements[-1]
        return MeasureFilter.build(
            fair, [TestFunction.indicator(system.pattern(system.window([g]), ("1",)))], "0.3")

    got, found = count_microstates(system, F, delta, sigma, window, origin_partition(system),
                                   measure_filter=prune and at(prune),
                                   filters=[at(site) for site in filters])
    return [(c.n_inner, c.n_outer) for c in (got, *found)]


@settings(max_examples=40, deadline=None)
@given(plan=st.sampled_from(sorted(MEMO_PLANS)), data=st.data())
def test_counts_on_a_shared_system_equal_counts_on_fresh_systems(plan, data):
    """A trace whose stages mix d and delta, so that caps both repeat and
    differ, counts on one system what fresh systems count stage by stage:
    with no filter, a filter beside the maps and a filter in the keys, and
    on the torus, whose frontiers are wider than a cycle's."""
    make, window_of, _, sides = MEMO_PLANS[plan]
    assert window_of(make()).elements[0] == make().group.identity  # the origin comes first
    stages = data.draw(st.lists(st.tuples(st.sampled_from(sides),
                                          st.sampled_from([None, "0.05", "0.1", "0.2"])),
                                min_size=2, max_size=5))
    sites = st.sampled_from(["beside", "keys"])
    prune = data.draw(st.one_of(st.none(), sites))
    filters = data.draw(st.lists(sites, max_size=2))
    shared = make()
    for n, delta in stages:
        assert (_memo_stage(shared, plan, n, delta, prune, filters)
                == _memo_stage(make(), plan, n, delta, prune, filters))


def _fresh_counts(plan, n, delta, measure_filter=None, filters=()):
    """The counts of one stage of plan on a fresh system, per tally."""
    make, window_of, F, _ = MEMO_PLANS[plan]
    system = make()
    got, found = count_microstates(system, F, delta, cyclic_model(system.group, n),
                                   window_of(system), origin_partition(system),
                                   measure_filter=measure_filter and measure_filter(system),
                                   filters=[f(system) for f in filters])
    return [(c.n_inner, c.n_outer) for c in (got, *found)]


def _fair_at_origin(delta):
    """system -> the fair coin's filter on the indicator of 1 at the origin."""
    def build(system):
        at_origin = TestFunction.indicator(system.pattern(system.window([system.group.identity]),
                                                          ("1",)))
        return MeasureFilter.build(BernoulliMeasure(system, ["0.5", "0.5"]), [at_origin], delta)
    return build


@contextlib.contextmanager
def _charges():
    """The (d, cap, units charged) of every signature DP run in the block."""
    log = []
    signatures = soficlab._frontier._FrontierDP.signatures

    def logged(dp, *args):
        out = signatures(dp, *args)
        log.append((dp.d, dp.cap, dp.spent))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soficlab._frontier._FrontierDP, "signatures", logged)
        yield log


@settings(max_examples=30, deadline=None)
@given(plan=st.sampled_from(sorted(MEMO_PLANS)), data=st.data())
def test_traces_on_a_shared_system_count_each_stage_as_a_fresh_system(plan, data):
    """The traces and check_variational count their stages largest cap
    first on one system, so shorter stages run through a longer one's
    automaton, and a cap's stages shortest first, so they resume its tail.
    With the sides shuffled and repeated and one or two deltas, every row
    holds what its stage counts on a fresh system, in input order, and
    every stage charges the budget what it charges there."""
    make, window_of, F, sides = MEMO_PLANS[plan]
    ns = data.draw(st.lists(st.sampled_from(sides), min_size=2, max_size=5))
    deltas = data.draw(st.lists(st.sampled_from(["0.05", "0.1", "0.2", "0.3"]), min_size=1,
                                max_size=2, unique=True))
    kind = data.draw(st.sampled_from(["topological", "measure", "variational"]))
    shared = make()
    window, cover = window_of(shared), origin_partition(shared)
    maps = [cyclic_model(shared.group, n) for n in ns]
    fair = BernoulliMeasure(shared, ["0.5", "0.5"])
    L = _fair_at_origin("0.5")(shared).functions
    with _charges() as charged:
        if kind == "variational":
            report = check_variational(shared, cover, [("fair", fair)], L, F, deltas, maps,
                                       window)
            got = [((r.delta, r.stage, r.d), (r.count_unfiltered_inner, r.count_unfiltered_outer),
                    (r.count_filtered_inner, r.count_filtered_outer)) for r in report.rows]
        else:
            got = []
            for delta in deltas:
                trace = (sofic_topological_trace(shared, cover, F, delta, maps, window)
                         if kind == "topological" else
                         sofic_measure_trace(shared, cover, fair, L, F, delta, maps, window))
                assert not any(r.incomplete for r in trace.rows)
                got += [((Fraction(delta), r.stage, r.d), (r.count_inner, r.count_outer))
                        for r in trace.rows]
    with _charges() as fresh:
        expected = []
        for delta in deltas:
            for i, n in enumerate(ns):
                counts = _fresh_counts(
                    plan, n, delta,
                    measure_filter=_fair_at_origin(delta) if kind == "measure" else None,
                    filters=[_fair_at_origin(delta)] if kind == "variational" else ())
                expected.append(((Fraction(delta), i, maps[i].d), *counts))
    assert got == expected
    assert sorted(charged) == sorted(fresh)


def test_a_stage_at_the_held_cap_rebuilds_no_context_verdict_or_plan(monkeypatch):
    """Golden mean, window [-2, 2], zero defect, where every d has cap 1:
    after the d = 12 stage the system holds the automaton at that cap with
    its step contexts and final maps' verdicts, and the comparison plan.  So
    the d = 14 stage builds no _Context, judges no final map (_accepts) and
    builds no plan, and counts and charges what it does on a fresh system."""
    made = collections.Counter()

    def spy(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            made[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(soficlab._frontier._FrontierDP, "_context")
    spy(soficlab._frontier._FrontierDP, "_accepts")
    spy(soficlab.microstates.ComparisonPlan, "__init__")

    def stage(gm, d):
        w = gm.interval_window(-2, 2)
        delta = zero_defect_delta(gm, w, [1], d)
        made.clear()
        with _charges() as charged:
            got, _ = count_microstates(gm, [1], delta, cyclic_model(gm.group, d), w,
                                       origin_partition(gm))
        return (got.n_inner, got.n_outer), charged, dict(made)

    shared = golden_mean_system()
    stage(shared, 12)
    counts, charged, built = stage(shared, 14)
    fresh_counts, fresh_charged, fresh_built = stage(golden_mean_system(), 14)
    assert built == {}
    assert fresh_built["_context"] > 0 and fresh_built["_accepts"] > 0
    assert fresh_built["__init__"] == 1
    assert counts == fresh_counts and counts[1] == _lucas(14)
    assert charged == fresh_charged and charged[0][1] == 1


_SIGNATURES = soficlab._frontier._FrontierDP.signatures  # unwrapped by any spy


def _steps_walked(run):
    """run() and how many steps the signature DPs walk while it runs: the
    times the line that opens a step's merged maps is executed, counted by
    a line tracer, so a step taken from the held tail is not counted."""
    signatures = _SIGNATURES
    lines, first = inspect.getsourcelines(signatures)
    target = first + next(i for i, line in enumerate(lines) if line.strip() == "merged = {}")
    walked = 0

    def local(frame, event, arg):
        nonlocal walked
        if event == "line" and frame.f_lineno == target:
            walked += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is signatures.__code__
                 else None)
    try:
        got = run()
    finally:
        sys.settrace(previous)
    return got, walked


def _zero_defect_stage(system, d, budget=2_000_000, F=(1,)):
    """(n_inner, n_outer) of the golden mean's zero-defect stage of d
    points on window [-2, 2]."""
    w = system.interval_window(-2, 2)
    got, _ = count_microstates(system, F, zero_defect_delta(system, w, F, d),
                               cyclic_model(system.group, d), w, origin_partition(system),
                               budget=budget)
    return got.n_inner, got.n_outer


def test_a_stage_at_the_held_cap_resumes_the_held_tail():
    """Golden mean, window [-2, 2], zero defect, where every d has cap 1:
    the d = 12 stage leaves its live maps after 11 steps on the held
    automaton, so the d = 14 stage walks steps 12 to 14 alone, where a
    fresh system walks all 14, and counts and charges what it does there."""
    shared = golden_mean_system()
    assert _steps_walked(lambda: _zero_defect_stage(shared, 12)) == ((0, _lucas(12)), 12)
    with _charges() as charged:
        assert _steps_walked(lambda: _zero_defect_stage(shared, 14)) == ((0, _lucas(14)), 3)
    with _charges() as fresh:
        assert _steps_walked(lambda: _zero_defect_stage(golden_mean_system(), 14))[1] == 14
    assert charged == fresh


def test_a_resumed_stage_is_cut_where_a_fresh_one_is():
    """The resumed d = 14 stage replays the tail's charges one step at a
    time: it passes at the budget a fresh system spends on it and raises
    at one unit less, and so does a stage cut while it replays them."""
    with _charges() as fresh:
        _zero_defect_stage(golden_mean_system(), 14)
    ((_, _, spent),) = fresh
    for budget in (spent - 1, spent // 2):
        shared = golden_mean_system()
        _zero_defect_stage(shared, 12)
        with pytest.raises(ResourceBudgetError, match="DP"):
            _zero_defect_stage(shared, 14, budget)
    shared = golden_mean_system()
    _zero_defect_stage(shared, 12)
    assert _steps_walked(lambda: _zero_defect_stage(shared, 14, spent)) == ((0, _lucas(14)), 3)


def test_a_tail_serves_only_a_stage_whose_steps_begin_with_its_own():
    """F = {2} on the cyclic model: sigma_2 is one cycle at odd d and two
    at even d, so the step kinds of d = 7, 8 and 9 part after a few steps
    and none of them resumes the tail before it, while d = 11 resumes the
    d = 9 stage's.  Each counts and charges what it does on a fresh
    system."""
    shared = golden_mean_system()
    for d, walked in ((7, 7), (8, 8), (9, 9), (11, 3)):
        with _charges() as fresh:
            counts, fresh_walked = _steps_walked(
                lambda: _zero_defect_stage(golden_mean_system(), d, F=(2,)))
        with _charges() as charged:
            assert _steps_walked(lambda: _zero_defect_stage(shared, d, F=(2,))) == (counts,
                                                                                  walked)
        assert fresh_walked == d and counts[1] > 0
        assert charged == fresh


def _stage_outcome(system, window, F, d, delta, budget):
    """((n_inner, n_outer), (d, cap, units charged)) of one stage, or None
    when the budget cuts it."""
    with _charges() as charged:
        try:
            got, _ = count_microstates(system, F, delta, cyclic_model(system.group, d), window,
                                       origin_partition(system), budget=budget)
        except ResourceBudgetError:
            return None
    (stage,) = charged
    return (got.n_inner, got.n_outer), stage


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_stages_at_one_cap_count_and_charge_as_on_fresh_systems(data):
    """Stages of one cap on one system, their d ascending, descending,
    repeated or in any order, so that a stage resumes the held tail when it
    is longer: the golden mean or the full shift, a window holding the
    origin, F = {1}, {1, -1} or {2} (two cycles at even d), and a budget
    that may cut any step.  Each stage counts and charges what it does on
    a fresh system, or is cut there too."""
    make = data.draw(st.sampled_from([golden_mean_system,
                                      lambda: full_shift(("0", "1"), LatticeGroup(1))]))
    F = data.draw(st.sampled_from([[1], [1, -1], [2]]))
    width = data.draw(st.integers(max(F), max(F) + 1))
    start = data.draw(st.integers(-width, 0))
    ds = data.draw(st.lists(st.integers(2, 12), min_size=2, max_size=6))
    order = data.draw(st.sampled_from(["ascending", "descending", "repeated", "drawn"]))
    if order == "repeated":
        ds = sorted(ds * 2)
    elif order != "drawn":
        ds = sorted(ds, reverse=order == "descending")
    budget = data.draw(st.sampled_from([2_000_000, 5_000, 500]))
    shared = make()
    window = shared.interval_window(start, start + width)
    plan = soficlab.microstates.ComparisonPlan(shared, window, F)
    cap = plan.cap(Fraction(data.draw(st.sampled_from(["0.05", "0.1", "0.2"]))), max(ds))
    for d in ds:
        # the delta whose threshold d delta^2 scale^2 lies in (cap - 1, cap]
        delta = Fraction(math.isqrt(cap * 10 ** 12 // d), plan.scale * 10 ** 6)
        assert plan.cap(delta, d) == cap
        assert (_stage_outcome(shared, window, F, d, delta, budget)
                == _stage_outcome(make(), window, F, d, delta, budget))


def test_signature_dp_budget_cut_point_is_pinned(gm, gm_origin):
    """Golden mean, d = 12, delta = 1/10, window [-2, 2]: a step charges its
    live maps times the language size, whether their successors are built
    or looked up, so the stage's signature DPs finish within 2,327 units
    and one unit less raises."""
    w = gm.interval_window(-2, 2)
    sigma = cyclic_model(gm.group, 12)
    got, _ = count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin, budget=2327)
    assert got.n_inner == got.n_outer == _lucas(12)
    with pytest.raises(ResourceBudgetError, match="DP"):
        count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin, budget=2326)


def test_filtered_signature_dp_budget_cut_point_is_pinned(gm, gm_origin, parry):
    """The same stage with the Parry filter at the origin, which is constant
    on cells: it is tallied in the unfiltered run, so the stage costs what
    the unfiltered one does, 2,327 units, and one unit less raises."""
    w = gm.interval_window(-2, 2)
    sigma = cyclic_model(gm.group, 12)
    at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))
    mf = MeasureFilter.build(parry, [at_origin], Fraction(1, 10))
    got, (filtered,) = count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin,
                                         filters=[mf], budget=2327)
    assert got.n_inner == got.n_outer == _lucas(12)
    assert filtered.n_inner == filtered.n_outer == 217
    with pytest.raises(ResourceBudgetError, match="DP"):
        count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin, filters=[mf],
                          budget=2326)


@pytest.mark.parametrize("filtered", [False, True])
def test_budget_cut_points_stay_when_the_system_holds_the_memo(gm, gm_origin, parry, built,
                                                              filtered):
    """The two pinned stages above on a system that already holds their
    successor memo: every step looks its successors up, and still charges
    its live maps times the language size, so 2,327 units finish and one
    unit less raises."""
    w = gm.interval_window(-2, 2)
    sigma = cyclic_model(gm.group, 12)
    at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))
    filters = [MeasureFilter.build(parry, [at_origin], Fraction(1, 10))] if filtered else []
    for _ in range(2):
        count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin, filters=filters)
    built.clear()
    got, found = count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin,
                                   filters=filters, budget=2327)
    assert not built
    assert got.n_inner == got.n_outer == _lucas(12)
    assert [(f.n_inner, f.n_outer) for f in found] == [(217, 217)] * len(filters)
    with pytest.raises(ResourceBudgetError, match="DP"):
        count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin, filters=filters,
                          budget=2326)


@pytest.mark.parametrize("side, F, delta, long, short, rows_after", [
    (1, [1], "0.3", 16, 8, 0), (1, [1, -1], "0.3", 16, 8, 3), (3, [1], "0.25", 12, 10, 0)])
def test_shorter_stage_charges_its_own_cap_through_a_larger_one(built, side, F, delta, long,
                                                                short, rows_after):
    """Golden mean, window [-side, side]: a short stage after a long one on
    one system runs through the long one's automaton, whose cap is larger.
    Some of its maps there hold nothing under its own cap and are dropped,
    and on window [-3, 3] some share a projection onto it (120 live maps
    project onto 117 at one step of d = 10), yet each step charges exactly
    the own-cap live maps: the counts and the units charged are a fresh
    system's, with one shift and (the Pareto path) with two.  With one
    shift the stage builds no row; with two its last step, of a kind of its
    own, builds 3 (40 on a fresh system)."""

    def stage(gm, d):
        built.clear()
        with _charges() as charged:
            got, _ = count_microstates(gm, F, delta, cyclic_model(gm.group, d),
                                       gm.interval_window(-side, side), origin_partition(gm))
        return (got.n_inner, got.n_outer), charged, len(built)

    counts, charged, fresh_rows = stage(golden_mean_system(), short)
    gm = golden_mean_system()
    stage(gm, long)
    assert stage(gm, short) == (counts, charged, rows_after) and rows_after < fresh_rows


def _golden_parry(system):
    """The Parry chain of a golden mean system, as the parry fixture's."""
    phi = (1 + 5 ** 0.5) / 2
    return MarkovMeasure.stationary(
        system, {"0": {"0": 1 / phi, "1": 1 - 1 / phi}, "1": {"0": 1, "1": 0}})


@pytest.mark.parametrize("filtered", [False, True])
def test_budget_cut_points_stay_when_a_longer_stage_left_its_automaton(built, filtered):
    """The two pinned stages above (d = 12, delta = 1/10) on a system that
    holds the automaton of d = 16 at delta = 1/10, whose cap is larger: the
    stage reads it through its own cap and builds no row, yet each step
    still charges its own-cap live maps, so 2,327 units finish and one unit
    less raises."""
    gm = golden_mean_system()
    w, origin = gm.interval_window(-2, 2), origin_partition(gm)
    at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))
    filters = ([MeasureFilter.build(_golden_parry(gm), [at_origin], Fraction(1, 10))]
               if filtered else [])
    count_microstates(gm, [1], Fraction(1, 10), cyclic_model(gm.group, 16), w, origin,
                      filters=filters)
    (held,) = _kept_memos(gm).values()
    sigma = cyclic_model(gm.group, 12)
    built.clear()
    got, found = count_microstates(gm, [1], Fraction(1, 10), sigma, w, origin,
                                   filters=filters, budget=2327)
    assert not built
    assert got.n_inner == got.n_outer == _lucas(12)
    assert [(f.n_inner, f.n_outer) for f in found] == [(217, 217)] * len(filters)
    with pytest.raises(ResourceBudgetError, match="DP"):
        count_microstates(gm, [1], Fraction(1, 10), sigma, w, origin, filters=filters,
                          budget=2326)
    assert _kept_memos(gm) == {next(iter(_kept_memos(gm))): held}


def test_variational_stage_list_determinises_its_longest_stage_once(built):
    """The golden mean with the Parry filter at the origin, delta = 1/10,
    d = 6, 7, 8 (the variational benchmark's stages): counted longest
    first, the list builds no more successor rows than d = 8 alone."""
    expected = {6: (18, 9), 7: (29, 14), 8: (47, 36)}  # unfiltered, filtered outer

    def rows_built(ds):
        gm = golden_mean_system()
        at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))
        built.clear()
        report = check_variational(gm, origin_partition(gm), [("parry", _golden_parry(gm))],
                                   [at_origin], [1], [Fraction(1, 10)],
                                   [cyclic_model(gm.group, d) for d in ds],
                                   gm.interval_window(-2, 2))
        assert [(r.d, r.count_unfiltered_outer, r.count_filtered_outer)
                for r in report.rows] == [(d, *expected[d]) for d in ds]
        return len(built)

    alone = rows_built([8])
    assert 0 < rows_built([6, 7, 8]) <= alone
    assert rows_built([7, 6, 8, 6]) <= alone


_RETAINED = """
import gc, tracemalloc
from soficlab import cyclic_model, golden_mean_system, origin_partition, sofic_topological_trace
gm = golden_mean_system()
maps = [cyclic_model(gm.group, d) for d in {ds}]
tracemalloc.start()
trace = sofic_topological_trace(gm, origin_partition(gm), [1], "0.1", maps,
                                gm.interval_window(-2, 2))
gc.collect()
print(tracemalloc.get_traced_memory()[0], trace.rows[-1].count_outer)
"""


def test_trace_leaves_the_system_holding_what_its_longest_stage_does():
    """The golden mean, window [-2, 2], delta = 1/10: after a trace over
    d = 8, 12, ..., 48 the system holds, within 1 %, the memory a lone
    d = 48 stage leaves (each shorter stage's projections die with it).
    Each side runs in a fresh interpreter, since what tracemalloc sees
    allocated depends on the free lists that earlier code left."""
    src = Path(soficlab.microstates.__file__).parents[1]  # the soficlab under test

    def retained(ds):
        proc = subprocess.run([sys.executable, "-c", _RETAINED.format(ds=list(ds))],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              stdout=subprocess.PIPE, text=True, timeout=300, check=True)
        return tuple(map(int, proc.stdout.split()))

    (lone, count), (traced, last) = retained([48]), retained(range(8, 49, 4))
    assert last == count
    assert abs(traced - lone) <= lone / 100, (traced, lone)


@st.composite
def _row_stages(draw):
    """A cycle stage on a fresh Z system whose middle steps have a passive
    slot (point 0's pattern): the golden mean or the full shift, F = {1}
    or {1, -1}, and a filter beside the maps (an indicator at the origin),
    a required one in the keys (an indicator at another site), both, or
    none.  longer is None, or a longer stage at the same delta whose
    automaton (at a cap no smaller) then serves the stage."""
    system = draw(st.sampled_from([golden_mean_system, lambda: full_shift(
        ("0", "1"), LatticeGroup(1))]))()
    start = draw(st.integers(-1, 0))
    window = system.interval_window(start, start + draw(st.integers(1, 2)))
    n = len(system.language_values(window))
    d = draw(st.integers(3, max(d for d in range(3, 8) if n ** d <= NAIVE_TUPLES)))
    F = draw(st.sampled_from([[1], [1, -1]]))
    delta = draw(st.sampled_from(["0.2", "0.35", "0.5", "0.7"]))
    fair = BernoulliMeasure(system, ["0.5", "0.5"])

    def at(g):
        indicator = TestFunction.indicator(system.pattern(system.window([g]),
                                                          (draw(st.sampled_from("01")),)))
        return MeasureFilter.build(fair, [indicator], draw(st.sampled_from(["0.2", "0.4"])))

    other = next(g for g in window.elements if g != system.group.identity)
    mf = at(other) if draw(st.booleans()) else None
    filters = [at(system.group.identity)] if draw(st.booleans()) else []
    longer = draw(st.sampled_from([None, d + 1, d + 3]))
    return system, window, F, d, delta, mf, filters, longer


@settings(max_examples=40, deadline=None)
@given(_row_stages())
def test_row_dp_matches_naive_oracle(stage):
    """The signature DP holds a map as rows that share point 0's pattern
    and builds successors per row: with one shift and two, a filter beside
    the maps, a required filter in the keys, and a stage served from a
    longer one's automaton, its counts equal the naive oracle's."""
    system, window, F, d, delta, mf, filters, longer = stage
    if longer is not None:
        count_microstates(system, F, delta, cyclic_model(system.group, longer), window,
                          origin_partition(system), filters=filters)
    _check_against_naive(system, window, cyclic_model(system.group, d), F, delta, mf, filters)


def test_golden_mean_stage_at_d_80_keeps_its_counts():
    """Golden mean, window [-2, 2], F = {1}, delta = 1/10, d = 80, the
    default budget: the row DP finishes the stage with the counts the DP
    gave when it built successors per map."""
    gm = golden_mean_system()
    got, _ = count_microstates(gm, [1], Fraction(1, 10), cyclic_model(gm.group, 80),
                               gm.interval_window(-2, 2), origin_partition(gm))
    assert (got.n_inner, got.n_outer) == (52_361_396_397_820_127, 767_912_942_301_137_247)


def test_scan_budget_cut_point_is_pinned(gm):
    """Golden mean, d = 8, delta = 1/5, window [-1, 1], F = {1}: every
    candidate the scan tries is one node, the break candidate of a step
    included, so the stage's 4,695 outer microstates take 22,447 nodes and
    one node less raises."""
    w = gm.interval_window(-1, 1)
    sigma = cyclic_model(gm.group, 8)
    inner, outer = enumerate_microstates_both(gm, [1], Fraction(1, 5), sigma, w, budget=22447)
    assert (len(inner), len(outer)) == (0, 4695)
    with pytest.raises(ResourceBudgetError, match="enumeration budget"):
        enumerate_microstates_both(gm, [1], Fraction(1, 5), sigma, w, budget=22446)


# the sizes m are one explicit call, tuples, on every cover -------------------


def _no_counting_dp(*args, **kwargs):
    raise AssertionError("a counting DP ran, but no caller read m")


def test_traces_and_variational_never_run_a_counting_dp(gm, gm_origin, parry, monkeypatch):
    w = gm.interval_window(-2, 2)
    maps = [cyclic_model(gm.group, d) for d in (6, 9)]
    at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))
    expected = [(_lucas(6), _lucas(6)), (_lucas(9), _lucas(9))]  # (inner, outer)
    monkeypatch.setattr(soficlab._frontier._FrontierDP, "sequences", _no_counting_dp)
    for trace in (sofic_topological_trace(gm, gm_origin, [1], "0.1", maps, w),
                  sofic_measure_trace(gm, gm_origin, parry, [at_origin], [1], "0.1", maps, w)):
        assert [r.method for r in trace.rows] == ["dp", "dp"]
        assert not any(r.incomplete for r in trace.rows)
    topological = sofic_topological_trace(gm, gm_origin, [1], "0.1", maps, w)
    assert [(r.count_inner, r.count_outer) for r in topological.rows] == expected
    report = check_variational(gm, gm_origin, [("parry", parry)], [at_origin], [1],
                               ["0.1"], maps, w)
    assert report.ok
    assert [(r.d, r.count_unfiltered_outer) for r in report.rows] == [(6, 18), (9, 76)]
    agreement = check_amenable_agreement(gm, gm_origin, [12],
                                         lambda n: cyclic_model(gm.group, n),
                                         ["0.01"], [1], w)
    assert agreement.rows[0].value_sofic_outer == math.log(_lucas(12)) / 12


def test_dominant_measure_runs_only_the_outer_counting_dp(gm, gm_origin, parry, monkeypatch):
    """The net check reads unmatched, which the outer DP counts; nothing
    reads m_inner."""
    w = gm.interval_window(-2, 2)
    at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))
    sequences = soficlab._frontier._FrontierDP.sequences
    modes = []

    def spy(dp, inner, *args, **kwargs):
        modes.append(inner)
        return sequences(dp, inner, *args, **kwargs)

    monkeypatch.setattr(soficlab._frontier._FrontierDP, "sequences", spy)
    candidates = [parry, BernoulliMeasure(gm, ["0.5", "0.5"])]
    res = select_dominant_measure(gm, gm_origin, candidates, [at_origin], [1], "0.1",
                                  cyclic_model(gm.group, 8), w, "0.1", require_net=False)
    assert modes == [False]
    assert res.unfiltered_count == _lucas(8)


def test_tuples_read_is_cut_by_the_budget_and_never_a_number(gm, gm_origin):
    """d = 12, delta = 1/10: the signature DP fits in 10,000 budget units,
    the counting DPs need far more.  The counts come back and compare as
    plain values; reading their sizes raises every time."""
    w = gm.interval_window(-2, 2)
    sigma = cyclic_model(gm.group, 12)
    got, _ = count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin, budget=10_000)
    assert got == count_microstates(gm, [1], Fraction(1, 10), sigma, w, gm_origin)[0]
    assert got.n_inner == got.n_outer == _lucas(12)
    for _ in range(2):
        for mode in ("outer", "inner"):
            with pytest.raises(ResourceBudgetError, match="DP"):
                got.tuples(mode)


@pytest.mark.parametrize("general", [False, True])
def test_counts_are_plain_values(gm, gm_origin, monkeypatch, general):
    """==, hash and repr of counts never run a counting DP, on either
    path; tuples("outer") runs one, in outer mode, and an unknown mode
    none."""
    w = gm.interval_window(-1, 1)
    cover = _two_sided_cover(gm, [-1, 1]) if general else gm_origin
    got, _ = count_microstates(gm, [1], "0.3", cyclic_model(gm.group, 5), w, cover)
    sequences = soficlab._frontier._FrontierDP.sequences
    modes = []

    def spy(dp, inner, *args, **kwargs):
        modes.append(inner)
        return sequences(dp, inner, *args, **kwargs)

    monkeypatch.setattr(soficlab._frontier._FrontierDP, "sequences", spy)
    method = "scan" if general else "dp"
    same = MicrostateCounts(got.n_inner, got.n_outer, "other")
    assert got == same and hash(got) == hash(same) and {same: 1}[got] == 1
    assert repr(got) == (f"MicrostateCounts(n_inner={got.n_inner}, n_outer={got.n_outer}, "
                         f"method='{method}')")
    assert got != MicrostateCounts(got.n_inner, got.n_outer + 1)
    with pytest.raises(ArgumentError, match="unknown mode"):
        got.tuples("both")
    assert modes == []
    assert got.tuples("outer").m > 0
    assert modes == [False]


def test_stage_with_no_window_pattern_counts_nothing():
    """Every pair on [0, 1] forbidden, single sites allowed: the window
    language is empty, so on either path the counts and sizes are 0, and
    the sizes still hold one filtered m per extra filter."""
    system = SymbolicSystem(("0", "1"), LatticeGroup(1),
                            forbidden=[((0, 1), (a, b)) for a in "01" for b in "01"])
    w = system.interval_window(0, 1)
    fair = BernoulliMeasure(system, ["0.5", "0.5"])
    at_origin = TestFunction.indicator(system.pattern(system.window([0]), ("1",)))
    for cover in (origin_partition(system),
                  Cover(system, system.window([0]), [[("0",)], [("0",), ("1",)]])):
        for filters in ([], [MeasureFilter.build(fair, [at_origin], "0.1")] * 2):
            got, found = count_microstates(system, [1], "0.5", cyclic_model(system.group, 3), w,
                                           cover, filters=filters)
            assert got == MicrostateCounts(0, 0) and got.method == counting_method(cover)
            assert got.tuples("inner") == got.tuples("outer") == TupleCounts(
                0, (0,) * len(filters), 0, ())
            assert found == (got,) * len(filters)
            assert all(f.tuples("outer") == TupleCounts(0, (), 0, ()) for f in found)


def test_dp_counts_read_once_keep_public_shape(gm, gm_origin, parry):
    """The sizes a partition stage's counts read equal the enumerated
    sets', only the unfiltered counts carry unmatched, and equality and
    hashing ignore method."""
    w = gm.interval_window(-2, 2)
    sigma = cyclic_model(gm.group, 6)
    at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))
    mf = MeasureFilter.build(parry, [at_origin], "0.1")
    dp, (dp_f,) = count_microstates(gm, [1], "0.1", sigma, w, gm_origin, filters=[mf])
    _, outer = enumerate_microstates_both(gm, [1], "0.1", sigma, w)
    kept = filter_microstates(outer, mf)
    sizes = dp.tuples("outer")
    assert (sizes.m, sizes.filtered) == (len(outer), (len(kept),))
    assert sizes.unmatched == len(outer) - len(kept) > 0
    assert dp_f.tuples("outer") == TupleCounts(len(kept), (), 0, ())
    scan = MicrostateCounts(dp.n_inner, dp.n_outer)
    assert dp == scan and hash(dp) == hash(scan) and dp.method != scan.method
    assert MicrostateCounts(3, 4, "dp") == MicrostateCounts(3, 4)
    assert MicrostateCounts(3, 4) != MicrostateCounts(3, 5)


@pytest.mark.parametrize("d, inner, outer", [
    (24, _lucas(24), _lucas(24)),
    (32, _lucas(32), _lucas(32)),
    (64, 23_725_150_497_407, 283_100_480_921_791),
])
def test_dp_trace_reach_at_delta_one_tenth(gm, gm_origin, d, inner, outer):
    """Golden mean, window [-2, 2], F = {1}, delta = 1/10, the default 2M
    budget: the signature DP alone finishes d = 64.  L_24 = 103,682 and
    L_32 = 4,870,847; the d = 64 counts equal the counting-DP path's at a
    budget of 10^9."""
    w = gm.interval_window(-2, 2)
    row = sofic_topological_trace(gm, gm_origin, [1], Fraction(1, 10),
                                  [cyclic_model(gm.group, d)], w).rows[0]
    assert not row.incomplete and row.method == "dp"
    assert (row.count_inner, row.count_outer) == (inner, outer)


def test_variational_reach_at_delta_one_tenth(gm, gm_origin, parry):
    """check_variational on the golden mean, window [-2, 2], delta = 1/10,
    the Parry filter at the origin, d = 32, under the default budget: one
    signature DP gives the unfiltered and the filtered counts."""
    w = gm.interval_window(-2, 2)
    at_origin = TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))
    report = check_variational(gm, gm_origin, [("parry", parry)], [at_origin], [1],
                               [Fraction(1, 10)], [cyclic_model(gm.group, 32)], w)
    (row,) = report.rows
    assert report.ok
    assert (row.count_unfiltered_inner, row.count_unfiltered_outer) == (_lucas(32),) * 2
    assert (row.count_filtered_inner, row.count_filtered_outer) == (4_695_844, 4_695_844)


ORACLE_ONLY = {"_passes", "_naive_scan", "enumerate_microstates_both", "filter_microstates",
               "count_cover", "MicrostateSet", "microstate_check"}
# what the oracles that decide membership must compute on their own
PRODUCTION_ONLY = {"_FrontierDP", "_PenaltyTable", "penalty_tables", "automata", "cap"}


def test_oracle_only_code_stays_in_the_oracle_block():
    """No library path goes through the materialised microstates: in
    soficlab's source their names occur only in the test-oracle block at
    the end of microstates.py.  And the oracles stay independent:
    _naive_scan and microstate_check read neither the DP's penalty tables
    nor its integer cap."""
    seen, guarded = set(), set()
    for path in sorted(Path(soficlab.microstates.__file__).parent.glob("*.py")):
        text = path.read_text()
        block = math.inf
        if path.name == "microstates.py":
            block = next(k for k, line in enumerate(text.splitlines(), 1)
                         if line.startswith("# test oracles"))
        for node in ast.walk(ast.parse(text)):
            names = {getattr(node, field, None) for field in ("id", "attr", "name", "value")}
            for name in names & ORACLE_ONLY:
                assert node.lineno > block, f"{path.name}:{node.lineno} uses {name}"
                seen.add(name)
            if path.name == "microstates.py" and isinstance(node, ast.FunctionDef) and (
                    node.name in ("_naive_scan", "microstate_check")):
                for inner in ast.walk(node):
                    names = {getattr(inner, field, None) for field in ("id", "attr", "arg")}
                    used = names & PRODUCTION_ONLY
                    assert not used, f"{node.name} uses {used}"
                guarded.add(node.name)
    assert seen == ORACLE_ONLY and guarded == {"_naive_scan", "microstate_check"}


def test_stages_without_tables_share_one_empty_packing(gm, gm_origin):
    """A packing of no table holds no sums: stages with no filter share one
    per language size, whatever their d, and it still moves every pattern."""
    window = gm.interval_window(-2, 2)
    packings = []
    for d in (6, 9):
        delta = zero_defect_delta(gm, window, [1], d)
        counts, _ = count_microstates(gm, [1], delta, cyclic_model(gm.group, d), window,
                                      gm_origin)
        packings.append(counts.source[1])
    n = len(gm.language_values(window))
    empty = soficlab._frontier._PackedSums.of([], [], 12, n)
    assert packings[0] is packings[1] is empty
    assert empty.increment == [0] * n and empty.passed(0) == ()
    assert soficlab._frontier._PackedSums.of([], [[]], 12, n) is not empty  # one filter


@pytest.mark.parametrize("lo, hi, delta, empty", [
    (-2, 2, "1/10", False), (-1, 1, "1/10", True), (0, 1, "1/10", True),
    (-2, 2, "1/100", True), (-1, 1, "3/10", False), (0, 1, "3/5", False)])
def test_inner_empty_where_a_tail_reaches_the_cap(gm, gm_origin, lo, hi, delta, empty):
    """The golden mean's tails over scale are 1/16, 1/4 and 1/2 on [-2, 2],
    [-1, 1] and [0, 1]: the inner side is empty by construction once delta
    is at most the largest, and then no outer microstate is inner."""
    w = gm.interval_window(lo, hi)
    plan = soficlab.ComparisonPlan(gm, w, [1])
    lang = gm.language_values(w)
    for d in (4, 7):
        sigma = cyclic_model(gm.group, d)
        dp = soficlab._frontier._FrontierDP(plan, lang, Fraction(delta), sigma,
                                            range(len(lang)), 10 ** 6)
        assert dp.inner_empty == empty
        counts, _ = count_microstates(gm, [1], delta, sigma, w, gm_origin)
        assert counts.n_outer > 0
        if empty:
            assert counts.n_inner == 0
            outer = enumerate_microstates_both(gm, [1], delta, sigma, w)[1]
            assert not any(microstate_check(gm, t, [1], delta, sigma, w, mode="inner")
                           for t in outer.tuples)


def _window_systems():
    """(system, the sites a window draws from, the shifts F draws from) on
    Z, Z^2 and F_2, full shift and hard core each."""
    out = []
    Z2, F2 = LatticeGroup(2), FreeGroup(2)
    for group, sites, shifts in (
            (STREAM_FS.group, [(i,) for i in range(-2, 3)], [(1,), (2,), (-1,)]),
            (Z2, [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0)], [(1, 0), (0, 1)]),
            (F2, [(), (1,), (2,), (-1,), (-2,)], [(1,), (2,)])):
        gens = [s for s in group.generators if max(s) > 0]
        for system in (full_shift(("0", "1"), group), _hard_core(group, gens)):
            out.append((system, sites, shifts))
    return out


WINDOW_SYSTEMS = _window_systems()


def _draw_window(draw):
    """A system on Z, Z^2 or F_2, one or two shifts F and a random window:
    the identity (for origin_partition), up to two other sites, and one
    more for each shift the window would not overlap."""
    system, sites, shifts = draw(st.sampled_from(WINDOW_SYSTEMS))
    group = system.group
    F = draw(st.lists(st.sampled_from(shifts), min_size=1, max_size=2, unique=True))
    elements = [group.identity] + draw(st.lists(
        st.sampled_from([g for g in sites if g != group.identity]), max_size=2, unique=True))
    for s in F:  # W and W s must overlap
        if not any(group.multiply(g, s) in elements for g in elements):
            elements.append(group.multiply(elements[0], s))
    return system, F, system.window(elements)


@st.composite
def _window_stages(draw):
    """A stage with a random window (_draw_window), random permutations or
    the group's own model for sigma, a delta from 1/100 to 1, and zero to
    two filters."""
    system, F, window = _draw_window(draw)
    group = system.group
    n = len(system.language_values(window))
    d = draw(st.integers(2, 5))
    while d > 2 and n ** d > NAIVE_TUPLES:
        d -= 1
    if draw(st.booleans()):
        sigma = SoficMap(group, d, images={s: draw(st.permutations(range(d))) for s in F},
                         provenance="random")
    elif group.kind == "free":
        _, model = random_free_model(2, d, draw(st.integers(0, 50)))
        sigma = SoficMap(group, d, images={s: model.image_array(s) for s in F})
    else:
        sigma = cyclic_model(group, 2 if group.rank == 2 else d)
    delta = draw(st.sampled_from(["0.01", "0.1", "0.3", "0.6", "0.8", "1"]))
    fair = BernoulliMeasure(system, ["0.5", "0.5"])
    filters = [MeasureFilter.build(fair, [TestFunction.indicator(system.pattern(
        system.window([draw(st.sampled_from(window.elements))]), ("1",)))], "0.3")
        for _ in range(draw(st.integers(0, 2)))]
    return system, window, sigma, F, delta, filters


@settings(max_examples=120, deadline=None)
@given(_window_stages())
def test_inner_empty_stages_have_no_inner_microstate(stage):
    """Wherever _FrontierDP.inner_empty holds, n_inner is 0 and every field
    of tuples("inner") is 0, filtered counts included, as the naive oracle
    finds; elsewhere the inner sizes still match the oracle's."""
    system, window, sigma, F, delta, filters = stage
    cover = origin_partition(system)
    counts, filtered = count_microstates(system, F, delta, sigma, window, cover,
                                         filters=filters)
    inner = enumerate_microstates_both(system, F, delta, sigma, window, strategy="naive")[0]
    sizes = counts.tuples("inner")
    assert counts.n_inner == count_cover(inner, cover)
    assert sizes.m == len(inner)
    assert sizes.filtered == tuple(len(filter_microstates(inner, f)) for f in filters)
    if counts.source[0].inner_empty:
        assert len(inner) == 0
        assert sizes == TupleCounts(0, (0,) * len(filters), 0, ())
        assert all(c.n_inner == 0 and c.tuples("inner") == TupleCounts(0, (), 0, ())
                   for c in filtered)


@st.composite
def _action_stages(draw):
    """A stage with a random window (_draw_window) whose sigma is an
    action: the cyclic model of Z (d = 2..8) or of Z^2 (the 2 x 2 torus),
    or random_free_model on F_2 (d = 2..8), and a delta from 3/10 to 1,
    so that the inner side can often pass."""
    system, F, window = _draw_window(draw)
    group = system.group
    if group.kind == "free":
        _, model = random_free_model(2, draw(st.integers(2, 8)), draw(st.integers(0, 50)))
        sigma = SoficMap(group, model.d,
                         images={g: model.image_array(g) for g in group.generators})
    else:
        sigma = cyclic_model(group, 2 if group.rank == 2 else draw(st.integers(2, 8)))
    delta = draw(st.sampled_from(["0.3", "0.6", "0.8", "1"]))
    return system, window, sigma, F, delta


def _exact_configurations(system, sigma):
    """The y in A^d with no forbidden pattern at any point along sigma: no
    point i and forbidden (elements, values) with y[sigma_g(i)] = value of
    g for every g, by checking all |A|^d of them."""
    bans = [[(sigma.image_array(g), v) for g, v in zip(elements, values)]
            for elements, values in system.forbidden]
    return [y for y in itertools.product(system.alphabet, repeat=sigma.d)
            if not any(all(y[perm[i]] == v for perm, v in ban)
                       for ban in bans for i in range(sigma.d))]


@settings(max_examples=120, deadline=None)
@given(_action_stages())
def test_inner_count_holds_every_exact_configuration(stage):
    """Where _FrontierDP.inner_empty fails and sigma is an action, the
    microstate x_i = (y[sigma_g(i)])_{g in W} of an exact configuration y
    has lo = 0 on every term and is inner, and origin_partition reads y
    itself off it, so n_inner >= the exact configurations' count."""
    system, window, sigma, F, delta = stage
    counts, _ = count_microstates(system, F, delta, sigma, window, origin_partition(system))
    if counts.source[0].inner_empty:
        assert counts.n_inner == 0
        return
    exact = _exact_configurations(system, sigma)
    images = [sigma.image_array(g) for g in window.elements]
    for y in exact:
        microstate = [tuple(y[perm[i]] for perm in images) for i in range(sigma.d)]
        assert microstate_check(system, microstate, F, delta, sigma, window, mode="inner")
    assert exact and counts.n_inner >= len(exact)

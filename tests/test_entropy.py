import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soficlab import (ArgumentError, BernoulliMeasure, Cover, FiniteSubset, FreeGroup,
                      LatticeGroup, MarkovMeasure, MeasureFilter, NEG_INF,
                      ResourceBudgetError, SoficMap,
                      SymbolicSystem, UnsupportedOperationError, min_subcover, TestFunction,
                      amenable_measure_trace, amenable_topological_trace,
                      check_amenable_agreement, check_variational,
                      cyclic_model, cylinder_complement_cover, entropy_pair_scan,
                      folner_set, full_shift, golden_mean_system, origin_partition,
                      partial_cover_count, partition_count_bound, pullback_iterate,
                      regular_representation, select_dominant_measure,
                      sofic_measure_trace, sofic_topological_trace,
                      trivial_cover, zero_defect_delta)
from soficlab.microstates import count_cover, enumerate_microstates_both, filter_microstates

LOG2 = math.log(2)
LOGPHI = math.log((1 + 5 ** 0.5) / 2)


def H(*probs):
    return -sum(p * math.log(p) for p in probs if p)


def test_log_big_takes_counts_past_the_float_range():
    from soficlab.entropy import log_big

    assert log_big(2 ** 100000) == pytest.approx(100000 * LOG2, rel=1e-15)
    assert log_big(3 ** 5000 + 1) == pytest.approx(5000 * math.log(3), rel=1e-15)
    with pytest.raises(ArgumentError):
        log_big(0)


# --- sofic traces ----------------------------------------------------------------


def test_full_shift_two_regimes(fs, fs_origin):
    """Zero-defect tolerance forces necklaces; looser tolerance admits label
    mixing -- but the origin-partition count is 2^d in both regimes."""
    Z = fs.group
    w = fs.interval_window(0, 1)
    sigma = cyclic_model(Z, 4)
    tight = enumerate_microstates_both(fs, [1], zero_defect_delta(fs, w, [1], 4),
                                       sigma, w)[1]
    loose = enumerate_microstates_both(fs, [1], "0.6", sigma, w)[1]
    assert len(tight.tuples) == 16 and len(loose.tuples) > 16
    assert count_cover(tight, fs_origin) == count_cover(loose, fs_origin) == 16


def test_sofic_trace_log2_every_stage(fs, fs_origin):
    maps = [cyclic_model(fs.group, d) for d in range(2, 11)]
    tr = sofic_topological_trace(fs, fs_origin, [1], "0.01", maps,
                                 fs.interval_window(-2, 2))
    for row in tr.rows:
        assert row.count_outer == 2 ** row.d
        assert abs(row.value_outer - LOG2) < 1e-12
    assert abs(tr.running_max_outer - LOG2) < 1e-12
    assert tr.log_cover_count == pytest.approx(LOG2)


def test_sofic_trace_neg_inf_sentinel(gm, gm_origin):
    # adversarial: tolerance below any achievable inner distance
    maps = [cyclic_model(gm.group, 4)]
    tr = sofic_topological_trace(gm, gm_origin, [1], "0.001", maps,
                                 gm.interval_window(0, 1))
    row = tr.rows[0]
    assert row.count_inner == 0 and row.value_inner == NEG_INF
    assert row.value_inner < row.value_outer  # sentinel orders below reals
    assert str(row.value_inner) == "-inf"


def test_sofic_trace_golden_mean_lucas(gm, gm_origin):
    tr = sofic_topological_trace(gm, gm_origin, [1], "0.01",
                                 [cyclic_model(gm.group, 12)],
                                 gm.interval_window(-2, 2))
    assert tr.rows[0].count_outer == 322
    assert abs(tr.rows[0].value_outer - math.log(322) / 12) < 1e-15


def test_measure_trace_empty_L_equals_topological(fs, fair, fs_origin):
    maps = [cyclic_model(fs.group, d) for d in (4, 6)]
    w = fs.interval_window(0, 1)
    top = sofic_topological_trace(fs, fs_origin, [1], "0.1", maps, w)
    mt = sofic_measure_trace(fs, fs_origin, fair, [], [1], "0.1", maps, w)
    assert [(r.count_inner, r.count_outer) for r in mt.rows] == \
        [(r.count_inner, r.count_outer) for r in top.rows]


def test_measure_trace_binomial_oracle(fs, fair, fs_origin):
    w = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w, ("0",)))
    tr = sofic_measure_trace(fs, fs_origin, fair, [f0], [0], "0.2",
                             [cyclic_model(fs.group, 10)], w)
    assert tr.rows[0].count_outer == sum(math.comb(10, k) for k in (4, 5, 6))


def test_measure_trace_impossible_filter(fs, fair, fs_origin):
    # no empirical average k/5 lies within 0.05 of mu(f) = 1/2: the filtered
    # set is empty and the trace carries the -inf sentinel
    w = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w, ("0",)))
    tr = sofic_measure_trace(fs, fs_origin, fair, [f0], [0], "0.05",
                             [cyclic_model(fs.group, 5)], w)
    assert tr.rows[0].count_outer == 0 and tr.rows[0].value_outer == NEG_INF


def test_trace_grid_monotonicity(fs, fs_origin):
    """Counts are antitone in F-enlargement and delta-shrinkage, stagewise."""
    w = fs.interval_window(-2, 2)
    sigma = cyclic_model(fs.group, 5)
    counts = {}
    for F in ([1], [1, 2]):
        for delta in ("0.05", "0.02"):
            tr = sofic_topological_trace(fs, fs_origin, F, delta, [sigma], w)
            assert not tr.rows[0].incomplete
            counts[(len(F), delta)] = (tr.rows[0].count_inner, tr.rows[0].count_outer)
    for mode in (0, 1):
        assert counts[(2, "0.05")][mode] <= counts[(1, "0.05")][mode]
        assert counts[(1, "0.02")][mode] <= counts[(1, "0.05")][mode]
        assert counts[(2, "0.02")][mode] <= counts[(2, "0.05")][mode]


def test_trace_values_bounded_by_cover_count(gm, gm_origin):
    maps = [cyclic_model(gm.group, d) for d in (4, 8)]
    tr = sofic_topological_trace(gm, gm_origin, [1], "0.3", maps,
                                 gm.interval_window(-1, 1))
    for row in tr.rows:
        if row.value_outer != NEG_INF:
            assert row.value_outer <= tr.log_cover_count + 1e-12
        assert row.value_inner <= row.value_outer


# --- amenable traces ---------------------------------------------------------------


def test_amenable_full_shift_exact(fs, fs_origin):
    tr = amenable_topological_trace(fs, fs_origin, range(1, 13))
    for row in tr.rows:
        assert row.count == 2 ** row.n
        assert abs(row.value - LOG2) < 1e-12


def test_amenable_golden_mean_fibonacci(gm, gm_origin):
    tr = amenable_topological_trace(gm, gm_origin, [16])
    assert tr.rows[0].count == 2584
    assert abs(tr.rows[0].value - math.log(2584) / 16) < 1e-15
    assert abs(tr.rows[0].value - LOGPHI) < 0.02


def test_amenable_trivial_cover_zero(fs):
    tr = amenable_topological_trace(fs, trivial_cover(fs, fs.window([0])), [3, 5])
    assert all(r.value == 0.0 for r in tr.rows)


def test_amenable_traces_refuse_greedy_cover_bound(fs, fair):
    """A budget-cut minimal subcover is an upper bound, never a count."""
    w = fs.interval_window(0, 1)
    cover = Cover(fs, w, [[("0", "0"), ("0", "1")], [("0", "1"), ("1", "0")],
                          [("1", "0"), ("1", "1")], [("1", "1"), ("0", "0")]])
    greedy = min_subcover(cover, budget=0)
    assert not greedy.exact
    for run in (lambda: amenable_topological_trace(fs, cover, [1], budget=0),
                lambda: amenable_measure_trace(fs, cover, fair, [1], budget=0)):
        with pytest.raises(ResourceBudgetError) as info:
            run()
        assert info.value.upper_bound == greedy.count
    # with room to search, both give the exact count
    assert amenable_topological_trace(fs, cover, [1]).rows[0].count == 2


def hard_square(Z2):
    return SymbolicSystem(("0", "1"), Z2, forbidden=[(((0, 0), (1, 0)), ("1", "1")),
                                                     (((0, 0), (0, 1)), ("1", "1"))])


def test_amenable_transfer_path(gm, gm_origin, Z2):
    """Single-pattern cells on boxes are counted by slice transfer; the
    pullback enumeration, kept as the oracle, gives the same counts."""
    tr = amenable_topological_trace(gm, gm_origin, [1, 8, 16])
    assert [r.method for r in tr.rows] == ["transfer"] * 3
    assert [r.count for r in tr.rows] == [2, 55, 2584]
    hs = hard_square(Z2)
    U = origin_partition(hs)
    tr = amenable_topological_trace(hs, U, [1, 2, 3, 4])
    assert [r.method for r in tr.rows] == ["transfer"] * 4
    assert [r.count for r in tr.rows] == [2, 7, 63, 1234]
    for r in tr.rows:
        vf = pullback_iterate(U, folner_set(Z2, r.n))
        assert min_subcover(vf).count == r.count


def test_amenable_hard_square_twelve(Z2):
    hs = hard_square(Z2)
    row = amenable_topological_trace(hs, origin_partition(hs), [12]).rows[0]
    assert row.method == "transfer"
    assert row.count == 162481813349792588536582997  # A006506(12)
    assert row.size == 144


def test_amenable_enumeration_path(fs, gm, gm_origin, Z, fair):
    """Covers with many-pattern cells and reach beyond two slices keep the
    pullback enumeration, and so do measure traces."""
    w01 = fs.interval_window(0, 1)
    complement = cylinder_complement_cover(fs, [fs.pattern(w01, ("0", "0")),
                                                fs.pattern(w01, ("1", "1"))])
    tr = amenable_topological_trace(fs, complement, [3])
    assert tr.rows[0].method == "enumeration"
    by_first = Cover(gm, gm.interval_window(0, 1), [[("0", "0"), ("0", "1")], [("1", "0")]])
    assert by_first.is_partition
    tr = amenable_topological_trace(gm, by_first, [4, 6])
    assert [r.method for r in tr.rows] == ["enumeration"] * 2
    same = amenable_topological_trace(gm, gm_origin, [4, 6])
    assert [r.count for r in tr.rows] == [r.count for r in same.rows]
    gap = SymbolicSystem(("0", "1"), Z, forbidden=[(((0,), (2,)), ("1", "1"))])
    tr = amenable_topological_trace(gap, origin_partition(gap), [5])
    assert tr.rows[0].method == "enumeration"
    assert tr.rows[0].count == len(gap.language_values(gap.interval_window(0, 4)))
    tr = amenable_measure_trace(fs, origin_partition(fs), fair, [2])
    assert tr.rows[0].method == "enumeration"


def test_amenable_transfer_budget_cut_raises(Z2):
    hs = hard_square(Z2)  # fresh: no cached languages
    with pytest.raises(ResourceBudgetError):
        amenable_topological_trace(hs, origin_partition(hs), [5], budget=5)


def test_amenable_measure_bernoulli_exact(fs, skew, fs_origin):
    tr = amenable_measure_trace(fs, fs_origin, skew, range(1, 9))
    for row in tr.rows:
        assert abs(row.value - H(0.3, 0.7)) < 1e-12


def test_amenable_measure_fair_log2(fs, fair, fs_origin):
    tr = amenable_measure_trace(fs, fs_origin, fair, [1, 4, 7])
    for row in tr.rows:
        assert abs(row.value - LOG2) < 1e-12


def test_measure_trace_b_nu_reads_each_cylinder_once(fs, skew, gm, parry, gm_origin,
                                                     monkeypatch):
    """With a, each row's b_nu equals partial_cover_count on that stage,
    on a partition and on an overlapping cover, and each stage runs one
    ``masses`` sweep, read by H_mu and b_nu together, that covers every
    pattern of the stage's pulled-back cover exactly once."""
    overlapping = Cover(fs, fs.window([0]), [[("0",)], [("0",), ("1",)]])
    for system, cover, mu, ns in [(gm, gm_origin, parry, [2, 4, 6]),
                                  (fs, overlapping, skew, [1, 2, 3])]:
        expected = [partial_cover_count(mu, folner_set(system.group, n), "0.9", cover)
                    for n in ns]
        calls = []
        masses = type(mu).masses

        def spy(self, window, patterns):
            patterns = list(patterns)
            calls.append((window, patterns))
            return masses(self, window, patterns)

        monkeypatch.setattr(type(mu), "masses", spy)
        tr = amenable_measure_trace(system, cover, mu, ns, a="0.9")
        monkeypatch.undo()
        assert [r.b_nu for r in tr.rows] == expected
        assert len(calls) == len(ns)  # one sweep a stage; a cylinder call would add one
        for n, (window, patterns) in zip(ns, calls):
            vf = pullback_iterate(cover, folner_set(system.group, n))
            assert window == vf.window
            assert len(patterns) == len(set(patterns))
            assert set(patterns) == frozenset().union(*vf.elements)
    assert amenable_measure_trace(gm, gm_origin, parry, [2]).rows[0].b_nu is None


@st.composite
def _full_support_chains(draw):
    """A random rational transition matrix on 2 or 3 states, every entry > 0."""
    k = draw(st.sampled_from([2, 3]))
    rows = []
    for _ in range(k):
        weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        rows.append([Fraction(w, sum(weights)) for w in weights])
    return rows


CHAIN_SYSTEMS = {k: full_shift(tuple(str(i) for i in range(k)), LatticeGroup(1))
                 for k in (2, 3)}


@settings(max_examples=25, deadline=None)
@given(_full_support_chains())
@example([[Fraction(5, 7), Fraction(1, 7), Fraction(1, 7)]] * 3)
def test_markov_block_entropy_closed_form(rows):
    """Cover and Thomas, Elements of Information Theory, ch. 4: for a
    stationary Markov chain, H(X_0, ..., X_{n-1}) = H(pi) + (n - 1) h with
    h = -sum_i pi_i sum_j P_ij log P_ij.  The cells of the pulled-back
    origin partition on [0, n) hold one word each, so H_mu(V_{F_n}) is
    that block entropy.  Both sides are float sums (3^8 terms at n = 8),
    so they agree to a relative 1e-12: the example's chain is off by
    1.3e-12 at n = 8, where the entropy is about 6.7."""
    k = len(rows)
    system = CHAIN_SYSTEMS[k]
    mu = MarkovMeasure.stationary(system, rows)
    pi = [mu.initial[a] for a in system.alphabet]
    assert all(sum(pi[i] * rows[i][j] for i in range(k)) == pi[j] for j in range(k))
    h = -sum(float(pi[i]) * float(p) * math.log(p) for i in range(k) for p in rows[i])
    tr = amenable_measure_trace(system, origin_partition(system), mu, range(1, 9))
    for row in tr.rows:
        assert math.isclose(row.entropy, H(*map(float, pi)) + (row.n - 1) * h, rel_tol=1e-12)


def test_measure_trace_stage_loop_has_no_fraction_arithmetic(monkeypatch):
    """Once the Parry chain is built, amenable_measure_trace (count, H_mu
    and b_nu) makes no Fraction product or sum: the masses are integers."""
    gm = golden_mean_system()  # fresh: no window or language built yet
    parry = MarkovMeasure.stationary(
        gm, {"0": {"0": "0.6180339887498949", "1": "0.3819660112501051"},
             "1": {"0": 1, "1": 0}})
    cover = origin_partition(gm)
    calls = Counter()
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, _name=name, _op=getattr(Fraction, name)):
            calls[_name] += 1
            return _op(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    assert Fraction(1, 2) * Fraction(1, 3) + 1 == Fraction(7, 6)
    assert calls == {"__mul__": 1, "__add__": 1}  # the spies see Fraction arithmetic
    calls.clear()
    tr = amenable_measure_trace(gm, cover, parry, [2, 4, 6, 8, 10, 12], a="0.9")
    monkeypatch.undo()
    assert calls == {}
    assert [r.count for r in tr.rows] == [3, 8, 21, 55, 144, 377]  # F_{n+2}
    assert all(r.b_nu for r in tr.rows)


def test_amenable_measure_markov_rate(gm, parry, gm_origin):
    tr = amenable_measure_trace(gm, gm_origin, parry, range(1, 11))
    rate = parry.entropy_rate()
    for prev, cur in zip(tr.rows, tr.rows[1:]):
        assert abs((cur.entropy - prev.entropy) - rate) < 1e-9
    n = tr.rows[-1].n
    h1 = tr.rows[0].entropy
    assert abs(tr.rows[-1].value - (h1 + (n - 1) * rate) / n) < 1e-9


def test_amenable_z2_full_shift(Z2):
    sys2 = full_shift(("0", "1"), Z2)
    tr = amenable_topological_trace(sys2, origin_partition(sys2), [1, 2, 3])
    for row in tr.rows:
        assert row.count == 2 ** row.size
        assert abs(row.value - LOG2) < 1e-12


# --- dominant measure selection ----------------------------------------------------


def _select_d8(fs, candidates, filter_delta, **kwargs):
    """select_dominant_measure on all 256 tuples of the d = 8 full shift."""
    w = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w, ("0",)))
    return select_dominant_measure(fs, origin_partition(fs), candidates, [f0], [0], "1.0",
                                   cyclic_model(fs.group, 8), w, filter_delta, **kwargs)


def test_select_dominant_single_candidate(fs, fair):
    res = _select_d8(fs, [fair], "0.6")
    assert res.winner_index == 0
    assert res.winner_count == res.unfiltered_count == 256


def test_select_dominant_net_violation_raises(fs):
    D = [BernoulliMeasure(fs, [p, 1 - p]) for p in (0.25, 0.5, 0.75)]
    with pytest.raises(ArgumentError, match="net condition"):
        _select_d8(fs, D, "0.15")


def test_select_dominant_pigeonhole_d8(fs):
    """The d=8 full-shift instance: B(1/2) wins with 182 of 256 signatures,
    comfortably above the 3-candidate pigeonhole bound."""
    D = [BernoulliMeasure(fs, [p, 1 - p]) for p in (0.25, 0.5, 0.75)]
    res = _select_d8(fs, D, "0.15", require_net=False)
    assert res.winner_index == 1
    assert res.counts == (92, 182, 92)
    assert res.bound == math.ceil(256 / 3)
    assert res.winner_count >= res.bound
    assert not res.net_ok and res.uncovered  # all-0/all-1 tuples are uncovered


def test_select_dominant_covering_net(fs):
    D = [BernoulliMeasure(fs, [Fraction(k, 8), 1 - Fraction(k, 8)])
         for k in (1, 3, 5, 7)]
    res = _select_d8(fs, D, "0.15")
    assert res.net_ok
    assert res.winner_count >= res.bound


def test_select_dominant_tie_breaks_to_first(fs, fair):
    res = _select_d8(fs, [fair, fair, fair], "0.6")
    assert res.winner_index == 0
    assert len(set(res.counts)) == 1


# module-level systems: hypothesis draws from them, so no function-scoped fixtures
SELECT_SYSTEMS = (full_shift(("0", "1"), LatticeGroup(1)), golden_mean_system())


@st.composite
def _selection_instances(draw):
    system = draw(st.sampled_from(SELECT_SYSTEMS))
    window = system.interval_window(0, 1)
    # a general cover takes the scan, whose product-cover search needs d <= 3
    general = draw(st.booleans())
    cover = _overlapping_cover(system) if general else origin_partition(system)
    d = draw(st.integers(2, 3 if general else 6))
    if draw(st.booleans()):
        sigma = cyclic_model(system.group, d)
    else:
        perm = draw(st.permutations(range(d)))
        sigma = SoficMap(system.group, d, images={(1,): perm}, provenance="random")
    delta = draw(st.sampled_from(["0.2", "0.35", "0.6", "1"]))
    probs = st.sampled_from([["0.5", "0.5"], ["0.7", "0.3"], ["0.2", "0.8"], ["1", "0"]])
    candidates = [BernoulliMeasure(system, p) for p in draw(st.lists(probs, min_size=1,
                                                                     max_size=3))]
    patterns = st.tuples(st.sampled_from([0, 1]), st.sampled_from(["0", "1"]))
    L = [TestFunction.indicator(system.pattern(system.window([g]), (a,)))
         for g, a in draw(st.lists(patterns, min_size=1, max_size=2))]
    filter_delta = draw(st.sampled_from(["0.1", "0.25", "0.5"]))
    return system, window, sigma, delta, candidates, L, filter_delta, cover


def _overlapping_cover(system):
    """{x_0 = 0}, {x_1 = 0} and {a 1 in x_0 x_1}: a cover, not a partition."""
    w = system.interval_window(0, 1)
    lang = system.language_values(w)
    return Cover(system, w, [[v for v in lang if v[0] == "0"], [v for v in lang if v[1] == "0"],
                             [v for v in lang if "1" in v]])


@settings(max_examples=60, deadline=None)
@given(_selection_instances())
def test_select_dominant_matches_materialised_oracle(instance):
    """On a partition (the frontier DP) and on an overlapping cover (the
    scan), the counts and the net check give what enumerate -> filter ->
    count_cover gives."""
    system, window, sigma, delta, candidates, L, filter_delta, cover = instance
    outer = enumerate_microstates_both(system, [1], delta, sigma, window)[1]
    kept = [filter_microstates(outer, MeasureFilter.build(nu, L, filter_delta))
            for nu in candidates]
    counts = tuple(count_cover(k, cover) for k in kept)
    near = set().union(*(k.tuples for k in kept))
    uncovered = [t for t in outer.tuples if t not in near]

    def empirical(t):
        return tuple(float(sum(f(tuple(x[window.index[g]] for g in f.window.elements))
                               for x in t) / sigma.d) for f in L)

    res = select_dominant_measure(system, cover, candidates, L, [1], delta, sigma, window,
                                  filter_delta, require_net=False)
    assert res.counts == counts
    assert res.unfiltered_count == count_cover(outer, cover)
    assert res.winner_index == max(range(len(counts)), key=lambda i: (counts[i], -i))
    assert res.net_ok == (not uncovered)
    assert len(res.uncovered) == min(5, len(uncovered))
    assert set(res.uncovered) <= {empirical(t) for t in uncovered}
    if uncovered:
        with pytest.raises(ArgumentError, match="net condition"):
            select_dominant_measure(system, cover, candidates, L, [1], delta, sigma, window,
                                    filter_delta)


# --- partition counting --------------------------------------------------------------


def brute_force_partition_count(lam, probs, eta):
    probs = [Fraction(str(p)) for p in probs]
    eta = Fraction(str(eta))
    n = len(probs)
    count = 0
    for assign in itertools.product(range(n + 1), repeat=lam):
        ok = True
        for k in range(n):
            size = sum(1 for a in assign if a == k)
            if not abs(Fraction(size, lam) - probs[k]) < eta:
                ok = False
                break
        count += ok
    return count


def test_partition_count_examples():
    r = partition_count_bound(4, [1], "0.3", "0.1")
    assert r.count == 5  # C(4,3) + C(4,4)
    r2 = partition_count_bound(10, ["0.5", "0.5"], "0.01", "0.1")
    assert r2.count == 252 and r2.holds
    r3 = partition_count_bound(7, [1], "0.01", "0.5")
    assert r3.count == 1 and r3.holds


def test_partition_count_brute_force_exhaustive():
    cases = [(6, [1], "0.3"), (8, ["0.5", "0.5"], "0.2"),
             (9, ["0.4", "0.6"], "0.15"), (12, ["0.25", "0.75"], "0.1"),
             (12, [1], "0.2"), (10, ["0.3", "0.3", "0.4"], "0.12")]
    for lam, p, eta in cases:
        got = partition_count_bound(lam, p, eta, "0.1").count
        assert got == brute_force_partition_count(lam, p, eta), (lam, p, eta)


def test_partition_count_validates(fs):
    with pytest.raises(ArgumentError):
        partition_count_bound(5, ["0.5", "0.5"], "0.6", "0.1")  # eta >= min p
    with pytest.raises(ArgumentError):
        partition_count_bound(5, ["0.5", "0.4"], "0.1", "0.1")  # sums to 0.9


def test_partition_bound_asymptotic_threshold():
    """The bound is asymptotic and needs eta small enough for the target eps:
    with eta = 0.01 it holds from small |Lambda| up, while the looser
    eta = 0.05 already overshoots e^{|Lambda|(H + 2 eps)} at |Lambda| = 64
    (expected and recorded, not asserted as a bound)."""
    for lam in (16, 32, 64):
        assert partition_count_bound(lam, ["0.5", "0.5"], "0.01", "0.05").holds
    loose = partition_count_bound(64, ["0.5", "0.5"], "0.05", "0.05")
    assert not loose.holds  # documented small-parameter failure mode


# --- variational -----------------------------------------------------------------------


def test_variational_full_shift_gap_zero(fs, fair, fs_origin):
    w = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w, ("0",)))
    maps = [cyclic_model(fs.group, d) for d in (6, 8, 10)]
    rep = check_variational(fs, fs_origin, [("fair", fair)], [f0], [0],
                            ["0.55"], maps, w)
    assert rep.ok
    assert all(r.gap_outer == 0.0 for r in rep.rows)


def test_variational_ordering_all_stages(fs, fair, skew, fs_origin):
    w = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w, ("0",)))
    maps = [cyclic_model(fs.group, d) for d in (4, 6, 8)]
    rep = check_variational(fs, fs_origin, [("fair", fair), ("skew", skew)],
                            [f0], [0], ["0.1", "0.25"], maps, w)
    assert rep.ok
    for r in rep.rows:
        assert r.count_filtered_outer <= r.count_unfiltered_outer
        assert r.count_filtered_inner <= r.count_unfiltered_inner


def test_variational_unsupported_measure_collapses(gm, fair, gm_origin):
    """Bernoulli(1/2) is not supported on the golden-mean shift: filtered
    counts collapse toward the -inf sentinel as delta shrinks."""
    w = gm.interval_window(0, 1)
    f11 = TestFunction.indicator(gm.pattern(w, ("1", "1")))  # mu-mass 1/4, X-mass 0
    half = BernoulliMeasure(gm, ["0.5", "0.5"])
    maps = [cyclic_model(gm.group, 8)]
    gaps = []
    for delta in ("0.3", "0.26", "0.1"):
        rep = check_variational(gm, gm_origin, [("half", half)], [f11], [1],
                                [delta], maps, gm.interval_window(-1, 1))
        assert rep.ok
        gaps.append(rep.rows[0].gap_outer)
    assert gaps[-1] == math.inf  # empirical average 0 vs mu(f)=1/4 fails at 0.1
    assert gaps[0] < math.inf


# --- agreement --------------------------------------------------------------------------


def test_agreement_full_shift_gap_zero(fs, fs_origin):
    rep = check_amenable_agreement(fs, fs_origin, [4, 8, 12],
                                   lambda n: cyclic_model(fs.group, n),
                                   ["0.01"], [1], fs.interval_window(-2, 2))
    assert rep.ok
    for r in rep.rows:
        assert r.gap < 1e-12


def test_agreement_golden_mean(gm, gm_origin):
    rep = check_amenable_agreement(gm, gm_origin, [12],
                                   lambda n: cyclic_model(gm.group, n),
                                   ["0.01"], [1], gm.interval_window(-2, 2))
    assert rep.ok
    row = rep.rows[0]
    assert abs(row.value_sofic_outer - math.log(322) / 12) < 1e-12
    assert abs(row.value_amenable - math.log(377) / 12) < 1e-12
    assert row.gap < 0.05


def test_agreement_finite_group(Z3):
    sys3 = full_shift(("0", "1"), Z3)
    U3 = origin_partition(sys3)
    rep = check_amenable_agreement(sys3, U3, [1],
                                   lambda n: regular_representation(Z3),
                                   ["0.01"], [0, 1, 2], sys3.window([0, 1, 2]))
    assert rep.ok
    row = rep.rows[0]
    assert abs(row.value_amenable - LOG2) < 1e-12  # (1/3) log 8
    assert abs(row.value_sofic_outer - LOG2) < 1e-12


def test_agreement_measure_side(fs, fair, fs_origin):
    w = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w, ("0",)))
    rep = check_amenable_agreement(fs, fs_origin, [4, 6],
                                   lambda n: cyclic_model(fs.group, n),
                                   ["0.6"], [0], w, measure=fair, L=[f0])
    assert rep.ok
    for r in rep.rows:
        assert abs(r.value_amenable - LOG2) < 1e-12
        assert r.value_sofic_outer <= r.value_amenable + 1e-12


# --- entropy pairs ------------------------------------------------------------------------


def test_entropy_pair_full_shift(fs):
    w = fs.window([0])
    p0, p1 = fs.pattern(w, ("0",)), fs.pattern(w, ("1",))
    rep = entropy_pair_scan(fs, [(p0, p1)], 0.1, 8)
    assert rep.rows[0].positive
    assert abs(rep.rows[0].value - LOG2) < 1e-12
    assert rep.note == "numerical evidence, not a certificate"


def test_entropy_pair_fixed_point_system(Z):
    from soficlab import SymbolicSystem

    fixed = SymbolicSystem(("0", "1"), Z, forbidden=[(((0,),), ("1",))])
    w = fixed.window([0])
    p0, p1 = fixed.pattern(w, ("0",)), fixed.pattern(w, ("1",))
    rep = entropy_pair_scan(fixed, [(p0, p1)], 0.1, 6)
    assert rep.rows[0].value == 0.0 and not rep.rows[0].positive


def test_entropy_pair_golden_mean(gm):
    w = gm.window([0])
    p0, p1 = gm.pattern(w, ("0",)), gm.pattern(w, ("1",))
    rep = entropy_pair_scan(gm, [(p0, p1)], 0.1, 8)
    assert rep.rows[0].positive
    assert abs(rep.rows[0].value - math.log(55) / 8) < 1e-12  # -> log phi


# --- atom-indicator finite-stage bound -------------------------------------------------


def test_filtered_value_bounded_by_partition_entropy(fs, fs_origin):
    """With atom-indicator observables and the recipe tolerances, the
    finite-stage filtered value stays below H_mu(alpha) + 3 eps past d0."""
    mu = BernoulliMeasure(fs, ["0.2", "0.8"])
    eps = 0.1
    n_atoms = 2
    kappa = eps / (2 * math.log(2))
    delta = kappa / (4 * n_atoms)
    w = fs.window([0])
    L = [TestFunction.indicator(fs.pattern(w, (a,))) for a in fs.alphabet]
    target = H(0.2, 0.8) + 3 * eps
    maps = [cyclic_model(fs.group, d) for d in (8, 10, 12)]
    tr = sofic_measure_trace(fs, fs_origin, mu, L, [0], str(delta), maps, w)
    for row in tr.rows:
        if row.value_outer != NEG_INF:
            assert row.value_outer <= target + 1e-12
    assert any(r.value_outer != NEG_INF for r in tr.rows)


def test_finite_group_local_invariants_reported_not_asserted(Z3):
    """For finite acting groups the relation between the two local measure
    invariants is genuinely open; both sides are computed and the gap is
    reported, with only sanity (not equality) asserted."""
    sys3 = full_shift(("0", "1"), Z3)
    U3 = origin_partition(sys3)
    mu = BernoulliMeasure(sys3, ["0.3", "0.7"])
    amen = amenable_measure_trace(sys3, U3, mu, [1]).final_value
    w = sys3.window([0, 1, 2])
    f0 = TestFunction.indicator(sys3.pattern(sys3.window([0]), ("0",)))
    tr = sofic_measure_trace(sys3, U3, mu, [f0], [0, 1, 2], "0.25",
                             [regular_representation(Z3)], w)
    sofic_val = tr.rows[0].value_outer
    gap = abs(sofic_val - amen)
    assert math.isfinite(amen) and amen > 0
    assert sofic_val <= math.log(2) + 1e-12  # only the trivial topological bound
    assert math.isfinite(gap)  # reported, never asserted to vanish


def test_amenable_trace_over_free_group_unsupported():
    f2 = full_shift(("0", "1"), FreeGroup(2))
    with pytest.raises(UnsupportedOperationError):
        amenable_topological_trace(f2, origin_partition(f2), [2])

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either exact integer arithmetic (counts), a frozen
hand-derivable constant (Fibonacci / Lucas / binomial / multinomial), or an
inequality the finite-stage quantities must satisfy without tolerance.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from soficlab import (BernoulliMeasure, Cover, FiniteSubset, FiniteTableGroup,
                      FreeGroup, LatticeGroup, MarkovMeasure, NEG_INF, TestFunction,
                      amenable_measure_trace, amenable_topological_trace,
                      check_amenable_agreement, check_variational,
                      cover_entropy, cyclic_model, entropy_pair_scan, from_folner,
                      folner_set, full_shift, golden_mean_system, min_subcover,
                      origin_partition, partial_cover_count, partition_count_bound,
                      pullback_iterate, random_free_model, regular_representation,
                      select_dominant_measure, sofic_measure_trace,
                      sofic_topological_trace, sofic_quasi_tile, amenable_exact_tile,
                      trivial_cover, verify_tiling, zero_defect_delta, MeasureFilter)
from soficlab.microstates import count_cover, enumerate_microstates_both, filter_microstates

LOG2 = math.log(2)
PHI = (1 + 5 ** 0.5) / 2


def _report(num, desc, failures, elapsed=None):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[acceptance] criterion {num} {status}: {desc}{suffix}")
    assert not failures, f"criterion {num}: {failures}"


# --------------------------------------------------------------------------------


def test_criterion_1_full_shift_exactness(fs, fs_origin):
    t0 = time.monotonic()
    failures = []
    am = amenable_topological_trace(fs, fs_origin, range(1, 17))
    for row in am.rows:
        if row.count != 2 ** row.n:
            failures.append(f"amenable count at n={row.n}: {row.count}")
        if abs(row.value - LOG2) > 1e-12:
            failures.append(f"amenable value at n={row.n}")
    # documented sofic regime: certified-outer, delta = 0.01, window {-2..2}
    maps = [cyclic_model(fs.group, d) for d in range(1, 13)]
    tr = sofic_topological_trace(fs, fs_origin, [1], "0.01", maps,
                                 fs.interval_window(-2, 2))
    for row in tr.rows:
        if row.count_outer != 2 ** row.d:
            failures.append(f"sofic count at d={row.d}: {row.count_outer}")
        if abs(row.value_outer - LOG2) > 1e-12:
            failures.append(f"sofic value at d={row.d}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(1, "full shift: counts 2^n / 2^d exactly, values log 2", failures, elapsed)


def test_criterion_2_golden_mean_convergence(gm, gm_origin):
    t0 = time.monotonic()
    failures = []
    am = amenable_topological_trace(gm, gm_origin, [16])
    if am.rows[0].count != 2584:
        failures.append(f"Fib(18) count: {am.rows[0].count}")
    if abs(am.rows[0].value - math.log(2584) / 16) > 1e-12:
        failures.append("amenable value != (1/16) log 2584")
    if abs(am.rows[0].value - math.log(PHI)) > 0.02:
        failures.append("amenable value not within 0.02 of log phi")
    tr = sofic_topological_trace(gm, gm_origin, [1], "0.01",
                                 [cyclic_model(gm.group, 12)],
                                 gm.interval_window(-2, 2))
    if tr.rows[0].count_outer != 322:
        failures.append(f"Lucas(12) count: {tr.rows[0].count_outer}")
    if abs(tr.rows[0].value_outer - math.log(322) / 12) > 1e-12:
        failures.append("sofic value != (1/12) log 322")
    rep = check_amenable_agreement(gm, gm_origin, [12],
                                   lambda n: cyclic_model(gm.group, n),
                                   ["0.01"], [1], gm.interval_window(-2, 2))
    if not rep.ok or rep.rows[0].gap >= 0.05:
        failures.append(f"agreement gap {rep.rows[0].gap}")
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(2, "golden mean: Fib/Lucas counts, matched-scale gap < 0.05",
            failures, elapsed)


def test_criterion_3_measure_side(fs, gm, parry, fs_origin, gm_origin):
    failures = []
    for p in (Fraction(1, 2), Fraction(3, 10)):
        mu = BernoulliMeasure(fs, [p, 1 - p])
        hp = -(float(p) * math.log(p) + float(1 - p) * math.log(1 - p))
        tr = amenable_measure_trace(fs, fs_origin, mu, range(1, 13))
        for row in tr.rows:
            if abs(row.value - hp) > 1e-12:
                failures.append(f"Bernoulli({p}) at n={row.n}: {row.value} vs {hp}")
    rate = parry.entropy_rate()
    if abs(rate - math.log(PHI)) > 1e-12:
        failures.append("closed-form rate is not log phi")
    tr = amenable_measure_trace(gm, gm_origin, parry, range(1, 13))
    for prev, cur in zip(tr.rows, tr.rows[1:]):
        inc = cur.entropy - prev.entropy
        if abs(inc - rate) > 1e-9:
            failures.append(f"Markov increment at n={cur.n}: {inc}")
    n = tr.rows[-1].n
    closed = (tr.rows[0].entropy + (n - 1) * rate) / n
    if abs(tr.rows[-1].value - closed) > 1e-9:
        failures.append("Markov trace value vs closed form")
    _report(3, "Bernoulli trace = H(p); Markov increments = entropy rate to 1e-9",
            failures)


def _ordering_corpus():
    Z = LatticeGroup(1)
    Z2 = LatticeGroup(2)
    Z3 = FiniteTableGroup.cyclic(3)
    fs = full_shift(("0", "1"), Z)
    gm = golden_mean_system()
    fs3 = full_shift(("a", "b", "c"), Z)
    fsz2 = full_shift(("0", "1"), Z2)
    fszn = full_shift(("0", "1"), Z3)
    f2 = FreeGroup(2)
    fsf2 = full_shift(("0", "1"), f2)
    _, rnd = random_free_model(2, 3, seed=0)

    def overlap(system):
        w = system.window([system.group.identity])
        lang = system.language_values(w)
        return Cover(system, w, [lang, [lang[0]]])

    corpus = []
    # (label, system, cover, sigma, window, F, F_big, measure)
    for d in (4, 6):
        corpus.append((f"fs-cyc{d}", fs, origin_partition(fs), cyclic_model(Z, d),
                       fs.interval_window(0, 2), [1], [1, 2],
                       BernoulliMeasure(fs, ["0.5", "0.5"])))
    corpus.append(("fs-trivial", fs, trivial_cover(fs, fs.window([0])),
                   cyclic_model(Z, 4), fs.interval_window(0, 2), [1], [1, 2],
                   BernoulliMeasure(fs, ["0.5", "0.5"])))
    corpus.append(("fs-overlap", fs, overlap(fs), cyclic_model(Z, 4),
                   fs.interval_window(0, 2), [1], [1, 2],
                   BernoulliMeasure(fs, ["0.5", "0.5"])))
    for d in (4, 8):
        corpus.append((f"gm-cyc{d}", gm, origin_partition(gm), cyclic_model(Z, d),
                       gm.interval_window(0, 2), [1], [1, 2],
                       MarkovMeasure.stationary(
                           gm, {"0": {"0": Fraction(2, 3), "1": Fraction(1, 3)},
                                "1": {"0": 1, "1": 0}})))
    corpus.append(("gm-overlap", gm, overlap(gm), cyclic_model(Z, 5),
                   gm.interval_window(0, 2), [1], [1, 2],
                   MarkovMeasure.stationary(
                       gm, {"0": {"0": Fraction(2, 3), "1": Fraction(1, 3)},
                            "1": {"0": 1, "1": 0}})))
    corpus.append(("fs-fallback", fs, origin_partition(fs),
                   from_folner(Z, folner_set(Z, 6)), fs.interval_window(0, 2),
                   [1], [1, 2], BernoulliMeasure(fs, ["0.3", "0.7"])))
    corpus.append(("gm-fallback", gm, origin_partition(gm),
                   from_folner(Z, folner_set(Z, 8)), gm.interval_window(0, 2),
                   [1], [1, 2],
                   MarkovMeasure.stationary(
                       gm, {"0": {"0": Fraction(2, 3), "1": Fraction(1, 3)},
                            "1": {"0": 1, "1": 0}})))
    corpus.append(("fs3-cyc4", fs3, origin_partition(fs3), cyclic_model(Z, 4),
                   fs3.interval_window(0, 2), [1], [1, 2],
                   BernoulliMeasure(fs3, ["0.2", "0.3", "0.5"])))
    corpus.append(("z2-cyc2", fsz2, origin_partition(fsz2), cyclic_model(Z2, 2),
                   fsz2.window([(0, 0), (0, 1), (1, 0), (1, 1)]),
                   [(1, 0)], [(1, 0), (0, 1)],
                   BernoulliMeasure(fsz2, ["0.5", "0.5"])))
    corpus.append(("zmod3-regular", fszn, origin_partition(fszn),
                   regular_representation(Z3), fszn.window([0, 1, 2]),
                   [1], [1, 2], BernoulliMeasure(fszn, ["0.5", "0.5"])))
    corpus.append(("f2-random", fsf2, origin_partition(fsf2), rnd,
                   fsf2.window([(), (1,), (2,)]), [(1,)], [(1,), (2,)],
                   BernoulliMeasure(fsf2, ["0.5", "0.5"])))
    return corpus


def test_criterion_4_ordering_suite():
    t0 = time.monotonic()
    corpus = _ordering_corpus()
    assert len(corpus) >= 12
    failures = []
    for label, system, cover, sigma, window, F, F_big, measure in corpus:
        d = sigma.d
        delta_small = zero_defect_delta(system, window, F_big, d)
        delta_big = 8 * delta_small
        w0 = system.window([system.group.identity])
        f0 = TestFunction.indicator(
            system.pattern(w0, (system.alphabet[0],)))
        mf = MeasureFilter.build(measure, [f0], delta_big)
        sets = {}
        for key, FF, dl in (("base", F, delta_big), ("bigF", F_big, delta_big),
                            ("smalld", F, delta_small)):
            sets[key] = enumerate_microstates_both(system, FF, dl, sigma, window)
        n_cover = min_subcover(cover).count
        for key, (inner, outer) in sets.items():
            ci, co = count_cover(inner, cover), count_cover(outer, cover)
            if not ci <= co:
                failures.append(f"{label}/{key}: inner {ci} > outer {co}")
            if not co <= n_cover ** d:
                failures.append(f"{label}/{key}: count above N(U,X)^d")
            if not set(inner.tuples) <= set(outer.tuples):
                failures.append(f"{label}/{key}: mode sandwich broken")
        for mode in (0, 1):
            if not len(sets["bigF"][mode]) <= len(sets["base"][mode]):
                failures.append(f"{label}: not antitone in F (mode {mode})")
            if not len(sets["smalld"][mode]) <= len(sets["base"][mode]):
                failures.append(f"{label}: not antitone in delta (mode {mode})")
        for mode in (0, 1):
            filtered = filter_microstates(sets["base"][mode], mf)
            if not len(filtered) <= len(sets["base"][mode]):
                failures.append(f"{label}: filter grew the set")
            if not count_cover(filtered, cover) <= count_cover(sets["base"][mode], cover):
                failures.append(f"{label}: filtered count above unfiltered")
        # refinement monotonicity against the trivial cover on the same set
        triv = trivial_cover(system, system.window([system.group.identity]))
        out = sets["base"][1]
        if count_cover(out, cover) < count_cover(out, triv):
            failures.append(f"{label}: refinement monotonicity broken")
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s >= 5min")
    _report(4, f"ordering suite exact on {len(corpus)} corpus instances",
            failures, elapsed)


def _brute_force_partition_count(lam, probs, eta):
    probs = [Fraction(str(p)) for p in probs]
    eta = Fraction(str(eta))
    n = len(probs)
    count = 0
    sizes = [0] * (n + 1)
    for assign in itertools.product(range(n + 1), repeat=lam):
        for k in range(n + 1):
            sizes[k] = 0
        for a in assign:
            sizes[a] += 1
        ok = True
        for k in range(n):
            if not abs(Fraction(sizes[k], lam) - probs[k]) < eta:
                ok = False
                break
        count += ok
    return count


def test_criterion_5_combinatorial_oracles(fs, gm, fair, skew, gm_rational_markov,
                                   fs_origin, gm_origin):
    failures = []
    # 5a: partition-count bound vs exhaustive enumeration, |Lambda| <= 12
    cases = [(4, [1], "0.3"), (8, ["0.5", "0.5"], "0.2"), (10, ["0.5", "0.5"], "0.15"),
             (12, [1], "0.2"), (12, ["0.25", "0.75"], "0.2"),
             (9, ["0.4", "0.6"], "0.15")]
    for lam, p, eta in cases:
        got = partition_count_bound(lam, p, eta, "0.1").count
        want = _brute_force_partition_count(lam, p, eta)
        if got != want:
            failures.append(f"partition count ({lam},{p},{eta}): {got} != {want}")
    # 5b: the b_nu inequality on the corpus
    corpus = []
    for n in (1, 2, 3):
        F = FiniteSubset(fs.group, range(n))
        for a in ("0.5", "0.9"):
            corpus.append((fair, fs_origin, F, a))
            corpus.append((skew, fs_origin, F, a))
    for n in (2, 3):
        corpus.append((gm_rational_markov, gm_origin,
                       FiniteSubset(gm.group, range(n)), "0.8"))
    for mu, V, F, a in corpus:
        vf = pullback_iterate(V, F)
        lhs = cover_entropy(mu, vf).value
        b = partial_cover_count(mu, F, a, V)
        n_vx = min_subcover(V).count
        rhs = (math.log(b) + (1 - float(Fraction(a))) * len(F) * math.log(n_vx)
               + math.log(2))
        if lhs > rhs + 1e-12:
            failures.append(f"b_nu inequality at |F|={len(F)}, a={a}")
    # 5c: pigeonhole on the d=8 full-shift instance
    sigma = cyclic_model(fs.group, 8)
    w0 = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w0, ("0",)))
    D = [BernoulliMeasure(fs, [p, 1 - p]) for p in (0.25, 0.5, 0.75)]
    res = select_dominant_measure(fs, fs_origin, D, [f0], [0], "1.0", sigma, w0, "0.15",
                                  require_net=False)
    if res.unfiltered_count != 256 or res.winner_count != 182:
        failures.append(f"pigeonhole instance counts: {res}")
    if res.winner_count < math.ceil(res.unfiltered_count / len(D)):
        failures.append("pigeonhole bound violated")
    _report(5, "partition-count oracle, b_nu inequality, pigeonhole bound", failures)


def test_criterion_6_tiling(Z, Z2, Z3):
    failures = []
    corpus = []
    for d in (9, 12, 13, 20):
        corpus.append(("sofic", cyclic_model(Z, d), [FiniteSubset(Z, [0, 1, 2])],
                       "0.25", 0))
    corpus.append(("sofic", cyclic_model(Z2, 4),
                   [FiniteSubset(Z2, [(0, 0), (0, 1), (1, 0), (1, 1)])], "0.25", 0))
    corpus.append(("sofic", regular_representation(Z3),
                   [FiniteSubset(Z3, [0, 1, 2])], "0.25", 0))
    corpus.append(("amenable", cyclic_model(Z, 12), [FiniteSubset(Z, [0, 1, 2])],
                   "0.1", 0))
    corpus.append(("amenable", cyclic_model(Z, 13), [FiniteSubset(Z, [0, 1, 2])],
                   "0.1", 0))
    for flavor, sigma, shapes, eta, tau in corpus:
        if flavor == "sofic":
            t = sofic_quasi_tile(sigma, None, shapes, eta, tau)
        else:
            t = amenable_exact_tile(sigma, shapes, tau, eta)
        if verify_tiling(t, sigma) != t.record:
            failures.append(f"verification mismatch d={sigma.d}")
        if not t.record.all_ok(t.flavor):
            failures.append(f"conditions failed d={sigma.d} {t.flavor}")
        if t.coverage < 1 - Fraction(str(tau)) - Fraction(str(eta)):
            failures.append(f"coverage guarantee missed d={sigma.d}")
    t12 = sofic_quasi_tile(cyclic_model(Z, 12), None,
                           [FiniteSubset(Z, [0, 1, 2])], "0.1", 0)
    if t12.centers != ((1, 4, 7, 10),):
        failures.append(f"canonical centers: {t12.centers}")
    _report(6, "tilings verified independently; C_1 = (1,4,7,10) reproduced",
            failures)


def test_criterion_7_variational_inequality():
    failures = []
    corpus = _ordering_corpus()
    for label, system, cover, sigma, window, F, _, measure in corpus:
        delta = 8 * zero_defect_delta(system, window, F, sigma.d)
        w0 = system.window([system.group.identity])
        f0 = TestFunction.indicator(system.pattern(w0, (system.alphabet[0],)))
        rep = check_variational(system, cover, [(label, measure)], [f0], F,
                                [delta], [sigma], window)
        if not rep.ok:
            failures.append(f"{label}: ordering violated")
    # full shift + Bernoulli(1/2): stage gap exactly zero
    Z = LatticeGroup(1)
    fs = full_shift(("0", "1"), Z)
    fair = BernoulliMeasure(fs, ["0.5", "0.5"])
    w0 = fs.window([0])
    f0 = TestFunction.indicator(fs.pattern(w0, ("0",)))
    maps = [cyclic_model(Z, d) for d in (6, 8, 10)]
    rep = check_variational(fs, origin_partition(fs), [("fair", fair)], [f0],
                            [0], ["0.55"], maps, w0)
    if not rep.ok or any(r.gap_outer != 0.0 for r in rep.rows):
        failures.append("full shift fair-coin gap not zero")
    _report(7, "measure trace <= topological trace at every stage; fair-coin gap 0",
            failures)


def test_criterion_8_brute_force_equivalence():
    failures = []
    corpus = _ordering_corpus()
    checked = 0
    for label, system, cover, sigma, window, F, _, _ in corpus:
        d = sigma.d
        if len(system.alphabet) ** d > 4096:
            continue
        lang = system.language_values(window)
        if len(lang) ** d > 300_000:
            continue
        for delta in (zero_defect_delta(system, window, F, d),
                      8 * zero_defect_delta(system, window, F, d)):
            got = enumerate_microstates_both(system, F, delta, sigma, window)
            ref = enumerate_microstates_both(system, F, delta, sigma, window,
                                             strategy="naive")
            if got[0].tuples != ref[0].tuples or got[1].tuples != ref[1].tuples:
                failures.append(f"{label}: pruned != naive at delta={delta}")
            checked += 1
    if checked < 10:
        failures.append(f"only {checked} instances within the 4096 budget")
    _report(8, f"pruned enumeration equals naive scan on {checked} instances",
            failures)


def test_criterion_9_entropy_pair_scan(fs, Z):
    failures = []
    w0 = fs.window([0])
    rep = entropy_pair_scan(fs, [(fs.pattern(w0, ("0",)), fs.pattern(w0, ("1",)))],
                            0.1, 8)
    if not rep.rows[0].positive or abs(rep.rows[0].value - LOG2) > 1e-9:
        failures.append(f"full shift pair value {rep.rows[0].value}")
    from soficlab import SymbolicSystem

    fixed = SymbolicSystem(("0", "1"), Z, forbidden=[(((0,),), ("1",))])
    wf = fixed.window([0])
    rep2 = entropy_pair_scan(fixed, [(fixed.pattern(wf, ("0",)),
                                      fixed.pattern(wf, ("1",)))], 0.1, 6)
    if rep2.rows[0].value != 0.0 or rep2.rows[0].positive:
        failures.append("fixed-point pair not reported zero")
    _report(9, "origin pair positive (log 2) on the full shift, zero on the "
               "fixed point", failures)

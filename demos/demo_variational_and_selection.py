"""Walkthrough: the finite-stage variational inequality and the pigeonhole
selection of a dominant measure.

Filtering microstates by empirical averages can only shrink cover counts:
the measure trace sits below the topological trace at every stage.  A
pigeonhole argument picks, from any finite family of candidate measures, one
whose filtered count carries at least a 1/|D| share of the total.
"""

import math

from soficlab import (BernoulliMeasure, LatticeGroup, TestFunction, check_variational,
                      cyclic_model, full_shift, golden_mean_system, origin_partition,
                      select_dominant_measure)

Z = LatticeGroup(1)
fs = full_shift(("0", "1"), Z)
fair = BernoulliMeasure(fs, ["0.5", "0.5"])
U = origin_partition(fs)
w0 = fs.window([0])
f0 = TestFunction.indicator(fs.pattern(w0, ("0",)))

print("=" * 72)
print("Variational inequality, full shift + Bernoulli(1/2)")
print("=" * 72)
maps = [cyclic_model(Z, d) for d in (6, 8, 10)]
rep = check_variational(fs, U, [("fair", fair)], [f0], [0], ["0.2", "0.55"], maps, w0)
print(f"{'delta':>6} {'d':>3} {'unfiltered':>11} {'filtered':>9} {'gap':>10}")
for r in rep.rows:
    print(f"{float(r.delta):>6} {r.d:>3} {r.count_unfiltered_outer:>11} "
          f"{r.count_filtered_outer:>9} {r.gap_outer:>10.4f}")
print("""
At delta = 0.2 the filter keeps tuples whose zero-fraction lies in
(0.3, 0.7): binomial counts 50/182/672 against 2^d, a strictly positive
gap.  At delta = 0.55 the filter is vacuous and the gap vanishes -- the
finite-stage shadow of the variational principle's attained maximum.
""")

print("=" * 72)
print("Unsupported measure collapses: golden mean filtered by Bernoulli(1/2)")
print("=" * 72)
gm = golden_mean_system()
half = BernoulliMeasure(gm, ["0.5", "0.5"])
w11 = gm.interval_window(0, 1)
f11 = TestFunction.indicator(gm.pattern(w11, ("1", "1")))
maps = [cyclic_model(Z, 8)]
for delta in ("0.3", "0.26", "0.1"):
    rep = check_variational(gm, origin_partition(gm), [("half", half)], [f11],
                            [1], [delta], maps, gm.interval_window(-1, 1))
    r = rep.rows[0]
    gap = "inf" if r.gap_outer == math.inf else f"{r.gap_outer:.4f}"
    print(f"  delta={delta}: filtered count {r.count_filtered_outer:4d}, gap {gap}")
print("mu([11]) = 1/4 but the word 11 never occurs in X: as delta shrinks the")
print("filtered set empties out -- the trace heads to the -inf sentinel.")

print()
print("=" * 72)
print("Dominant measure selection at d = 8 (the pigeonhole bound)")
print("=" * 72)
sigma = cyclic_model(Z, 8)
D = [BernoulliMeasure(fs, [p, 1 - p]) for p in (0.25, 0.5, 0.75)]
res = select_dominant_measure(fs, U, D, [f0], [0], "1.0", sigma, w0, "0.15",
                              require_net=False)
print(f"unfiltered count: {res.unfiltered_count}")
print(f"filtered counts by candidate p in (0.25, 0.5, 0.75): {res.counts}")
print(f"winner: index {res.winner_index} with {res.winner_count} "
      f">= ceil(256/3) = {res.bound}")
print(f"net condition satisfied: {res.net_ok} "
      f"(all-0 and all-1 tuples fall outside every candidate's 0.15-ball,")
print(" so this instance runs with the net validation waived; a covering")
print(" candidate grid such as p in (1/8, 3/8, 5/8, 7/8) validates cleanly).")

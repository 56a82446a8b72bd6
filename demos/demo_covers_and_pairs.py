"""Walkthrough: cover algebra, cover entropy, partial covers, entropy pairs.

Covers are finite families of cylinder-unions over a window; partitions
are the disjoint case.  Cover entropy minimizes Shannon entropy over the
partitions finer than the cover, searching the order partitions (each
element in turn takes what the earlier ones left); b_nu counts the smallest
subfamily of V_F catching measure a.  Entropy pairs are scanned through complement
covers of candidate cylinders.
"""

import math
from fractions import Fraction

from soficlab import (BernoulliMeasure, Cover, FiniteSubset, LatticeGroup,
                      MarkovMeasure, cover_entropy, entropy_pair_scan, full_shift,
                      golden_mean_system, min_subcover, origin_partition,
                      partial_cover_count, pullback_iterate, shannon_entropy)

Z = LatticeGroup(1)
fs = full_shift(("0", "1"), Z)
gm = golden_mean_system()

print("=" * 72)
print("Joins and pullbacks: U_F over growing F")
print("=" * 72)
U = origin_partition(gm)
for n in (1, 2, 3, 5, 8):
    vf = pullback_iterate(U, FiniteSubset(Z, range(n)))
    print(f"  |F| = {n}: V_F has {len(vf)} cells, N(V_F, X) = "
          f"{min_subcover(vf).count}")
print("(cells are exactly the admissible words: Fibonacci counts again)")

print()
print("=" * 72)
print("Cover entropy of an overlapping two-element cover")
print("=" * 72)
ten = full_shift(tuple("0123456789"), Z)
w = ten.window([0])
A = [(str(i),) for i in range(6)]
B = [(str(i),) for i in range(3, 10)]
V = Cover(ten, w, [A, B])
mu = BernoulliMeasure(ten, [Fraction(1, 10)] * 10)
res = cover_entropy(mu, V)
H = lambda *ps: -sum(p * math.log(p) for p in ps if p)
print(f"mu(A) = 0.6, mu(B) = 0.7, mu(A and B) = 0.3")
print(f"H_mu(V) = {res.value:.6f}")
print(f"the two extreme assignment partitions give "
      f"H(0.6,0.4) = {H(.6,.4):.6f} and H(0.3,0.7) = {H(.3,.7):.6f};")
print("the minimum is attained by sending the overlap to B.")

print()
print("=" * 72)
print("Partial cover counts b_nu(F, a, V)")
print("=" * 72)
mk = MarkovMeasure.stationary(
    gm, {"0": {"0": Fraction(2, 3), "1": Fraction(1, 3)}, "1": {"0": 1, "1": 0}})
for n in (2, 3, 4):
    F = FiniteSubset(Z, range(n))
    for a in ("0.5", "0.9"):
        b = partial_cover_count(mk, F, a, origin_partition(gm))
        vf = pullback_iterate(origin_partition(gm), F)
        print(f"  |F| = {n}, a = {a}: b_nu = {b} of {len(vf)} cells")
print("(the heaviest cells are collected first; the partial-cover entropy bound")
print(" H(V_F) <= log b + (1-a)|F| log N(V,X) + log 2 is asserted in tests)")

print()
print("=" * 72)
print("Entropy pair scan: complement covers of candidate cylinders")
print("=" * 72)
for system, name in ((fs, "full shift"), (gm, "golden mean")):
    w0 = system.window([0])
    pair = (system.pattern(w0, ("0",)), system.pattern(w0, ("1",)))
    rep = entropy_pair_scan(system, [pair], 0.1, 8)
    r = rep.rows[0]
    print(f"  {name}: value = {r.value:.6f} -> "
          f"{'entropy pair' if r.positive else 'not an entropy pair'}")
print(f"  ({rep.note}; log 2 = {math.log(2):.6f}, "
      f"log phi = {math.log((1+5**0.5)/2):.6f})")

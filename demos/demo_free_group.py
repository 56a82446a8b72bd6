"""Walkthrough: sofic microstates of a free group, counted exactly.

The hard-core shift on F_2 = <a, b> forbids two 1s next to each other along
a and along b.  With random permutation models sigma of F_2, window
{e, a, b}, F = {a, b} and a tolerance so small that no mismatch survives,
an outer microstate is an independent set of the Schreier graph of sigma.
The frontier DP counts these stages without visiting a tuple; the demo
checks each count against a plain branching count of independent sets.
"""

import math

from soficlab import (FreeGroup, SymbolicSystem, origin_partition, random_free_model,
                      sofic_topological_trace, zero_defect_delta)

F2 = FreeGroup(2)
a, b = (1,), (2,)
hard_core = SymbolicSystem(("0", "1"), F2, label="hard-core",
                           forbidden=[(((), a), ("1", "1")), (((), b), ("1", "1"))])
window = hard_core.window([(), a, b])
cover = origin_partition(hard_core)
stages = (4, 8, 12, 16, 20)
seed = 1


def independent_sets(sigma):
    """Independent sets of the graph joining i to sigma_a(i) and sigma_b(i)."""
    d = sigma.d
    neighbours = [set() for _ in range(d)]
    looped = set()
    for s in (a, b):
        for i, j in enumerate(sigma.image_array(s)):
            if i == j:
                looped.add(i)
            else:
                neighbours[i].add(j)
                neighbours[j].add(i)

    def count(free):
        if not free:
            return 1
        v = min(free)
        rest = free - {v}
        return count(rest) + (0 if v in looped else count(rest - neighbours[v]))

    return count(frozenset(range(d)))


print("=" * 72)
print(f"Hard core on F_2, random permutation models (seed {seed}), zero defect")
print("=" * 72)
maps = [random_free_model(2, d, seed)[1] for d in stages]
delta = zero_defect_delta(hard_core, window, [a, b], max(stages))
trace = sofic_topological_trace(hard_core, cover, [a, b], delta, maps, window)
print(f"{'d':>4} {'N outer':>9} {'(1/d) log N':>12} {'independent sets':>17} {'path':>5}")
for row, sigma in zip(trace.rows, maps):
    print(f"{row.d:>4} {row.count_outer:>9} {row.value_outer:>12.6f} "
          f"{independent_sets(sigma):>17} {row.method:>5}")
print(f"inner counts: {[row.count_inner for row in trace.rows]} "
      "(the window tail keeps every inner set empty at this tolerance)")
print(f"every value lies below log 2 = {math.log(2):.6f}, the full shift's entropy.")

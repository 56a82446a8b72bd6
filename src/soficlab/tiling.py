"""Constructive quasi-tiling of {1..d} by translated tiles sigma(F_k) C_k.

The greedy construction follows the shape list from largest to smallest:
a center is admitted when its translate is bijectively defined, stays off
the other phases, and contributes enough new points; the verification
record is then recomputed from scratch, independent of the construction
path, so a tiling never certifies itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArgumentError
from .groups import FiniteSubset
from .sofic import SoficMap, is_good
from .symbolic import as_fraction


def _quota(size: int, eps: Fraction) -> int:
    return math.ceil((1 - eps) * size)


def maximum_flow(graph, source, sink):
    """scipy's exact max flow.  scipy is imported here, on the first call, and
    not with soficlab: scipy.sparse costs more to import than soficlab itself."""
    from scipy.sparse.csgraph import maximum_flow as scipy_maximum_flow

    return scipy_maximum_flow(graph, source, sink)


def epsilon_disjoint_check(family, eps):
    """Decide eps-disjointness: pairwise disjoint cores B_i of size >= (1-eps)|A_i|.

    A greedy pass (points claimed by the neediest set) answers most
    instances; otherwise an exact max-flow formulation decides and
    produces the core witnesses.
    Returns (ok, witnesses) with witnesses a list of sets or None.
    """
    eps = as_fraction(eps)
    if not 0 <= eps < 1:
        raise ArgumentError("eps must lie in [0, 1)")
    sets = [frozenset(s) for s in family]
    if not sets:
        return True, []
    quotas = [_quota(len(s), eps) for s in sets]

    # greedy: each point goes to the containing set with largest deficit
    containing = {}
    for i, s in enumerate(sets):
        for p in s:
            containing.setdefault(p, []).append(i)
    deficit = list(quotas)
    cores = [set() for _ in sets]
    for p in sorted(containing):
        owners = containing[p]
        best = max(owners, key=lambda i: (deficit[i], -i))
        if deficit[best] > 0:
            cores[best].add(p)
            deficit[best] -= 1
    if all(d <= 0 for d in deficit):
        return True, cores

    # exact decision by max flow
    from scipy.sparse import csr_matrix

    points = sorted(containing)
    pt_index = {p: k for k, p in enumerate(points)}
    m, np_ = len(sets), len(points)
    source, sink = 0, 1 + m + np_
    rows, cols, caps = [], [], []
    for i, q in enumerate(quotas):
        rows.append(source); cols.append(1 + i); caps.append(q)
    for i, s in enumerate(sets):
        for p in sorted(s):
            rows.append(1 + i); cols.append(1 + m + pt_index[p]); caps.append(1)
    for k in range(np_):
        rows.append(1 + m + k); cols.append(sink); caps.append(1)
    graph = csr_matrix((caps, (rows, cols)), shape=(sink + 1, sink + 1))
    result = maximum_flow(graph, source, sink)
    if result.flow_value < sum(quotas):
        return False, None
    flow = result.flow
    witnesses = []
    for i in range(m):
        row = flow.getrow(1 + i).tocoo()
        core = {points[c - 1 - m] for c, v in zip(row.col, row.data) if v > 0}
        witnesses.append(core)
    return True, witnesses


@dataclass(frozen=True)
class TilingRecord:
    """Re-checkable verification of the four tiling conditions."""

    across_disjoint: bool
    coverage: Fraction
    coverage_ok: bool  # coverage >= 1 - tau - eta
    eta_disjoint: tuple  # per shape
    centers_bijective: tuple  # per shape: every translate has full size
    product_bijective: tuple  # per shape: (s, c) -> sigma_s(c) injective

    def all_ok(self, flavor: str) -> bool:
        base = self.across_disjoint and self.coverage_ok and all(self.centers_bijective)
        if flavor == "amenable-exact":
            return base and all(self.product_bijective)
        return base and all(self.eta_disjoint)


@dataclass
class QuasiTiling:
    flavor: str  # 'sofic' or 'amenable-exact'
    d: int
    shapes: tuple  # FiniteSubset per phase
    centers: tuple  # tuple of sorted 1-based labels per phase
    tau: Fraction
    eta: Fraction
    record: TilingRecord
    guarantee_missed: bool

    @property
    def coverage(self) -> Fraction:
        return self.record.coverage


def _tile(sigma: SoficMap, shape: FiniteSubset, c: int):
    return frozenset(sigma.image_array(s)[c - 1] + 1 for s in shape)


def _validate_shapes(shapes):
    for small, big in zip(shapes, shapes[1:]):
        if not set(small.elements) <= set(big.elements):
            raise ArgumentError("shapes must be nested F_1 <= ... <= F_l")


def sofic_quasi_tile(sigma: SoficMap, V, shapes, eta, tau,
                     check_good: bool = True) -> QuasiTiling:
    """Greedy quasi-tiling: eta-disjoint within each phase, disjoint across.

    Centers are admitted by maximal new coverage (ties to the lowest
    label); a phase stops when no admissible center adds at least
    (1-eta)|F_k| new points.  If final coverage misses 1-tau-eta the
    tiling is returned flagged guarantee_missed rather than raised.
    """
    eta = as_fraction(eta)
    tau = as_fraction(tau)
    if not 0 < eta < 1 or not 0 <= tau < 1:
        raise ArgumentError("need 0 < eta < 1 and 0 <= tau < 1")
    shapes = list(shapes)
    if not shapes:
        raise ArgumentError("need at least one tile shape")
    _validate_shapes(shapes)
    d = sigma.d
    V = frozenset(range(1, d + 1)) if V is None else frozenset(int(v) for v in V)
    if not all(1 <= v <= d for v in V):
        raise ArgumentError("V must be a set of 1-based point labels")
    if Fraction(len(V), d) < 1 - tau:
        raise ArgumentError("|V| must be at least (1 - tau) d")
    if check_good:
        group = sigma.group
        top = shapes[-1]
        prods = {group.multiply(s, t) for s in top for t in top}
        prods.add(group.identity)
        E = FiniteSubset(group, sorted(prods, key=group.enumeration_key))
        cert = is_good(sigma, E, min(eta / 4, Fraction(999, 1000)))
        if not cert.ok:
            raise ArgumentError(
                f"sigma is not good enough on F_l F_l (good fraction "
                f"{float(cert.good_fraction):.3f}, need >= {1 - float(eta) / 4:.3f})"
            )
    return _greedy_tile(sigma, V, shapes, eta, tau, flavor="sofic")


def amenable_exact_tile(sigma: SoficMap, shapes, tau, eta,
                        V=None) -> QuasiTiling:
    """Exact-disjoint variant for Folner-built sigma: tiles never overlap
    and the product map (s, c) -> sigma_s(c) is bijective per phase."""
    if sigma.provenance not in ("cyclic-from-folner", "folner-identity-fallback"):
        raise ArgumentError("amenable exact tiling needs a Folner-built sigma")
    eta = as_fraction(eta)
    tau = as_fraction(tau)
    shapes = list(shapes)
    if not shapes:
        raise ArgumentError("need at least one tile shape")
    _validate_shapes(shapes)
    d = sigma.d
    V = frozenset(range(1, d + 1)) if V is None else frozenset(int(v) for v in V)
    return _greedy_tile(sigma, V, shapes, eta, tau, flavor="amenable-exact")


def _greedy_tile(sigma, V, shapes, eta, tau, flavor) -> QuasiTiling:
    d = sigma.d
    covered_other = set()
    centers_by_phase = []
    tiles_by_phase = []
    exact = flavor == "amenable-exact"
    for shape in reversed(shapes):
        size = len(shape)
        threshold = size if exact else (1 - eta) * size
        covered_this = set()
        chosen = []
        tiles = []
        tile_cache = {}
        candidates = sorted(V)
        while True:
            best_c, best_new = None, -1
            for c in candidates:
                t = tile_cache.get(c)
                if t is None:
                    t = _tile(sigma, shape, c)
                    tile_cache[c] = t
                if len(t) != size:
                    continue  # not bijectively defined
                if t & covered_other:
                    continue
                if exact and t & covered_this:
                    continue
                new = len(t - covered_this)
                if new > best_new:
                    best_c, best_new = c, new
            if best_c is None or not Fraction(best_new) >= threshold:
                break
            t = tile_cache[best_c]
            chosen.append(best_c)
            tiles.append(t)
            covered_this |= t
        covered_other |= covered_this
        centers_by_phase.append(tuple(sorted(chosen)))
        tiles_by_phase.append(tiles)
    centers_by_phase.reverse()
    tiles_by_phase.reverse()

    tiling = QuasiTiling(
        flavor=flavor, d=d, shapes=tuple(shapes),
        centers=tuple(centers_by_phase), tau=tau, eta=eta,
        record=None, guarantee_missed=False,
    )
    record = verify_tiling(tiling, sigma)
    tiling.record = record
    tiling.guarantee_missed = not record.coverage_ok
    return tiling


def verify_tiling(tiling: QuasiTiling, sigma: SoficMap) -> TilingRecord:
    """Recompute every condition from the raw shapes and centers."""
    d = sigma.d
    all_tiles = []
    per_phase_tiles = []
    centers_bij = []
    for shape, centers in zip(tiling.shapes, tiling.centers):
        tiles = [_tile(sigma, shape, c) for c in centers]
        per_phase_tiles.append(tiles)
        all_tiles.append(frozenset().union(*tiles) if tiles else frozenset())
        centers_bij.append(all(len(t) == len(shape) for t in tiles))

    across = True
    for i in range(len(all_tiles)):
        for j in range(i + 1, len(all_tiles)):
            if all_tiles[i] & all_tiles[j]:
                across = False
    union = frozenset().union(*all_tiles) if all_tiles else frozenset()
    coverage = Fraction(len(union), d)
    coverage_ok = coverage >= 1 - tiling.tau - tiling.eta

    eta_flags = []
    product_flags = []
    for shape, centers, tiles in zip(tiling.shapes, tiling.centers, per_phase_tiles):
        if tiles:
            ok, _ = epsilon_disjoint_check(tiles, tiling.eta)
            eta_flags.append(ok)
            total = sum(len(t) for t in tiles)
            phase_union = frozenset().union(*tiles)
            product_flags.append(
                total == len(shape) * len(centers) == len(phase_union)
            )
        else:
            eta_flags.append(True)
            product_flags.append(True)
    return TilingRecord(
        across_disjoint=across,
        coverage=coverage,
        coverage_ok=coverage_ok,
        eta_disjoint=tuple(eta_flags),
        centers_bijective=tuple(centers_bij),
        product_bijective=tuple(product_flags),
    )

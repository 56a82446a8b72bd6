"""Constructive quasi-tiling of {1..d} by translated tiles sigma(F_k) C_k.

The greedy construction follows the shape list from largest to smallest:
a center is admitted when its translate is bijectively defined, stays off
the other phases, and contributes enough new points; the verification
record is then recomputed from scratch, independent of the construction
path, so a tiling never certifies itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ArgumentError
from .groups import FiniteSubset
from .sofic import SoficMap, is_good
from .symbolic import as_fraction


def _quota(size: int, eps: Fraction) -> int:
    return math.ceil((1 - eps) * size)


def maximum_flow(sets, quotas):
    """Disjoint cores: core i is quotas[i] points of sets[i], no point in two
    cores; a list of sets, or None when no such cores exist.

    An exact b-matching by augmenting paths.  Each set first takes its free
    points in sorted order; for each point it still lacks, a breadth-first
    search passes points from set to set until some set takes a free point.
    If none is reached, the sets reached own every point of their union and
    some of them lack points, so Hall's condition fails on them (Berge).
    """
    ordered = [sorted(s) for s in sets]
    owner = {}  # point -> the set whose core holds it
    for i, quota in enumerate(quotas):
        lacking = quota
        for p in ordered[i]:
            if not lacking:
                break
            if p not in owner:
                owner[p] = i
                lacking -= 1
        for _ in range(lacking):
            parent = {i: None}  # set k -> (set j, point p): j takes p from k
            queue, free = [i], None
            for j in queue:
                for p in ordered[j]:
                    k = owner.get(p)
                    if k is None:
                        free = j, p
                        break
                    if k not in parent:
                        parent[k] = j, p
                        queue.append(k)
                if free is not None:
                    break
            if free is None:
                return None
            # back along the path, each set takes the point the next gives up
            while free is not None:
                j, p = free
                owner[p] = j
                free = parent[j]
    cores = [set() for _ in sets]
    for p, k in owner.items():
        cores[k].add(p)
    return cores


def epsilon_disjoint_check(family, eps):
    """Decide eps-disjointness: pairwise disjoint cores B_i of size >= (1-eps)|A_i|.

    One exact b-matching (maximum_flow) decides and produces the core
    witnesses.  Returns (ok, witnesses) with witnesses a list of sets or None.
    """
    eps = as_fraction(eps)
    if not 0 <= eps < 1:
        raise ArgumentError("eps must lie in [0, 1)")
    sets = [frozenset(s) for s in family]
    cores = maximum_flow(sets, [_quota(len(s), eps) for s in sets])
    return cores is not None, cores


class TilingRecord(NamedTuple):
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


class QuasiTiling(NamedTuple):
    flavor: str  # one of FLAVORS
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


FLAVORS = ("sofic", "amenable-exact")


def check_eta(eta) -> Fraction:
    eta = as_fraction(eta)
    if not 0 < eta < 1:
        raise ArgumentError("need 0 < eta < 1")
    return eta


def check_tau(tau) -> Fraction:
    tau = as_fraction(tau)
    if not 0 <= tau < 1:
        raise ArgumentError("need 0 <= tau < 1")
    return tau


def check_shapes(shapes) -> list:
    shapes = list(shapes)
    if not shapes:
        raise ArgumentError("need at least one tile shape")
    for small, big in zip(shapes, shapes[1:]):
        if not set(small.elements) <= set(big.elements):
            raise ArgumentError("shapes must be nested F_1 <= ... <= F_l")
    return shapes


def check_V(V, d: int, tau: Fraction) -> frozenset:
    """V as a set of labels in 1..d (None: all of them), at least (1 - tau) d."""
    V = frozenset(range(1, d + 1)) if V is None else frozenset(int(v) for v in V)
    if not all(1 <= v <= d for v in V):
        raise ArgumentError("V must be a set of 1-based point labels")
    if Fraction(len(V), d) < 1 - tau:
        raise ArgumentError("|V| must be at least (1 - tau) d")
    return V


def _arguments(sigma: SoficMap, V, shapes, eta, tau):
    """Both tilers' one argument check, in this order; each check_* raises
    ArgumentError on a bad value and returns the value as the tilers read it."""
    eta, tau = check_eta(eta), check_tau(tau)
    shapes = check_shapes(shapes)
    return check_V(V, sigma.d, tau), shapes, eta, tau


def sofic_quasi_tile(sigma: SoficMap, V, shapes, eta, tau,
                     check_good: bool = True) -> QuasiTiling:
    """Greedy quasi-tiling: eta-disjoint within each phase, disjoint across.

    Centers are admitted by maximal new coverage (ties to the lowest
    label); a phase stops when no admissible center adds at least
    (1-eta)|F_k| new points.  If final coverage misses 1-tau-eta the
    tiling is returned flagged guarantee_missed rather than raised.
    """
    V, shapes, eta, tau = _arguments(sigma, V, shapes, eta, tau)
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
    V, shapes, eta, tau = _arguments(sigma, V, shapes, eta, tau)
    return _greedy_tile(sigma, V, shapes, eta, tau, flavor="amenable-exact")


def _greedy_tile(sigma, V, shapes, eta, tau, flavor) -> QuasiTiling:
    covered_other = set()
    centers_by_phase = []
    exact = flavor == "amenable-exact"
    for shape in reversed(shapes):
        size = len(shape)
        threshold = size if exact else (1 - eta) * size
        covered_this = set()
        chosen = []
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
            chosen.append(best_c)
            covered_this |= tile_cache[best_c]
        covered_other |= covered_this
        centers_by_phase.append(tuple(sorted(chosen)))
    centers_by_phase.reverse()

    shapes, centers = tuple(shapes), tuple(centers_by_phase)
    record = _record(sigma, shapes, centers, tau, eta)
    return QuasiTiling(flavor, sigma.d, shapes, centers, tau, eta, record,
                       guarantee_missed=not record.coverage_ok)


def verify_tiling(tiling: QuasiTiling, sigma: SoficMap) -> TilingRecord:
    """Recompute every condition from the raw shapes and centers."""
    return _record(sigma, tiling.shapes, tiling.centers, tiling.tau, tiling.eta)


def _record(sigma, shapes, centers, tau, eta) -> TilingRecord:
    phases = [[_tile(sigma, shape, c) for c in cs] for shape, cs in zip(shapes, centers)]
    unions = [frozenset().union(*tiles) for tiles in phases]
    union = frozenset().union(*unions)
    coverage = Fraction(len(union), sigma.d)
    return TilingRecord(
        across_disjoint=sum(map(len, unions)) == len(union),
        coverage=coverage,
        coverage_ok=coverage >= 1 - tau - eta,
        eta_disjoint=tuple(epsilon_disjoint_check(tiles, eta)[0] for tiles in phases),
        centers_bijective=tuple(all(len(t) == len(shape) for t in tiles)
                                for shape, tiles in zip(shapes, phases)),
        product_bijective=tuple(sum(map(len, tiles)) == len(shape) * len(tiles) == len(u)
                                for shape, tiles, u in zip(shapes, phases, unions)),
    )

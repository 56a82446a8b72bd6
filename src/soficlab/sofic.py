"""Sofic approximation maps sigma: G -> Sym(d) and their defect measurements.

Maps store images of a declared finite support (usually the generators) as
0-based tuples of ints, entry a being sigma_g(a); any other element is
evaluated by composing the images along the word its group factors it into
(``Group.word``), unless the map carries a direct rule (cyclic lattice model,
identity-fallback Folner model).

Point labels in all public output are 1-based, matching the {1..d}
convention of the underlying definitions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

from .errors import ArgumentError, UnsupportedOperationError
from .groups import FiniteSubset, Group, _integer, folner_set
from .symbolic import as_fraction


class SoficMap:
    """A finitely supported map g -> self-map of {1..d}.

    All bundled constructions except the identity-fallback Folner model
    produce genuine permutations; the fallback model can merge points
    (see ``from_folner``), which is precisely what its defects measure.
    """

    def __init__(self, group: Group, d: int, images=None, provenance="explicit",
                 direct_rule=None):
        if d < 1:
            raise ArgumentError("d must be >= 1")
        self.group = group
        self.d = d
        self.provenance = provenance
        self._direct_rule = direct_rule
        self._images = {}
        if images:
            for g, arr in images.items():
                self._images[group.coerce(g)] = self._as_array(arr)

    def _as_array(self, arr) -> tuple:
        """arr as a tuple of points, each read as group elements are read
        (groups._integer)."""
        try:
            a = tuple(map(_integer, arr))
        except TypeError:  # a scalar, or rows of a nested sequence
            a = None
        if a is None or len(a) != self.d:
            raise ArgumentError(f"image must have length d={self.d}")
        if None in a:
            raise ArgumentError("image values must be integers")
        if min(a) < 0 or max(a) >= self.d:
            raise ArgumentError("image values out of range")
        return a

    # evaluation ------------------------------------------------------------

    def image_array(self, g) -> tuple:
        """The image of ``g`` as a 0-based tuple of ints: entry a is sigma_g(a)."""
        g = self.group.coerce(g)
        cached = self._images.get(g)
        if cached is not None:
            return cached
        if self._direct_rule is not None:
            arr = self._as_array(self._direct_rule(g))
        else:
            arr = self._compose_word(self.group.word(g))
        self._images[g] = arr
        return arr

    def _compose_word(self, word):
        arr = tuple(range(self.d))
        # sigma_{s1 s2 ... sm} = sigma_{s1} o ... o sigma_{sm}
        for s in reversed(word):
            img = self._images.get(s)
            if img is None:
                raise ArgumentError(
                    f"element {self.group.element_name(s)} outside declared support"
                )
            arr = tuple([img[j] for j in arr])
        return arr

    def permutation(self, g):
        """1-based image tuple (sigma_g(1), ..., sigma_g(d))."""
        return tuple(v + 1 for v in self.image_array(g))


def cyclic_model(group: Group, n: int) -> SoficMap:
    """Exact cyclic model on the box [0,n)^k: the quotient map Z^k -> (Z/n)^k.

    All multiplicativity defects vanish; freeness fails exactly on n Z^k.
    """
    if group.kind != "lattice":
        raise UnsupportedOperationError("cyclic model is a lattice construction")
    k = group.rank
    d = n ** k
    # point a-1 <-> box vector in lexicographic (row-major) order
    strides = [n ** (k - 1 - i) for i in range(k)]

    def rule(g):  # per axis, coordinate c -> its image's part of the point index
        axes = [[(c + gi) % n * stride for c in range(n)] for stride, gi in zip(strides, g)]
        return tuple(map(sum, itertools.product(*axes)))

    return SoficMap(group, d, provenance="cyclic-from-folner", direct_rule=rule)


def from_folner(group: Group, F: FiniteSubset) -> SoficMap:
    """Sofic map built from a Folner set F with d = |F|.

    Index F by {1..d} in F's element order and set sigma_g(a) = index(g . f_a)
    when the translate stays in F, else a.  Out-of-set translates can land on
    occupied points, so these images are self-maps rather than permutations
    in general; their defects are bounded by the invariance defect of F.
    The exact cyclic model of a lattice box [0,n)^k is ``cyclic_model``.
    """
    if group.kind == "free":
        raise UnsupportedOperationError("free groups get random models, not Folner maps")

    elems = F.elements
    index = {f: i for i, f in enumerate(elems)}
    d = len(elems)

    def rule(g):
        return tuple(index.get(group.multiply(g, f), a) for a, f in enumerate(elems))

    return SoficMap(group, d, provenance="folner-identity-fallback", direct_rule=rule)


def regular_representation(group: Group) -> SoficMap:
    """Left regular representation of a finite group; all defects vanish."""
    if group.kind != "finite":
        raise UnsupportedOperationError("regular representation needs a finite group")
    return from_folner(group, folner_set(group, 1))


def random_free_model(rank: int, d: int, seed: int, names=None):
    """Independent uniformly random permutation per free generator.

    Reproducible from the single 64-bit seed: generator i draws from the
    child stream SeedSequence(seed, spawn_key=(i,)).
    Returns (group, SoficMap).  numpy is imported here, on the first call,
    and not with soficlab: only this model draws from its generator.
    """
    import numpy as np

    from .groups import FreeGroup

    if d < 2:
        raise ArgumentError("d must be >= 2")
    group = FreeGroup(rank, names=names)
    images = {}
    for i in range(rank):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        perm = rng.permutation(d).tolist()
        inv = [0] * d
        for a, b in enumerate(perm):
            inv[b] = a
        images[(i + 1,)] = perm
        images[(-(i + 1),)] = inv
    sm = SoficMap(group, d, images=images, provenance="random-free")
    return group, sm


def mult_defect(sigma: SoficMap, s, t) -> Fraction:
    """1 - (1/d) |{a : sigma_{st}(a) = sigma_s sigma_t(a)}|, exact."""
    group = sigma.group
    s = group.coerce(s)
    t = group.coerce(t)
    st = group.multiply(s, t)
    img_s, img_t = sigma.image_array(s), sigma.image_array(t)
    agree = sum(x == img_s[y] for x, y in zip(sigma.image_array(st), img_t))
    return 1 - Fraction(agree, sigma.d)


def freeness_defect(sigma: SoficMap, s, t) -> Fraction:
    """1 - (1/d) |{a : sigma_s(a) != sigma_t(a)}| for distinct s, t, exact."""
    group = sigma.group
    s = group.coerce(s)
    t = group.coerce(t)
    if s == t:
        raise ArgumentError("freeness defect needs distinct elements")
    differ = sum(x != y for x, y in zip(sigma.image_array(s), sigma.image_array(t)))
    return 1 - Fraction(differ, sigma.d)


class GoodnessCertificate(NamedTuple):
    ok: bool
    eta: float
    good_fraction: Fraction
    good_points: tuple  # 1-based labels of the maximal good set B


def is_good(sigma: SoficMap, E: FiniteSubset, eta) -> GoodnessCertificate:
    """Decide whether sigma is a (1-eta)-good sofic approximation on E.

    B is the maximal set of points a where sigma_{st}(a) = sigma_s sigma_t(a)
    for all s,t in E, sigma_s(a) != sigma_{s'}(a) for distinct s,s' in E, and
    sigma_e(a) = a.  Verdict: |B| >= (1-eta) d.
    """
    group = sigma.group
    if group.identity not in E:
        raise ArgumentError("E must contain the identity")
    eta = as_fraction(eta)
    if not 0 < eta < 1:
        raise ArgumentError("eta must lie in (0,1)")
    d = sigma.d
    elems = E.elements
    images = [sigma.image_array(s) for s in elems]
    identity = sigma.image_array(group.identity)
    # sigma_e(a) = a, and sigma_s(a) != sigma_{s'}(a) for distinct s, s' in E:
    # the images of a under E are pairwise distinct
    good = [x == a and len(set(column)) == len(elems)
            for a, (x, column) in enumerate(zip(identity, zip(*images)))]
    for s, img_s in zip(elems, images):
        for t, img_t in zip(elems, images):
            img_st = sigma.image_array(group.multiply(s, t))
            composed = tuple([img_s[y] for y in img_t])
            if composed != img_st:  # then find the points where they differ
                good = [ok and x == y for ok, x, y in zip(good, img_st, composed)]
    points = tuple(a + 1 for a, ok in enumerate(good) if ok)
    frac = Fraction(len(points), d)
    return GoodnessCertificate(
        ok=frac >= 1 - eta,
        eta=float(eta),
        good_fraction=frac,
        good_points=points,
    )


import itertools
import random
from fractions import Fraction

import pytest

from soficlab import (ArgumentError, FiniteSubset, LatticeGroup, UnsupportedOperationError,
                      cyclic_model, folner_set, freeness_defect, from_folner,
                      invariance_defect, is_good, mult_defect, random_free_model,
                      regular_representation)


def test_cyclic_model_is_exact_homomorphism(Z):
    sigma = cyclic_model(Z, 10)
    for s in (-3, -1, 0, 1, 2, 7, 13):
        for t in (-2, 0, 1, 5):
            assert mult_defect(sigma, s, t) == 0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_cyclic_model_images_are_the_box_translates(k, n):
    """sigma_g sends the box vector of point a (row-major, base n) to that
    vector plus g, mod n on every axis."""
    group = LatticeGroup(k)
    sigma = cyclic_model(group, n)
    strides = [n ** (k - 1 - i) for i in range(k)]
    for g in itertools.product(range(-3, 4), repeat=k):
        assert sigma.image_array(g) == tuple(
            sum((a // stride + gi) % n * stride for stride, gi in zip(strides, g))
            for a in range(n ** k))


def test_cyclic_freeness(Z):
    sigma = cyclic_model(Z, 10)
    assert freeness_defect(sigma, 1, 2) == 0
    assert freeness_defect(sigma, 0, 10) == 1  # 10 = 0 mod 10: total failure
    with pytest.raises(ArgumentError):
        freeness_defect(sigma, 3, 3)


def test_cyclic_lattice_freeness_characterization(Z2):
    n = 4
    sigma = cyclic_model(Z2, n)
    for s in [(1, 0), (0, 1), (2, 3), (4, 0), (4, 4), (1, 4)]:
        for t in [(0, 0), (1, 1), (0, 4)]:
            if s == t:
                continue
            diff = tuple((a - b) % n for a, b in zip(s, t))
            expected = 1 if diff == (0, 0) else 0
            assert freeness_defect(sigma, s, t) == expected
            assert mult_defect(sigma, s, t) == 0


def test_identity_fallback_defect_enumerated(Z):
    # direct enumeration of the 10 points: sigma_1 sigma_1 and sigma_2
    # disagree exactly at the point whose double translate left the set
    sigma = from_folner(Z, folner_set(Z, 10))
    assert sigma.permutation(1) == (2, 3, 4, 5, 6, 7, 8, 9, 10, 10)
    assert mult_defect(sigma, 1, 1) == Fraction(1, 10)


def test_fallback_defect_bounded_by_invariance(Z, Z2):
    rng = random.Random(11)
    for _ in range(20):
        group, n = (Z, rng.randrange(5, 40)) if rng.random() < 0.7 else (Z2, rng.randrange(2, 7))
        F = folner_set(group, n)
        sigma = from_folner(group, F)
        if group is Z:
            s = group.coerce(rng.randrange(-3, 4))
            t = group.coerce(rng.randrange(-3, 4))
        else:
            s = (rng.randrange(-2, 3), rng.randrange(-2, 3))
            t = (rng.randrange(-2, 3), rng.randrange(-2, 3))
        st = group.multiply(s, t)
        K = FiniteSubset(group, {s, t, st} or {group.identity})
        assert mult_defect(sigma, s, t) <= invariance_defect(F, K)


def test_regular_representation_zero_defects(Z3):
    sigma = regular_representation(Z3)
    for s in range(3):
        for t in range(3):
            assert mult_defect(sigma, s, t) == 0
            if s != t:
                assert freeness_defect(sigma, s, t) == 0


def test_from_folner_rejects_free_group():
    from soficlab import FreeGroup

    with pytest.raises(UnsupportedOperationError):
        from_folner(FreeGroup(2), None)


def test_random_free_model_reproducible_and_free():
    _, a = random_free_model(2, 300, seed=7)
    _, b = random_free_model(2, 300, seed=7)
    assert a.permutation((1,)) == b.permutation((1,))
    _, c = random_free_model(2, 300, seed=8)
    assert a.permutation((1,)) != c.permutation((1,))
    # composition is definitional: multiplicativity defects vanish
    assert mult_defect(a, (1,), (2,)) == 0
    assert mult_defect(a, (1,), (-1,)) == 0


def test_random_free_model_freeness_sampled():
    # the agreement set of sigma_a, sigma_b is the fixed-point set of a
    # random permutation: mean about 1, so <= 5/d holds with wide margin
    hits = 0
    for seed in range(20):
        _, sigma = random_free_model(2, 500, seed)
        if freeness_defect(sigma, (1,), (2,)) <= Fraction(5, 500):
            hits += 1
    assert hits >= 19


def test_single_generator_inverse(Z):
    _, sigma = random_free_model(1, 10, seed=0)
    assert mult_defect(sigma, (1,), (-1,)) == 0


def test_is_good_examples(Z):
    sigma = cyclic_model(Z, 20)
    cert = is_good(sigma, FiniteSubset(Z, range(-2, 3)), 0.1)
    assert cert.ok and cert.good_points == tuple(range(1, 21))
    bad = is_good(cyclic_model(Z, 3), FiniteSubset(Z, [0, 3]), 0.9)
    assert not bad.ok and bad.good_fraction == 0


def test_is_good_monotone_in_eta(Z):
    _, sigma = random_free_model(2, 200, seed=3)
    group = sigma.group
    E = FiniteSubset(group, [(), (1,), (-1,), (2,), (-2,)])
    oks = [is_good(sigma, E, eta).ok for eta in (0.01, 0.05, 0.2, 0.5)]
    for earlier, later in zip(oks, oks[1:]):
        assert later >= earlier


def test_is_good_requires_identity(Z):
    with pytest.raises(ArgumentError):
        is_good(cyclic_model(Z, 5), FiniteSubset(Z, [1, 2]), 0.1)


def test_is_good_compares_eta_exactly(Z):
    """good_fraction == 1 - eta exactly: the verdict is (1 - eta)-good."""
    sigma = from_folner(Z, folner_set(Z, 3))
    cert = is_good(sigma, FiniteSubset(Z, [0, 1]), Fraction(2, 3))
    assert cert.good_fraction == Fraction(1, 3)
    assert cert.ok
    assert not is_good(sigma, FiniteSubset(Z, [0, 1]), Fraction(2, 3) - Fraction(1, 10**30)).ok


def test_word_evaluation_outside_support_composes():
    _, sigma = random_free_model(2, 50, seed=1)
    w = sigma.group.coerce([1, 2, -1])
    direct = sigma.image_array(w)
    a, b, c = (sigma.image_array(s) for s in [(1,), (2,), (-1,)])
    composed = tuple(a[b[c[i]]] for i in range(sigma.d))
    assert direct == composed


def test_explicit_map_on_a_finite_group_factors_by_breadth_first_search():
    """Z/6 generated by 1 (so by 1 and 5): each element's image is composed
    from the two declared images along a shortest word, and is rotation by
    that element."""
    from soficlab import FiniteTableGroup, SoficMap

    group = FiniteTableGroup.cyclic(6, generators=[1])
    sigma = SoficMap(group, 6, images={s: [(a + s) % 6 for a in range(6)] for s in (1, 5)})
    for g in range(6):
        assert sigma.image_array(g) == tuple((a + g) % 6 for a in range(6)), g


def test_explicit_map_on_a_lattice_factors_along_each_axis(Z2):
    """Only the four generator images of the cyclic model on Z^2, n = 3: a
    word skips each zero coordinate and agrees with the model's rule."""
    from soficlab import SoficMap

    model = cyclic_model(Z2, 3)
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    sigma = SoficMap(Z2, 9, images={g: model.image_array(g) for g in steps})
    for g in [(2, 0), (0, -1), (1, -2), (-2, 3), (0, 0)]:
        assert sigma.image_array(g) == model.image_array(g), g


def test_explicit_sigma_defect_brute_force(Z):
    """Explicit map with sigma_2 rebound to the identity while sigma_1 stays
    the cyclic shift: sigma_1 sigma_1 is the shift by two, which never agrees
    with the identity on 4 points, so the defect is exactly 1."""
    import numpy as np
    from soficlab import SoficMap

    shift = np.array([1, 2, 3, 0])
    sigma = SoficMap(Z, 4, images={1: shift, 2: np.arange(4)})
    assert mult_defect(sigma, 1, 1) == 1


@pytest.mark.parametrize("image, read", [
    ([1.0, 0], (1, 0)),  # JSON may write 1 as 1.0
    ([1.5, 0], None),
    (["1", "0"], None),
    ([True, False], None),
], ids=["integral-float", "fraction", "strings", "bools"])
def test_explicit_images_are_read_as_integers(Z, image, read):
    """A caller's images are read as group elements are: an integral float
    is its int, and a non-integral number, a string or a bool is refused
    rather than truncated or parsed into a permutation."""
    from soficlab import SoficMap

    if read is None:
        with pytest.raises(ArgumentError, match="integers"):
            SoficMap(Z, 2, images={1: image})
    else:
        assert SoficMap(Z, 2, images={1: image}).image_array(1) == read


def test_is_good_random_ball2_observed_rate():
    """Good fractions on E = ball(2) hover near 0.9: pair collisions pile up
    linearly in |E|^2, so eta = 0.2 passes where eta = 0.05 mostly fails."""
    from soficlab import FreeGroup

    F2 = FreeGroup(2)
    ball1 = [(), (1,), (-1,), (2,), (-2,)]
    ball2 = sorted({F2.multiply(a, b) for a in ball1 for b in ball1},
                   key=F2.enumeration_key)
    passes_loose = 0
    for seed in range(5):
        _, sigma = random_free_model(2, 1000, seed)
        cert = is_good(sigma, FiniteSubset(F2, ball2), 0.2)
        passes_loose += cert.ok
        assert 0.8 < float(cert.good_fraction) <= 1
    assert passes_loose == 5


def test_random_free_model_stream_is_pinned():
    """The seeded PCG64 permutations, generator and inverse images alike,
    hash to the digest recorded when the images were numpy arrays."""
    import hashlib

    _, sigma = random_free_model(2, 500, seed=7)
    h = hashlib.sha256()
    for s in [(1,), (-1,), (2,), (-2,)]:
        image = sigma.image_array(s)
        assert type(image) is tuple and all(type(v) is int for v in image)
        h.update(repr(image).encode())
    assert h.hexdigest() == "a6549a7a0b89f17bf6e38ba70e5d00bb75232493b4caec9954c62adc8da34946"

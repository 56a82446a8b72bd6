import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import (ArgumentError, FiniteSubset, amenable_exact_tile, cyclic_model,
                      epsilon_disjoint_check, from_folner, folner_set, is_good,
                      random_free_model, regular_representation, sofic_quasi_tile,
                      verify_tiling)


def test_eps_disjoint_pairwise_disjoint_family():
    ok, cores = epsilon_disjoint_check([{1, 2}, {3, 4}, {5}], 0)
    assert ok and cores == [{1, 2}, {3, 4}, {5}]


def test_eps_disjoint_identical_sets_fail():
    # cannot keep 6 + 6 disjoint points out of 10
    ok, cores = epsilon_disjoint_check([set(range(10)), set(range(10))], "0.4")
    assert not ok and cores is None


def test_eps_disjoint_small_overlap_witnessed():
    a, b = set(range(10)), set(range(8, 18))
    ok, cores = epsilon_disjoint_check([a, b], "0.2")
    assert ok
    assert cores[0] <= a and cores[1] <= b
    assert not (cores[0] & cores[1])
    assert len(cores[0]) >= 8 and len(cores[1]) >= 8


def test_import_soficlab_leaves_scipy_unimported():
    """soficlab never imports scipy: eps-disjointness is decided on the
    standard library."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    subprocess.run([sys.executable, "-c",
                    "import soficlab, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True)


def test_eps_disjoint_flow_tightness():
    # quotas 9 + 9 = 18 points needed from a 18-point union sharing 2: exact fit
    a, b = set(range(10)), set(range(8, 18))
    ok, cores = epsilon_disjoint_check([a, b], "0.1")
    assert ok and len(cores[0] | cores[1]) == 18


def test_eps_disjoint_decides_on_the_standard_library_alone():
    """With scipy unimportable, the tightness family (an exact fit) is still
    decided, and so is one that needs an augmenting path: set 0 first takes
    point 0, then passes it to set 1 and takes point 1 instead."""
    code = ("import sys; sys.modules['scipy'] = None\n"
            "from soficlab import epsilon_disjoint_check as check\n"
            "ok, cores = check([set(range(10)), set(range(8, 18))], '0.1')\n"
            "assert ok and cores == [set(range(9)), set(range(9, 18))], cores\n"
            "assert check([{0, 1}, {0}], '0.5') == (True, [{1}, {0}])")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _hall(family, eps: Fraction) -> bool:
    """Hall's condition for cores of ceil((1 - eps)|A_i|) points: every
    subfamily's union holds at least the sum of its quotas."""
    quotas = [-(-(eps.denominator - eps.numerator) * len(a) // eps.denominator)
              for a in family]
    return all(len(set().union(*(family[i] for i in I))) >= sum(quotas[i] for i in I)
               for r in range(1, len(family) + 1)
               for I in itertools.combinations(range(len(family)), r))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sets(st.integers(0, 24), max_size=12), max_size=6),
       st.sampled_from(["0", "0.1", "0.2", "0.3", "0.5", "0.9"]))
def test_eps_disjoint_is_halls_condition(family, eps):
    eps = Fraction(eps)
    ok, cores = epsilon_disjoint_check(family, eps)
    assert ok == _hall(family, eps)
    if ok:
        assert len(cores) == len(family)
        assert sum(map(len, cores)) == len(set().union(*cores))  # pairwise disjoint
        for core, a in zip(cores, family):
            assert core <= a and len(core) >= (1 - eps) * len(a)
    else:
        assert cores is None


def test_sofic_tile_cyclic_12(Z):
    sigma = cyclic_model(Z, 12)
    t = sofic_quasi_tile(sigma, None, [FiniteSubset(Z, [0, 1, 2])], "0.1", 0)
    assert t.centers == ((1, 4, 7, 10),)
    assert t.coverage == 1
    assert t.record.all_ok("sofic") and not t.guarantee_missed


def test_sofic_tile_goodness_check_uses_exact_eta_quarter(Z):
    """On the 17-point Folner fallback model, E = F F + e = {0, 1, 2} has
    13 good points: exactly 1 - eta/4 for eta = 16/17, so sigma is good
    enough.  A decimal rounding of eta/4 just below 4/17 rejects it."""
    sigma = from_folner(Z, folner_set(Z, 17))
    eta = Fraction(16, 17)
    cert = is_good(sigma, FiniteSubset(Z, [0, 1, 2]), eta / 4)
    assert cert.good_fraction == Fraction(13, 17) == 1 - eta / 4 and cert.ok
    t = sofic_quasi_tile(sigma, None, [FiniteSubset(Z, [0, 1])], eta, 0)
    assert t.record.all_ok("sofic")


def test_sofic_tile_singleton_shape_takes_V(Z):
    sigma = cyclic_model(Z, 12)
    t = sofic_quasi_tile(sigma, {3, 5, 7}, [FiniteSubset(Z, [0])], "0.5", "0.9")
    assert t.centers == ((3, 5, 7),)


def test_amenable_exact_tile_13(Z):
    sigma = cyclic_model(Z, 13)
    t = amenable_exact_tile(sigma, [FiniteSubset(Z, [0, 1, 2])], 0, "0.1")
    assert t.centers == ((1, 4, 7, 10),)
    assert t.coverage == Fraction(12, 13)
    assert t.record.all_ok("amenable-exact") and not t.guarantee_missed


def test_amenable_exact_tile_z2_torus(Z2):
    sigma = cyclic_model(Z2, 4)
    shape = FiniteSubset(Z2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    t = amenable_exact_tile(sigma, [shape], 0, "0.1")
    assert len(t.centers[0]) == 4 and t.coverage == 1
    assert t.record.all_ok("amenable-exact")


def test_amenable_exact_needs_folner_sigma():
    _, sigma = random_free_model(2, 100, 0)
    ball = FiniteSubset(sigma.group, [(), (1,)])
    with pytest.raises(ArgumentError, match="Folner"):
        amenable_exact_tile(sigma, [ball], 0, "0.1")


def test_multi_shape_phases(Z):
    sigma = cyclic_model(Z, 13)
    shapes = [FiniteSubset(Z, [0]), FiniteSubset(Z, [0, 1, 2])]
    t = amenable_exact_tile(sigma, shapes, 0, "0.1")
    assert t.centers[1] == (1, 4, 7, 10)
    assert t.centers[0] == (13,)  # the leftover point picked up by the singleton
    assert t.coverage == 1


@pytest.mark.parametrize("tile", [
    lambda sigma, shapes, V, eta: sofic_quasi_tile(sigma, V, shapes, eta, 0),
    lambda sigma, shapes, V, eta: amenable_exact_tile(sigma, shapes, 0, eta, V=V),
], ids=["sofic", "amenable-exact"])
@pytest.mark.parametrize("V, eta, match", [
    (range(6), "0.1", "1-based"),  # label 0 would be read as image[-1]
    ({1, 2, 3}, "0.1", "at least"),
    (None, 1, "eta"),
    (None, 0, "eta"),
])
def test_both_tilers_check_their_arguments_alike(Z, tile, V, eta, match):
    sigma = cyclic_model(Z, 6)
    with pytest.raises(ArgumentError, match=match):
        tile(sigma, [FiniteSubset(Z, [0, 1])], V, eta)


def test_shapes_must_be_nested(Z):
    sigma = cyclic_model(Z, 12)
    with pytest.raises(ArgumentError, match="nested"):
        sofic_quasi_tile(sigma, None, [FiniteSubset(Z, [0, 1]),
                                       FiniteSubset(Z, [2, 3])], "0.1", 0)


def test_is_good_precondition_enforced():
    _, sigma = random_free_model(2, 60, 1)
    ball = FiniteSubset(sigma.group, [(), (1,), (-1,), (2,), (-2,)])
    with pytest.raises(ArgumentError, match="good"):
        sofic_quasi_tile(sigma, None, [ball], "0.05", 0)


def test_verify_recomputes_and_detects_corruption(Z):
    sigma = cyclic_model(Z, 12)
    t = sofic_quasi_tile(sigma, None, [FiniteSubset(Z, [0, 1, 2])], "0.1", 0)
    fresh = verify_tiling(t, sigma)
    assert fresh == t.record  # independent recomputation matches stored record
    corrupted = t._replace(centers=((1, 1, 4, 7, 10),))  # duplicate center
    rec = verify_tiling(corrupted, sigma)
    assert not rec.eta_disjoint[0]
    assert not rec.product_bijective[0]


def test_eta_monotone_coverage_on_corpus(Z):
    sigma = cyclic_model(Z, 14)
    shape = FiniteSubset(Z, [0, 1, 2])
    coverages = []
    for eta in ("0.05", "0.2", "0.4", "0.7"):
        t = sofic_quasi_tile(sigma, None, [shape], eta, 0)
        coverages.append(t.coverage)
    assert coverages == sorted(coverages)


def test_coverage_guarantee_on_deterministic_corpus(Z, Z2, Z3):
    cases = []
    for d in (9, 12, 13, 20):
        cases.append((cyclic_model(Z, d), [FiniteSubset(Z, [0, 1, 2])]))
    cases.append((cyclic_model(Z2, 4),
                  [FiniteSubset(Z2, [(0, 0), (0, 1), (1, 0), (1, 1)])]))
    cases.append((regular_representation(Z3), [FiniteSubset(Z3, [0, 1, 2])]))
    for sigma, shapes in cases:
        t = sofic_quasi_tile(sigma, None, shapes, "0.25", 0)
        assert t.coverage >= 1 - Fraction(1, 4), (sigma.provenance, sigma.d)
        assert not t.guarantee_missed
        assert verify_tiling(t, sigma) == t.record


def test_random_free_sampling_reports_rate():
    """Observed coverage rate for the random F_2 model at eta=0.2, tau=0.01;
    the goodness gate is bypassed (sampling experiment, documented)."""
    hits = 0
    seeds = range(8)
    for seed in seeds:
        group, sigma = random_free_model(2, 400, seed)
        ball = FiniteSubset(group, [(), (1,), (-1,), (2,), (-2,)])
        t = sofic_quasi_tile(sigma, None, [ball], "0.2", "0.01", check_good=False)
        if t.coverage >= 1 - Fraction("0.01") - Fraction("0.2"):
            hits += 1
        assert verify_tiling(t, sigma) == t.record
    assert hits >= len(seeds) // 4  # observed rate: roughly half the seeds


def test_identity_fallback_folner_tiling(Z):
    # identity-fallback maps are close enough to good on intervals
    sigma = from_folner(Z, folner_set(Z, 20))
    t = sofic_quasi_tile(sigma, None, [FiniteSubset(Z, [0, 1])], "0.3", 0,
                         check_good=False)
    assert t.coverage >= Fraction(7, 10)
    assert verify_tiling(t, sigma) == t.record

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import (ArgumentError, FiniteSubset, FiniteTableGroup,
                      FreeGroup, LatticeGroup, UnsupportedOperationError, folner_set,
                      invariance_defect, multiply)


def test_lattice_multiply_is_addition(Z):
    assert multiply(Z, 3, 4) == (7,)
    assert multiply(Z, (3,), (-5,)) == (-2,)


def test_free_word_reduction():
    F2 = FreeGroup(2)
    ab = F2.coerce([1, 2])
    assert F2.multiply(ab, F2.coerce([-2])) == (1,)
    assert F2.multiply(ab, F2.inverse(ab)) == ()
    assert F2.parse("a.b^-1.b.a^-1") == ()


def test_cyclic_group_multiplication():
    Z5 = FiniteTableGroup.cyclic(5)
    assert Z5.multiply(3, 4) == 2
    assert Z5.inverse(2) == 3


def test_mixed_operands_rejected(Z, Z2):
    with pytest.raises(ArgumentError):
        Z.multiply(Z.coerce(1), Z2.coerce((1, 0)))


def test_bad_table_rejected():
    with pytest.raises(ArgumentError):
        FiniteTableGroup([[0, 1], [1, 1]])  # repeated entry in a row
    with pytest.raises(ArgumentError):
        FiniteTableGroup([[1, 0], [1, 0]])  # bad column


@pytest.mark.parametrize("value", ["12", "00", (1.5, 0), (True, 0), (1, "0"), 3])
def test_lattice_coerce_refuses_all_but_integer_coordinates(Z2, value):
    """A string is not read digit by digit, nor a bool or 1.5 as an int."""
    with pytest.raises(ArgumentError, match="not a Z\\^2 element"):
        Z2.coerce(value)


def test_coerce_reads_integral_floats_and_refuses_the_rest(Z, Z2):
    """JSON may write 1 as 1.0, which the schema counts as an integer: every
    group reads it so, and refuses 1.5, a bool and (but for a free-group
    word) a string."""
    Z4, F2 = FiniteTableGroup.cyclic(4), FreeGroup(2)
    assert Z.coerce(2.0) == Z.coerce((2.0,)) == (2,)
    assert Z2.coerce([1.0, -2]) == (1, -2)
    assert Z4.coerce(3.0) == 3
    assert F2.coerce([1.0, -2.0]) == F2.coerce("a.b^-1") == (1, -2)
    for group, value in ((Z, 1.5), (Z, True), (Z, "1"), (Z4, 1.5), (Z4, True), (Z4, "1"),
                         (F2, [1.5]), (F2, [True])):
        with pytest.raises(ArgumentError):
            group.coerce(value)
    with pytest.raises(ArgumentError, match="not an element index"):
        FiniteTableGroup.cyclic(4, generators=[1.5])
    with pytest.raises(ArgumentError, match="entries must be integers"):
        FiniteTableGroup([[0, 1], [1, 0.5]])
    assert FiniteTableGroup([[0.0, 1], [1, 0]]).table == [(0, 1), (1, 0)]


def test_folner_sets(Z, Z2, Z3):
    assert folner_set(Z, 4).elements == ((0,), (1,), (2,), (3,))
    assert set(folner_set(Z2, 2).elements) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert len(folner_set(Z3, 7)) == 3  # finite group: always all of G
    with pytest.raises(UnsupportedOperationError):
        folner_set(FreeGroup(2), 3)


def test_invariance_defect_examples(Z, Z2):
    F = folner_set(Z, 10)
    assert invariance_defect(F, FiniteSubset(Z, [1])) == Fraction(2, 10)
    F100 = folner_set(Z, 100)
    assert invariance_defect(F100, FiniteSubset(Z, [1, -1])) == Fraction(2, 100)
    box = folner_set(Z2, 4)
    assert invariance_defect(box, FiniteSubset(Z2, [(1, 0)])) == Fraction(8, 16)


@pytest.mark.parametrize("k", [1, 2])
def test_folner_defect_decays_like_inverse_n(k):
    G = LatticeGroup(k)
    K = FiniteSubset(G, G.generators)
    prev = None
    for n in (4, 8, 16, 32, 64):
        d = invariance_defect(folner_set(G, n), K)
        assert d <= Fraction(2 * k, n)
        if prev is not None:
            assert d <= prev
        prev = d


def test_duplicate_subset_rejected(Z):
    with pytest.raises(ArgumentError):
        FiniteSubset(Z, [1, 2, 1])


def test_enumeration_order_is_by_length_then_key(Z):
    gen = Z.enumerate_elements()
    assert [next(gen) for _ in range(5)] == [(0,), (-1,), (1,), (-2,), (2,)]
    F2 = FreeGroup(2)
    gen = F2.enumerate_elements()
    first = [next(gen) for _ in range(5)]
    assert first[0] == ()
    assert all(len(w) == 1 for w in first[1:])
    assert first[1:] == sorted(first[1:])


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30)))
def test_lattice_group_laws(triple):
    Z = LatticeGroup(1)
    a, b, c = ((x,) for x in triple)
    assert Z.multiply(Z.multiply(a, b), c) == Z.multiply(a, Z.multiply(b, c))
    assert Z.multiply(a, Z.inverse(a)) == Z.identity
    assert Z.multiply(Z.identity, a) == a


_letters = st.integers(-2, 2).filter(lambda x: x != 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(_letters, max_size=6), st.lists(_letters, max_size=6),
       st.lists(_letters, max_size=6))
def test_free_group_laws(wa, wb, wc):
    F2 = FreeGroup(2)
    a, b, c = F2.coerce(wa), F2.coerce(wb), F2.coerce(wc)
    assert F2.multiply(F2.multiply(a, b), c) == F2.multiply(a, F2.multiply(b, c))
    assert F2.multiply(a, F2.inverse(a)) == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_finite_group_laws(i, j, k):
    S3 = _symmetric_group_table()
    G = FiniteTableGroup(S3)
    assert G.multiply(G.multiply(i, j), k) == G.multiply(i, G.multiply(j, k))
    assert G.multiply(i, G.inverse(i)) == G.identity


def _symmetric_group_table():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    return [[index[compose(p, q)] for q in perms] for p in perms]


def test_word_length_finite_group():
    S3 = FiniteTableGroup(_symmetric_group_table())
    assert S3.word_length(S3.identity) == 0
    assert all(S3.word_length(g) >= 1 for g in range(6) if g != S3.identity)

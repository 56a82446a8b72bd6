"""Finitely generated groups: integer lattices, finite groups given by a
multiplication table, and free groups on r generators.

Elements are plain hashable values owned by their group object:

* lattice  -- tuples of ints of length k (plain ints accepted for k = 1),
* finite   -- indices 0..n-1 into the multiplication table,
* free     -- reduced words as tuples of signed 1-based generator indices
              (+i is the i-th generator, -i its inverse).

Each group fixes a deterministic enumeration of its elements ordered by
word length with a lexicographic tie-break; the enumeration index drives
the default metric weights of symbolic systems.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from fractions import Fraction

from .errors import ArgumentError, UnsupportedOperationError


class Group:
    """Base class; subclasses implement the element operations."""

    kind = "abstract"

    @property
    def identity(self):
        raise NotImplementedError

    def coerce(self, x):
        """Normalize ``x`` to the canonical element representation."""
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def word_length(self, g) -> int:
        raise NotImplementedError

    def word(self, g):
        """g as generators g_1, ..., g_m read left to right: g = g_1 ... g_m."""
        raise UnsupportedOperationError(f"cannot factor over kind {self.kind!r}")

    def sort_key(self, g):
        """Deterministic tie-break key among elements of equal word length."""
        raise NotImplementedError

    def enumeration_key(self, g):
        return (self.word_length(g), self.sort_key(g))

    def enumerate_elements(self):
        """Yield all elements ordered by (word length, sort key)."""
        raise NotImplementedError

    def element_name(self, g) -> str:
        raise NotImplementedError

    def is_finite(self) -> bool:
        return False


def _integer(x):
    """x as an int when it is an integer, or a float holding one (JSON may
    write 1 as 1.0); None for anything else, a bool or a string included."""
    if type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    return int(x) if isinstance(x, float) and x.is_integer() else None


def multiply(group: Group, g, h):
    """Group product of two elements of ``group``.

    Raises ArgumentError if either operand does not belong to the group.
    """
    return group.multiply(group.coerce(g), group.coerce(h))


def _sphere(dim: int, rem: int):
    """All integer vectors of length dim with L1 norm rem."""
    if dim == 1:
        if rem == 0:
            yield (0,)
        else:
            yield (-rem,)
            yield (rem,)
        return
    for a in range(-rem, rem + 1):
        for rest in _sphere(dim - 1, rem - abs(a)):
            yield (a,) + rest


class LatticeGroup(Group):
    """The integer lattice Z^k with standard generators and their inverses."""

    kind = "lattice"

    def __init__(self, rank: int):
        if rank < 1:
            raise ArgumentError("lattice rank must be >= 1")
        self.rank = rank
        gens = []
        for i in range(rank):
            v = [0] * rank
            v[i] = 1
            gens.append(tuple(v))
            v = [0] * rank
            v[i] = -1
            gens.append(tuple(v))
        self.generators = tuple(gens)

    @property
    def identity(self):
        return (0,) * self.rank

    def coerce(self, x):
        try:  # on Z a bare coordinate stands for its 1-tuple
            v = tuple(map(_integer, (x,) if self.rank == 1 and not isinstance(x, (tuple, list))
                          else x))
        except TypeError as exc:
            raise ArgumentError(f"not a Z^{self.rank} element: {x!r}") from exc
        if None in v:
            raise ArgumentError(f"not a Z^{self.rank} element: {x!r}")
        if len(v) != self.rank:
            raise ArgumentError(f"wrong lattice rank for {x!r}: expected {self.rank}")
        return v

    def multiply(self, g, h):
        if len(g) != self.rank or len(h) != self.rank:
            raise ArgumentError("mixed-group operands")
        return tuple(map(operator.add, g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def word_length(self, g) -> int:
        return sum(abs(a) for a in g)

    def word(self, g):
        """Unit steps axis by axis: |g_i| copies of +-e_i for i = 1..k."""
        word = []
        for i, c in enumerate(g):
            word += [self.generators[2 * i + (c < 0)]] * abs(c)
        return word

    def sort_key(self, g):
        return g

    def enumerate_elements(self):
        r = 0
        while True:
            yield from sorted(_sphere(self.rank, r))
            r += 1

    def element_name(self, g) -> str:
        if self.rank == 1:
            return str(g[0])
        return "(" + ",".join(str(a) for a in g) + ")"


class FiniteTableGroup(Group):
    """A finite group given by its multiplication table.

    ``table[i][j]`` is the index of the product of elements i and j.  The
    table must be a Latin square with a (unique) two-sided identity.
    """

    kind = "finite"

    def __init__(self, table, generators=None):
        n = len(table)
        if n == 0:
            raise ArgumentError("empty multiplication table")
        rows = [tuple(map(_integer, row)) for row in table]
        if any(None in row for row in rows):
            raise ArgumentError("multiplication table entries must be integers")
        for row in rows:
            if len(row) != n or sorted(row) != list(range(n)):
                raise ArgumentError("multiplication table is not a Latin square (row)")
        for j in range(n):
            col = sorted(rows[i][j] for i in range(n))
            if col != list(range(n)):
                raise ArgumentError("multiplication table is not a Latin square (column)")
        self.table = rows
        self.order = n
        ident = None
        for e in range(n):
            if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ArgumentError("multiplication table has no identity element")
        self._identity = ident
        if generators is None:
            gens = tuple(g for g in range(n) if g != ident) or (ident,)
        else:
            gens = tuple(self.coerce(g) for g in generators)
        closed = set(gens) | {ident}
        for g in gens:
            closed.add(self.inverse(g))
        self.generators = tuple(sorted(closed - {ident})) or (ident,)
        self._lengths, self._parents = self._bfs()
        if any(l is None for l in self._lengths):
            raise ArgumentError("generators do not generate the group")

    @property
    def identity(self):
        return self._identity

    def coerce(self, x):
        g = _integer(x)
        if g is None or not 0 <= g < self.order:
            raise ArgumentError(f"not an element index in 0..{self.order - 1}: {x!r}")
        return g

    def multiply(self, g, h):
        return self.table[g][h]

    def inverse(self, g):
        return self.table[g].index(self._identity)

    def _bfs(self):
        """Word lengths and breadth-first parents: parents[h] = (g, s) for the
        first g, s to reach h = g s (None at the identity and off the group)."""
        lengths = [None] * self.order
        parents = [None] * self.order
        lengths[self._identity] = 0
        frontier = [self._identity]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for g in frontier:
                for s in self.generators:
                    h = self.table[g][s]
                    if lengths[h] is None:
                        lengths[h] = depth
                        parents[h] = (g, s)
                        nxt.append(h)
            frontier = nxt
        return lengths, parents

    def word_length(self, g) -> int:
        return self._lengths[g]

    def word(self, g):
        """The breadth-first path from the identity to g."""
        out = []
        while g != self._identity:
            g, s = self._parents[g]
            out.append(s)
        return out[::-1]

    def sort_key(self, g):
        return g

    def enumerate_elements(self):
        yield from sorted(range(self.order), key=lambda g: (self._lengths[g], g))

    def element_name(self, g) -> str:
        return str(g)

    def is_finite(self) -> bool:
        return True

    @classmethod
    def cyclic(cls, n: int, generators=None):
        """Z/n with addition mod n."""
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        if generators is None and n > 1:
            generators = [1]
        return cls(table, generators=generators)


def _reduced_words(letters, length: int, prefix):
    """Reduced words of the given length extending prefix (a list of letters)."""
    if len(prefix) == length:
        yield tuple(prefix)
        return
    for a in letters:
        if prefix and prefix[-1] == -a:
            continue
        prefix.append(a)
        yield from _reduced_words(letters, length, prefix)
        prefix.pop()


class FreeGroup(Group):
    """The free group F_r; elements are reduced words stored eagerly reduced."""

    kind = "free"

    def __init__(self, rank: int, names=None):
        if rank < 1:
            raise ArgumentError("free rank must be >= 1")
        self.rank = rank
        if names is None:
            names = [chr(ord("a") + i) for i in range(rank)]
        if len(names) != rank or len(set(names)) != rank:
            raise ArgumentError("need one distinct name per generator")
        self.names = tuple(names)
        letters = []
        for i in range(1, rank + 1):
            letters.append((-i,))
            letters.append((i,))
        self.generators = tuple(sorted(letters))

    @property
    def identity(self):
        return ()

    def coerce(self, x):
        if isinstance(x, str):
            return self.parse(x)
        try:
            w = tuple(map(_integer, x))
        except TypeError as exc:
            raise ArgumentError(f"not a free-group word: {x!r}") from exc
        for a in w:
            if a is None or a == 0 or abs(a) > self.rank:
                raise ArgumentError(
                    f"letters are nonzero integers in -{self.rank}..{self.rank}: {x!r}")
        return self._reduce(w)

    @staticmethod
    def _reduce(word):
        out = []
        for a in word:
            if out and out[-1] == -a:
                out.pop()
            else:
                out.append(a)
        return tuple(out)

    def multiply(self, g, h):
        return self._reduce(g + h)

    def inverse(self, g):
        return tuple(-a for a in reversed(g))

    def word_length(self, g) -> int:
        return len(g)

    def word(self, g):
        return [(a,) for a in g]

    def sort_key(self, g):
        return g

    def enumerate_elements(self):
        length = 0
        while True:
            yield from self._words_of_length(length)
            length += 1

    def _words_of_length(self, length):
        letters = [a[0] for a in self.generators]
        if length == 0:
            yield ()
            return
        yield from _reduced_words(letters, length, [])

    def parse(self, text: str):
        """Parse words like 'a.b^-1.a' ('e' is the identity)."""
        text = text.strip()
        if text in ("", "e"):
            return ()
        word = []
        for tok in text.replace("*", ".").split("."):
            tok = tok.strip()
            inv = tok.endswith("^-1")
            base = tok[:-3] if inv else tok
            if base not in self.names:
                raise ArgumentError(f"unknown generator {base!r}")
            idx = self.names.index(base) + 1
            word.append(-idx if inv else idx)
        return self._reduce(tuple(word))

    def element_name(self, g) -> str:
        if not g:
            return "e"
        parts = []
        for a in g:
            base = self.names[abs(a) - 1]
            parts.append(base if a > 0 else base + "^-1")
        return ".".join(parts)


class FiniteSubset:
    """An ordered, duplicate-free finite set of group elements."""

    __slots__ = ("group", "elements", "_set")

    def __init__(self, group: Group, elements):
        self.group = group
        elems = tuple(group.coerce(g) for g in elements)
        seen = set()
        for g in elems:
            if g in seen:
                raise ArgumentError(f"duplicate element {group.element_name(g)}")
            seen.add(g)
        if not elems:
            raise ArgumentError("finite subset must be non-empty")
        self.elements = elems
        self._set = frozenset(elems)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self._set

    def __eq__(self, other):
        return (
            isinstance(other, FiniteSubset)
            and self.group is other.group
            and self._set == other._set
        )

    def __hash__(self):
        return hash((id(self.group), self._set))

    def __repr__(self):
        names = ",".join(self.group.element_name(g) for g in self.elements)
        return f"FiniteSubset({{{names}}})"

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        extra = [g for g in other.elements if g not in self._set]
        return FiniteSubset(self.group, self.elements + tuple(extra))


def folner_set(group: Group, n: int) -> FiniteSubset:
    """The n-th Folner set: the box [0,n)^k for Z^k, all of G for finite G.

    Free groups are not amenable; they get sofic maps instead.
    """
    if n < 1:
        raise ArgumentError("n must be >= 1")
    if group.kind == "lattice":
        box = itertools.product(range(n), repeat=group.rank)
        return FiniteSubset(group, box)
    if group.kind == "finite":
        return FiniteSubset(group, range(group.order))
    raise UnsupportedOperationError(
        f"no Folner sets for group kind {group.kind!r} (not amenable)"
    )


def invariance_defect(F: FiniteSubset, K: FiniteSubset) -> Fraction:
    """max over g in K of |gF symmetric-difference F| / |F|."""
    if len(F) == 0:
        raise ArgumentError("F must be non-empty")
    group = F.group
    base = F._set
    worst = Fraction(0)
    for g in K:
        shifted = frozenset(group.multiply(g, f) for f in base)
        sym = len(shifted ^ base)
        worst = max(worst, Fraction(sym, len(base)))
    return worst

"""Subshifts of finite type over a finitely generated group, at window
resolution.

Points of the (usually infinite) shift space are only ever touched through
their restrictions to finite windows.  Every metric comparison therefore
returns a certified interval [lo, lo + tail(W)] where tail(W) is the total
weight outside the window; downstream counts carry that bracketing instead
of pretending to exact membership.

Default metric weights give the j-th element of the group's canonical
enumeration (ordered by word length, lexicographic tie-break) the dyadic
weight 2^-(j+1), so all window sums and tails are exact Fractions.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .errors import ArgumentError, ResourceBudgetError, UnsupportedOperationError
from .groups import Group


def as_fraction(x) -> Fraction:
    """Exact rational from int/str/Fraction; floats read as decimal literals.
    A bool, a NaN and an infinity are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    try:
        if not isinstance(x, bool):
            return Fraction(x if isinstance(x, str) else str(float(x)))
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ArgumentError(f"cannot interpret {x!r} as an exact number")


WEIGHT_ENUMERATION_LIMIT = 2_000_000  # group elements enumerated to find a weight
LANGUAGE_BUDGET = 5_000_000  # default nodes for enumerating or counting a language


class MetricWeights:
    """Summable positive weights w_g with an exactly known total mass.

    The default assigns 2^-(j+1) to the j-th element of the group's
    canonical enumeration (total mass 1 for infinite groups, 1 - 2^-|G|
    for finite ones), keeping every window mass and tail dyadic.
    """

    def __init__(self, group: Group, weight_fn=None, total=None):
        self.group = group
        self._custom = weight_fn
        self._index = {}
        self._iter = group.enumerate_elements()
        if weight_fn is not None:
            if total is None:
                raise ArgumentError("custom weights need a declared total mass")
            self.total = as_fraction(total)
        elif group.is_finite():
            self.total = 1 - Fraction(1, 2 ** group.order)
        else:
            self.total = Fraction(1)

    def _enumeration_index(self, g) -> int:
        if g in self._index:
            return self._index[g]
        while len(self._index) < WEIGHT_ENUMERATION_LIMIT:
            h = next(self._iter)
            self._index.setdefault(h, len(self._index))
            if h == g:
                return self._index[g]
        raise ResourceBudgetError(f"enumeration budget hit before reaching {g!r}")

    def weight(self, g) -> Fraction:
        g = self.group.coerce(g)
        if self._custom is not None:
            w = as_fraction(self._custom(g))
            if w <= 0:
                raise ArgumentError("weights must be positive")
            return w
        return Fraction(1, 2 ** (self._enumeration_index(g) + 1))

    def mass(self, elements) -> Fraction:
        return sum((self.weight(g) for g in elements), Fraction(0))

    def tail(self, elements) -> Fraction:
        t = self.total - self.mass(elements)
        if t < 0:
            raise ArgumentError("declared total mass is inconsistent (negative tail)")
        return t


class Window:
    """A canonically ordered finite window.  Its metric weights, mass and
    tail are computed on first read and cached: only metric comparisons
    read them, so windows built for counting or measures never do."""

    __slots__ = ("system", "elements", "index", "_metric")

    def __init__(self, system: "SymbolicSystem", elements):
        group = system.group
        elems = sorted({group.coerce(g) for g in elements}, key=group.enumeration_key)
        if not elems:
            raise ArgumentError("window must be non-empty")
        self.system = system
        self.elements = tuple(elems)
        self.index = {g: i for i, g in enumerate(self.elements)}
        self._metric = None

    def _weighed(self) -> tuple:
        """(weights, mass, tail), computed once."""
        if self._metric is None:
            metric = self.system.weights
            weights = tuple(metric.weight(g) for g in self.elements)
            self._metric = (weights, sum(weights, Fraction(0)), metric.tail(self.elements))
        return self._metric

    @property
    def weights(self) -> tuple:
        return self._weighed()[0]

    @property
    def mass(self) -> Fraction:
        return self._weighed()[1]

    @property
    def tail(self) -> Fraction:
        return self._weighed()[2]

    def __len__(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self.index

    def __eq__(self, other):
        return (
            isinstance(other, Window)
            and self.system is other.system
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((id(self.system), self.elements))

    def __repr__(self):
        names = ",".join(self.system.group.element_name(g) for g in self.elements)
        return f"Window({{{names}}})"


class _PatternFields(NamedTuple):
    window: Window
    values: tuple


class Pattern(_PatternFields):
    """A total assignment window -> alphabet."""

    __slots__ = ()

    def __new__(cls, window, values):
        if len(values) != len(window):
            raise ArgumentError("pattern values must match window size")
        return super().__new__(cls, window, values)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so both check too
        return cls(*iterable)

    def value_at(self, g):
        return self.values[self.window.index[g]]

    def __repr__(self):
        return f"Pattern({''.join(map(str, self.values))}@{self.window!r})"


class SymbolicSystem:
    """A subshift of finite type with window-truncated compatible metric.

    Forbidden patterns are finite; ``language`` enumerates all locally
    admissible patterns on a window (no translated forbidden pattern fits
    inside).  For nearest-neighbour Z-systems on intervals this coincides
    with the set of globally admissible words.
    """

    def __init__(self, alphabet, group: Group, forbidden=(), weights: MetricWeights = None,
                 label="system"):
        symbols = tuple(alphabet)
        if len(symbols) < 1 or len(set(symbols)) != len(symbols):
            raise ArgumentError("alphabet must be non-empty without repeats")
        self.alphabet = symbols
        self.group = group
        self.weights = weights if weights is not None else MetricWeights(group)
        self.label = label
        self._windows = {}
        self._language_cache = {}  # window -> (nodes its enumeration took, patterns)
        self._plans = {}  # (window elements, shifts) -> ComparisonPlan, shared across stages
        self.forbidden = tuple(
            self._coerce_forbidden(win, vals) for win, vals in forbidden
        )

    def _coerce_forbidden(self, window_elements, values):
        group = self.group
        elems = tuple(group.coerce(g) for g in window_elements)
        vals = tuple(values)
        if len(elems) != len(vals) or len(set(elems)) != len(elems):
            raise ArgumentError("forbidden pattern must assign each window element once")
        for v in vals:
            if v not in self.alphabet:
                raise ArgumentError(f"forbidden pattern uses unknown symbol {v!r}")
        order = sorted(range(len(elems)), key=lambda i: group.enumeration_key(elems[i]))
        return (
            tuple(elems[i] for i in order),
            tuple(vals[i] for i in order),
        )

    # windows and patterns ---------------------------------------------------

    def window(self, elements) -> Window:
        w = Window(self, elements)
        return self._windows.setdefault(w.elements, w)

    def interval_window(self, lo: int, hi: int) -> Window:
        """Convenience for Z systems: the window {lo, ..., hi}."""
        if self.group.kind != "lattice" or self.group.rank != 1:
            raise UnsupportedOperationError("interval windows are a Z convenience")
        return self.window(range(lo, hi + 1))

    def pattern(self, window: Window, assignment) -> Pattern:
        if isinstance(assignment, dict):
            coerced = {self.group.coerce(g): v for g, v in assignment.items()}
            if coerced.keys() != set(window.elements):
                raise ArgumentError("assignment must give each window element, and no other, "
                                    "a symbol")
            values = tuple(coerced[g] for g in window.elements)
        else:
            values = tuple(assignment)
        for v in values:
            if v not in self.alphabet:
                raise ArgumentError(f"unknown symbol {v!r}")
        return Pattern(window, values)

    # shift action ------------------------------------------------------------

    def act(self, g, p: Pattern) -> Pattern:
        """(g.p) on window W g^-1, via (g.x)_h = x_{hg}."""
        group = self.group
        g = group.coerce(g)
        ginv = group.inverse(g)
        new_window = self.window(group.multiply(w, ginv) for w in p.window.elements)
        values = tuple(
            p.value_at(group.multiply(h, g)) for h in new_window.elements
        )
        return Pattern(new_window, values)

    # metric ------------------------------------------------------------------

    def rho(self, p: Pattern, q: Pattern):
        """Certified distance interval [lo, hi] between any two extensions."""
        if p.window != q.window:
            raise ArgumentError("rho needs patterns on the same window")
        lo = Fraction(0)
        for w, a, b in zip(p.window.weights, p.values, q.values):
            if a != b:
                lo += w
        return lo, lo + p.window.tail

    # language ------------------------------------------------------------------

    def _embeddings(self, window: Window):
        """The translates of forbidden patterns that fit inside the window,
        as {positions: {values}}, positions in the shape's element order.

        The translate putting a shape's first element v0 on w puts each other
        element v on (v v0^-1) w, so with v v0^-1 computed once per shape a
        placement costs one group product per other element."""
        group, at = self.group, window.index.get
        bans = {}
        for elems, vals in self.forbidden:
            v0_inv = group.inverse(elems[0])
            offsets = [group.multiply(v, v0_inv) for v in elems[1:]]
            for j, w in enumerate(window.elements):
                positions = (j, *[at(group.multiply(u, w)) for u in offsets])
                if None not in positions:
                    bans.setdefault(positions, set()).add(vals)
        return bans

    def language_values(self, window: Window, budget: int = None):
        """All locally admissible value tuples on the window, sorted.  Past
        budget nodes (symbols tried) the enumeration raises ResourceBudgetError,
        and so does a cached language whose enumeration took more."""
        budget = budget if budget is not None else LANGUAGE_BUDGET
        key = window.elements
        cached = self._language_cache.get(key)
        if cached is not None:
            if cached[0] > budget:
                raise ResourceBudgetError("language enumeration budget exceeded")
            return cached[1]
        m = len(window)
        # per site, one ban test per shape of the translates ending there
        checks = [[] for _ in range(m)]
        for positions, banned in self._embeddings(window).items():
            checks[max(positions)].append(_ban_test(positions, banned))
        alphabet = self.alphabet
        nodes = 0
        out = []
        values = [None] * m  # checks at site j read sites <= j only: none is reset

        def rec(j):
            nonlocal nodes
            if j == m:
                out.append(tuple(values))
                return
            tests = checks[j]
            for sym in alphabet:
                nodes += 1
                if nodes > budget:
                    raise ResourceBudgetError("language enumeration budget exceeded")
                values[j] = sym
                for get, banned in tests:
                    if get(values) in banned:
                        break
                else:
                    rec(j + 1)

        try:
            rec(0)
        finally:
            del rec  # rec reaches itself through its closure: break the cycle
        result = tuple(out)
        self._language_cache[key] = (nodes, result)
        return result

    def count_language(self, window: Window, budget: int = None) -> int:
        """len(language_values(window)), counted without listing the patterns.

        The sites are placed one at a time in sorted element order, so a
        Z^k box is swept one slice at a time along its first axis.  The ban
        tables of language_values are regrouped under each translate's last
        site in that order.  After each site the count keeps, per state, the
        number of admissible patterns on the placed sites that show it; a
        state is the values on the placed sites that a later translate reads,
        in placement order.  Every (state, symbol) pair tried is one node;
        past budget nodes the count raises ResourceBudgetError, never a
        number.  Nothing is cached.
        """
        budget = budget if budget is not None else LANGUAGE_BUDGET
        m = len(window)
        order = sorted(range(m), key=window.elements.__getitem__)
        rank = [0] * m  # window position -> the step that places it
        for r, j in enumerate(order):
            rank[j] = r
        ending = [[] for _ in range(m)]  # per step: (steps read, bans) of translates ending there
        last = list(range(m))  # per step: the last step that reads its value
        for positions, banned in self._embeddings(window).items():
            steps = [rank[j] for j in positions]
            end = max(steps)
            ending[end].append((steps, banned))
            for r in steps:
                if last[r] < end:
                    last[r] = end
        symbols = [(sym,) for sym in self.alphabet]
        states = {(): 1}
        live = []  # the steps whose values a state holds, in placement order
        nodes = 0
        for r in range(m):
            nodes += len(states) * len(symbols)
            if nodes > budget:
                raise ResourceBudgetError("language count budget exceeded")
            live.append(r)  # now the steps of a state and the symbol tried at r
            slot = dict(zip(live, range(len(live))))
            tests = [_ban_test([slot[q] for q in steps], banned) for steps, banned in ending[r]]
            kept = [i for i, q in enumerate(live) if last[q] > r]
            live = [live[i] for i in kept]
            keep = (operator.itemgetter(*kept) if len(kept) > 1
                    else lambda values, kept=kept: tuple(values[i] for i in kept))
            counts = {}
            for state, count in states.items():
                for sym in symbols:
                    values = state + sym
                    for get, banned in tests:
                        if get(values) in banned:
                            break
                    else:
                        key = keep(values)
                        counts[key] = counts.get(key, 0) + count
            states = counts
        return sum(states.values())


def _ban_test(indices, banned):
    """(getter, banned values) of the translates read at these indices; a
    one-index getter returns the bare symbol, and its bans are bare too."""
    get = operator.itemgetter(*indices)
    return (get, {v for (v,) in banned}) if len(indices) == 1 else (get, banned)


def full_shift(alphabet, group: Group, weights=None, label=None) -> SymbolicSystem:
    return SymbolicSystem(alphabet, group, forbidden=(),
                          weights=weights, label=label or "full-shift")


def golden_mean_system(group: Group = None, weights=None) -> SymbolicSystem:
    """Binary Z shift forbidding the word '11'."""
    from .groups import LatticeGroup

    group = group or LatticeGroup(1)
    forbidden = [ (((0,), (1,)), ("1", "1")) ]
    return SymbolicSystem(("0", "1"), group, forbidden=forbidden,
                          weights=weights, label="golden-mean")


# measures ---------------------------------------------------------------------


def _normalized(fractions):
    vals = [as_fraction(x) for x in fractions]
    total = sum(vals, Fraction(0))
    if total <= 0:
        raise ArgumentError("probabilities must have positive total")
    if abs(total - 1) > Fraction(1, 10**9):
        raise ArgumentError(f"probabilities sum to {float(total)}, not 1")
    return tuple(v / total for v in vals)


def _prefix_products(patterns, order, first, step) -> dict:
    """Pattern -> first[x_0] * step[x_0][x_1] * ... * step[x_{n-2}][x_{n-1}],
    x the pattern's values read at the positions ``order`` (None: as stored).

    The patterns are swept in sorted order, keeping the products of the
    current one's prefixes, so each multiplication belongs to one node of
    the patterns' prefix trie: patterns sharing a prefix share its product.
    """
    if order is None:
        rows = sorted((v, v) for v in patterns)
    else:
        rows = sorted((tuple(v[i] for i in order), v) for v in patterns)
    out = {}
    prefix = []  # prefix[j]: the product over key[:j + 1] of the previous row
    last = ()
    for key, v in rows:
        shared = 0
        for x, y in zip(last, key):
            if x != y:
                break
            shared += 1
        del prefix[shared:]
        if not prefix:
            prefix.append(first[key[0]])
        for j in range(len(prefix), len(key)):
            prefix.append(prefix[-1] * step[key[j - 1]][key[j]])
        out[v] = prefix[-1]
        last = key
    return out


def _per_symbol(symbols, values) -> list:
    """values, given as {symbol: value} (an absent symbol reads 0) or as a
    sequence in alphabet order, as a list in alphabet order."""
    try:
        vec = [values.get(a, 0) for a in symbols] if isinstance(values, dict) else list(values)
    except TypeError:  # a scalar, such as an absent transition row read as 0
        vec = ()
    if len(vec) != len(symbols):
        raise ArgumentError("need one probability per symbol")
    return vec


def _numerators(probs: dict, scale: int) -> dict:
    """Each probability's numerator over the common denominator scale."""
    return {a: p.numerator * (scale // p.denominator) for a, p in probs.items()}


class _CylinderMeasure:
    """A shift-invariant measure held as integer numerators over one
    denominator D, so a cylinder on an n-element window has mass
    numerator / D**n.  ``masses`` is the only place a cylinder mass is
    computed; ``cylinder`` and ``integrate`` read it."""

    def cylinder(self, p: Pattern) -> Fraction:
        mass, den = self.masses(p.window, (p.values,))
        return Fraction(mass[p.values], den)


class BernoulliMeasure(_CylinderMeasure):
    """Shift-invariant product measure with one symbol distribution."""

    kind = "bernoulli"

    def __init__(self, system: SymbolicSystem, probs):
        self.system = system
        self.probs = dict(zip(system.alphabet, _normalized(_per_symbol(system.alphabet, probs))))
        self._scale = math.lcm(*(p.denominator for p in self.probs.values()))
        numerators = _numerators(self.probs, self._scale)
        self._first = numerators
        self._step = dict.fromkeys(system.alphabet, numerators)

    def masses(self, window: Window, patterns):
        """({values: numerator}, D**|window|): the cylinder masses of the
        patterns (value tuples on the window), in one prefix-sharing sweep."""
        return (_prefix_products(patterns, None, self._first, self._step),
                self._scale ** len(window))

    def __repr__(self):
        ps = ",".join(f"{a}:{float(v):g}" for a, v in self.probs.items())
        return f"Bernoulli({ps})"


class MarkovMeasure(_CylinderMeasure):
    """Stationary Markov chain on a Z system; cylinders on interval windows."""

    kind = "markov"

    def __init__(self, system: SymbolicSystem, initial, transition):
        if system.group.kind != "lattice" or system.group.rank != 1:
            raise UnsupportedOperationError("Markov measures are defined for Z only")
        self.system = system
        symbols = system.alphabet
        self.initial = dict(zip(symbols, _normalized(_per_symbol(symbols, initial))))
        self.transition = rows = {
            a: dict(zip(symbols, _normalized(_per_symbol(symbols, row))))
            for a, row in zip(symbols, _per_symbol(symbols, transition))}
        self._check_stationary()
        self._scale = math.lcm(*(p.denominator for p in self.initial.values()),
                               *(p.denominator for row in rows.values() for p in row.values()))
        self._first = _numerators(self.initial, self._scale)
        self._step = {a: _numerators(row, self._scale) for a, row in rows.items()}

    def _check_stationary(self):
        for b in self.system.alphabet:
            mass = sum(
                (self.initial[a] * self.transition[a][b] for a in self.system.alphabet),
                Fraction(0),
            )
            if abs(mass - self.initial[b]) > Fraction(1, 10**9):
                raise ArgumentError("initial distribution is not stationary")

    @classmethod
    def stationary(cls, system: SymbolicSystem, transition):
        """Build the chain from its transition matrix; solves pi P = pi exactly."""
        symbols = system.alphabet
        n = len(symbols)
        rows = [[as_fraction(x) for x in _per_symbol(symbols, row)]
                for row in _per_symbol(symbols, transition)]
        # solve (P^T - I) pi = 0 with sum pi = 1 by Gaussian elimination
        mat = [[rows[j][i] - (1 if i == j else 0) for j in range(n)] + [Fraction(0)]
               for i in range(n)]
        mat[-1] = [Fraction(1)] * n + [Fraction(1)]
        pivots = list(range(n))
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
            if piv is None:
                raise ArgumentError("transition matrix has no unique stationary vector")
            mat[col], mat[piv] = mat[piv], mat[col]
            inv = 1 / mat[col][col]
            mat[col] = [x * inv for x in mat[col]]
            for r in range(n):
                if r != col and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
        pi = [mat[i][n] for i in pivots]
        return cls(system, pi, {a: dict(zip(symbols, rows[i])) for i, a in enumerate(symbols)})

    def masses(self, window: Window, patterns):
        """({values: numerator}, D**|window|): the cylinder masses of the
        patterns (value tuples on the interval window), in one
        prefix-sharing sweep along the interval."""
        coords = [g[0] for g in window.elements]
        if max(coords) - min(coords) + 1 != len(coords):
            raise UnsupportedOperationError("Markov cylinders need interval windows")
        order = sorted(range(len(coords)), key=coords.__getitem__)
        if order == list(range(len(order))):
            order = None  # the window already lists the interval left to right
        return (_prefix_products(patterns, order, self._first, self._step),
                self._scale ** len(window))

    def entropy_rate(self) -> float:
        """Closed-form -sum_i pi_i P_ij log P_ij in nats."""
        total = 0.0
        for a in self.system.alphabet:
            for b, p in self.transition[a].items():
                if p > 0:
                    total -= float(self.initial[a]) * float(p) * math.log(p)
        return total


class TestFunction:
    """A continuous observable depending on finitely many coordinates."""

    __test__ = False  # not a pytest class

    def __init__(self, window: Window, table, default=0, label="f"):
        self.window = window
        self.table = {tuple(k): as_fraction(v) for k, v in table.items()}
        self.default = as_fraction(default)
        self.label = label
        vals = list(self.table.values()) + [self.default]
        self.min_value = min(vals)
        self.max_value = max(vals)

    def __call__(self, values) -> Fraction:
        return self.table.get(tuple(values), self.default)

    @classmethod
    def indicator(cls, p: Pattern, label=None):
        return cls(p.window, {p.values: 1}, default=0,
                   label=label or f"1[{''.join(map(str, p.values))}]")

    def translate(self, g) -> "TestFunction":
        """f o g, i.e. x -> f(g.x); depends on coordinates W g."""
        system = self.window.system
        group = system.group
        g = group.coerce(g)
        new_window = system.window(group.multiply(w, g) for w in self.window.elements)
        # (g.x)|_W reads x at W g; re-key the table accordingly
        source_positions = [
            new_window.index[group.multiply(w, g)] for w in self.window.elements
        ]
        table = {}
        for vals in itertools.product(system.alphabet, repeat=len(new_window)):
            key = tuple(vals[i] for i in source_positions)
            table[vals] = self.table.get(key, self.default)
        return TestFunction(new_window, table, default=self.default,
                            label=f"{self.label}o{group.element_name(g)}")


def integrate(measure, f: TestFunction) -> Fraction:
    """mu(f) = sum over patterns p on f's window of f(p) mu([p])."""
    system = f.window.system
    values = {}
    for vals in itertools.product(system.alphabet, repeat=len(f.window)):
        fv = f(vals)
        if fv != 0:
            values[vals] = fv
    mass, den = measure.masses(f.window, values)
    scale = math.lcm(*(fv.denominator for fv in values.values()))
    total = sum(fv.numerator * (scale // fv.denominator) * mass[v] for v, fv in values.items())
    return Fraction(total, scale * den)


def count_cyclic_words(system: SymbolicSystem, n: int) -> int:
    """Number of admissible cyclic words of length n on a Z system whose
    forbidden words have length <= 2: the trace of T^n, T the site relation
    read off the enumerated language of {0, 1}.  A test oracle: it shares
    nothing with count_language but the ban tables."""
    if n < 1:
        raise ArgumentError("necklace length must be >= 1")
    group = system.group
    if group.kind != "lattice" or group.rank != 1 or any(
            max(elems)[0] - min(elems)[0] > 1 for elems, _ in system.forbidden):
        raise UnsupportedOperationError(
            "cyclic word counts need a Z system with forbidden words of length <= 2")
    pairs = system.language_values(system.interval_window(0, 1))
    total = 0
    for start in system.alphabet:
        ends = {start: 1}  # last symbol -> words from start
        for _ in range(n):
            after = dict.fromkeys(system.alphabet, 0)
            for a, b in pairs:
                after[b] += ends.get(a, 0)
            ends = after
        total += ends[start]
    return total

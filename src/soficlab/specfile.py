"""Experiment spec files: canonical JSON, schema validation, object building.

One spec file describes one task over one symbolic system.  Every parameter
is echoed into output headers together with the sha256 of the spec file, so
a result is reproducible from the artifact alone; ``read_spec`` parses and
hashes one read of the file, so that digest names the bytes that ran.

``SCHEMA`` is a JSON Schema (Draft 2020-12) and the single source of truth
for a spec's shape.  A small walker over it (``_violations``,
``_best_match``) validates on the standard library alone: it interprets just
the keywords SCHEMA uses, refuses any other at import, and reports the error
``jsonschema.validate`` would raise, with jsonschema's message and its
best-match choice.  jsonschema itself is a test-only oracle for the walker.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import contextmanager
from fractions import Fraction
from typing import NamedTuple

from .errors import ArgumentError, SpecError, UnsupportedOperationError
from .groups import (FiniteSubset, FiniteTableGroup, FreeGroup, Group, LatticeGroup, _integer,
                     folner_set)
from .symbolic import (BernoulliMeasure, MarkovMeasure, SymbolicSystem, TestFunction,
                       as_fraction)
from .covers import Cover, origin_partition, trivial_cover
from .entropy import partition_bound_arguments
from .microstates import MeasureFilter
from .sofic import cyclic_model, from_folner, random_free_model, regular_representation
from .tiling import FLAVORS, check_eta, check_shapes, check_tau, check_V

TASKS = (
    "language", "defects", "microstates", "entropy-sofic", "entropy-amenable",
    "compare", "variational", "tile", "pairs", "partition-bound",
)

_ELEMENT = {
    "anyOf": [
        {"type": "array", "items": {"type": "integer"}},
        {"type": "integer"},
        {"type": "string"},
    ]
}

_PATTERN = {
    "type": "object",
    "required": ["window", "values"],
    "properties": {
        "window": {"type": "array", "items": _ELEMENT, "minItems": 1},
        "values": {"type": "array", "items": {"type": "string"}, "minItems": 1},
    },
    "additionalProperties": False,
}

_ELEMENTS = {"type": "array", "items": _ELEMENT}
_INTEGERS = {"type": "array", "items": {"type": "integer"}}
_DECIMAL = {"anyOf": [{"type": "string"}, {"type": "number"}]}  # as as_fraction reads it

# the JSON type of every key a task reads (TASK_PARAMS); a task reads only
# its own keys, and the others pass unchecked
_PARAMS = {
    "type": "object",
    "properties": {
        "window": _ELEMENTS,
        "F": _ELEMENTS,
        "sigma": {
            "type": "object",
            "required": ["model"],
            "properties": {"model": {"type": "string"}, "n": {"type": "integer"},
                           "d": {"type": "integer"}, "seed": {"type": "integer"}},
        },
        "stages": _INTEGERS,
        "ns": _INTEGERS,
        "pairs": {"type": "array", "items": _ELEMENTS},
        "cover": {
            "type": "object",
            "properties": {"kind": {"type": "string"}, "window": _ELEMENTS,
                           "elements": {"type": "array"}},
            "additionalProperties": False,
        },
        "delta": _DECIMAL,
        "deltas": {"anyOf": [{"type": "array", "items": _DECIMAL}, *_DECIMAL["anyOf"]]},
        "measure": {"type": "string"},
        "measure_labels": {"type": "array", "items": {"type": "string"}},
        "L": {"type": "array", "items": _PATTERN},
        "filter": {
            "type": "object",
            "required": ["measure"],
            "properties": {"measure": {"type": "string"},
                           "functions": {"type": "array", "items": _PATTERN},
                           "delta": _DECIMAL},
        },
        "a": _DECIMAL,
        "slack": _DECIMAL,
        "shapes": {"type": "array", "items": _ELEMENTS},
        "eta": _DECIMAL,
        "tau": _DECIMAL,
        "V": _INTEGERS,
        "flavor": {"type": "string"},
        "check_good": {"type": "boolean"},
        "candidates": {"type": "array", "items": {"type": "array", "items": _PATTERN}},
        "threshold": _DECIMAL,
        "n": {"type": "integer"},
        "lam_size": {"type": "integer"},
        "p": {"type": "array", "items": _DECIMAL},
        "eps": _DECIMAL,
    },
}

SCHEMA = {
    "type": "object",
    "required": ["task", "system", "params"],
    "properties": {
        "task": {"enum": list(TASKS)},
        "label": {"type": "string"},
        "system": {
            "type": "object",
            "required": ["alphabet", "group"],
            "properties": {
                "label": {"type": "string"},
                "alphabet": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                "group": {
                    "type": "object",
                    "required": ["kind", "rank_or_order"],
                    "properties": {
                        "kind": {"enum": ["lattice", "finite", "free"]},
                        "rank_or_order": {"type": "integer", "minimum": 1},
                        "generators": {"type": "array"},
                        "table": {"type": "array"},
                    },
                },
                "forbidden": {"type": "array", "items": _PATTERN},
            },
            "additionalProperties": False,
        },
        "measures": {"type": "object"},
        "params": _PARAMS,
        "out": {
            "type": "object",
            "properties": {"prefix": {"type": "string"}},
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


# the keywords of JSON Schema Draft 2020-12 that SCHEMA uses, the only ones
# _violations interprets; _check_schema holds SCHEMA to them at import
_KEYWORDS = {"type", "enum", "required", "properties", "additionalProperties", "items",
             "minItems", "minimum", "anyOf"}

# Draft 2020-12 types of parsed JSON: a bool is no integer, and 1.0 is one
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: _integer(x) is not None,  # as the groups read elements
    "number": lambda x: not isinstance(x, bool) and isinstance(x, (int, float)),
}


def _check_schema(schema: dict) -> None:
    """Raise unless schema keeps to the keywords and forms _violations reads."""
    unknown = set(schema) - _KEYWORDS
    if (unknown or schema.get("type", "object") not in _TYPES
            or schema.get("additionalProperties", False) is not False
            # `in` agrees with jsonschema's enum equality on strings only (True == 1)
            or not all(isinstance(v, str) for v in schema.get("enum", ()))):
        raise ValueError(f"spec schema fragment not interpreted by the validator: {schema}")
    for sub in (*schema.get("properties", {}).values(), *schema.get("anyOf", ()),
                *([schema["items"]] if "items" in schema else ())):
        _check_schema(sub)


_check_schema(SCHEMA)


class _Violation(NamedTuple):
    """One schema error as jsonschema's Draft 2020-12 validator reports it.

    path is relative to the instance the schema walk started at: the spec's
    root, or the instance of the anyOf whose context holds the error.
    """

    path: tuple
    keyword: str
    message: str
    matches_type: bool  # the error's schema has a type and the instance has it
    context: tuple = ()  # an anyOf's errors, one run per failed alternative


def _violations(instance, schema: dict, path: tuple = ()):
    """jsonschema's errors for instance under schema, in its order: schema
    keyword order, then instance order, with jsonschema's messages."""
    matches = "type" in schema and _TYPES[schema["type"]](instance)
    for keyword, value in schema.items():
        message, context = None, ()
        if keyword == "type":
            if not matches:
                message = f"{instance!r} is not of type {value!r}"
        elif keyword == "enum":
            if instance not in value:
                message = f"{instance!r} is not one of {value!r}"
        elif keyword == "required":
            if isinstance(instance, dict):
                for name in value:
                    if name not in instance:
                        yield _Violation(path, keyword, f"{name!r} is a required property",
                                         matches)
        elif keyword == "properties":
            if isinstance(instance, dict):
                for name, sub in value.items():
                    if name in instance:
                        yield from _violations(instance[name], sub, path + (name,))
        elif keyword == "additionalProperties":  # false, as _check_schema holds
            if isinstance(instance, dict):
                extras = sorted(k for k in instance if k not in schema.get("properties", {}))
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    message = (f"Additional properties are not allowed "
                               f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif keyword == "items":
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    yield from _violations(item, value, path + (index,))
        elif keyword == "minItems":
            if isinstance(instance, list) and len(instance) < value:
                message = f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif keyword == "minimum":
            if _TYPES["number"](instance) and instance < value:
                message = f"{instance!r} is less than the minimum of {value!r}"
        elif keyword == "anyOf":
            context = []
            for sub in value:
                errors = list(_violations(instance, sub))
                if not errors:
                    break
                context += errors
            else:
                message = f"{instance!r} is not valid under any of the given schemas"
        if message is not None:
            yield _Violation(path, keyword, message, matches, tuple(context))


def _relevance(v: _Violation) -> tuple:
    """jsonschema's relevance key: max picks the shallowest, then the largest
    path, then a keyword other than anyOf, then an instance off its type."""
    return -len(v.path), v.path, v.keyword != "anyOf", not v.matches_type


def _best_match(violations):
    """(error, absolute path) as jsonschema's best_match picks them, or None.

    From the most relevant error it descends into an anyOf's context, to the
    least relevant error there, unless the two least relevant ones tie.
    """
    best = max(violations, key=_relevance, default=None)
    if best is None:
        return None
    path = best.path
    while best.context:
        smallest = sorted(best.context, key=_relevance)[:2]
        if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
            break
        best = smallest[0]
        path += best.path
    return best, path


def read_spec(path) -> tuple[dict, str]:
    """The schema-checked spec at path and the sha256 of the bytes it was read from."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read spec file: {exc}", field="<file>") from exc
    try:
        # newline=None reads line ends as a text-mode open() does
        raw = json.load(io.StringIO(text, newline=None))
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at line {exc.lineno}: {exc.msg}",
                        field="<json>") from exc
    found = _best_match(_violations(raw, SCHEMA))
    if found is not None:  # the error jsonschema.validate would raise
        error, where = found
        parts = [str(p) for p in where]
        if error.keyword == "required":
            # name the missing property itself, e.g. system.alphabet
            parts.append(error.message.split("'")[1])
        field = ".".join(parts) or "<root>"
        raise SpecError(f"schema violation at {field}: {error.message}", field=field)
    return raw, hashlib.sha256(data).hexdigest()


def load_spec(path) -> dict:
    return read_spec(path)[0]


def build_group(gspec: dict) -> Group:
    kind = gspec["kind"]
    n = gspec["rank_or_order"]
    if kind == "lattice":
        return LatticeGroup(n)
    if kind == "finite":
        table = gspec.get("table")
        gens = gspec.get("generators")
        if table is not None:
            return FiniteTableGroup(table, generators=gens)
        return FiniteTableGroup.cyclic(n, generators=gens)
    names = gspec.get("generators")
    return FreeGroup(n, names=names)


def build_system(spec: dict) -> SymbolicSystem:
    sysspec = spec["system"]
    forbidden = []
    for fp in sysspec.get("forbidden", ()):
        if len(fp["window"]) != len(fp["values"]):
            raise SpecError("forbidden pattern window/value length mismatch",
                            field="system.forbidden")
        forbidden.append((tuple(fp["window"]), tuple(fp["values"])))
    try:
        group = build_group(sysspec["group"])
        return SymbolicSystem(tuple(sysspec["alphabet"]), group,
                              forbidden=forbidden,
                              label=sysspec.get("label", spec.get("label", "system")))
    except Exception as exc:
        raise SpecError(f"bad system: {exc}", field="system") from exc


def build_measure(system: SymbolicSystem, mspec: dict):
    kind = mspec.get("kind")
    if kind == "bernoulli":
        return BernoulliMeasure(system, mspec["probs"])
    if kind == "markov":
        if "initial" in mspec:
            return MarkovMeasure(system, mspec["initial"], mspec["transition"])
        return MarkovMeasure.stationary(system, mspec["transition"])
    raise ArgumentError(f"unknown measure kind {kind!r}")


def build_cover(system: SymbolicSystem, cspec) -> Cover:
    if cspec is None or cspec.get("kind") == "origin-partition":
        return origin_partition(system)
    kind = cspec.get("kind")
    if kind == "trivial":
        window = (system.window(cspec["window"]) if "window" in cspec
                  else system.window([system.group.identity]))
        return trivial_cover(system, window)
    if kind == "pattern-sets":
        for key in ("window", "elements"):
            if key not in cspec:
                raise SpecError(f"a pattern-sets cover needs {key!r}",
                                field=f"params.cover.{key}")
        window = system.window(cspec["window"])
        elements = [[_placed(system, window, cspec["window"], values) for values in elem]
                    for elem in cspec["elements"]]
        return Cover(system, window, elements)
    raise SpecError(f"unknown cover kind {kind!r}", field="params.cover")


# the group kinds each sigma model is defined on
SIGMA_MODELS = {"cyclic": ("lattice",), "folner-identity": ("lattice", "finite"),
                "regular": ("finite",), "random-free": ("free",)}


def build_sigma(system: SymbolicSystem, sspec: dict, sized: bool = False):
    """stage value -> sspec's sofic map, by default at sspec's own "n" (or
    "d", for random-free); if sized, the map at that size, which sspec must
    then give (regular takes none).  A model the group cannot take is
    refused here, not when a task first calls the function."""
    group, model = system.group, sspec["model"]
    if model not in SIGMA_MODELS:
        raise SpecError(f"unknown sigma model {model!r}", field="params.sigma")
    if group.kind not in SIGMA_MODELS[model]:
        raise SpecError(f"sigma model {model!r} needs a {' or '.join(SIGMA_MODELS[model])} "
                        f"group, not a {group.kind} one", field="params.sigma")
    build = {"cyclic": lambda n: cyclic_model(group, n),
             "folner-identity": lambda n: from_folner(group, folner_set(group, n)),
             "regular": lambda n: regular_representation(group),
             "random-free": lambda n: random_free_model(group.rank, n, int(sspec.get("seed", 0)),
                                                        names=group.names)[1]}[model]
    own = sspec.get("n", sspec.get("d") if model == "random-free" else None)
    if not sized:
        return lambda n=own: build(n)
    if own is None and model != "regular":
        raise SpecError(f'sigma model {model!r} needs "n": the task reads sigma at its own '
                        "size", field="params.sigma")
    return build(own)


def _placed(system: SymbolicSystem, window, elements, values) -> tuple:
    """values, listed in the order of elements, placed at their window positions."""
    v = [None] * len(window)
    for g, sym in zip(elements, values):
        v[window.index[system.group.coerce(g)]] = sym
    return tuple(v)


def build_pattern(system: SymbolicSystem, pspec: dict):
    window = system.window(pspec["window"])
    return system.pattern(window, _placed(system, window, pspec["window"], pspec["values"]))


def build_test_functions(system: SymbolicSystem, fspecs):
    return [TestFunction.indicator(build_pattern(system, fp)) for fp in fspecs]


_CYCLIC = {"model": "cyclic"}

# what each task reads from params: the required keys, then the optional
# ones with the default that stands in for an absent key (cover None is the
# origin partition, deltas None falls back to a single "delta")
TASK_PARAMS = {
    "language": (("window",), {}),
    "defects": (("sigma", "stages", "pairs"), {}),
    "microstates": (("sigma", "F", "window", "stages"),
                    {"cover": None, "deltas": None, "filter": None}),
    "entropy-sofic": (("sigma", "F", "window", "stages"),
                      {"cover": None, "deltas": None, "measure": None, "L": ()}),
    "entropy-amenable": (("ns",), {"cover": None, "measure": None, "a": None}),
    "compare": (("ns", "F", "window"),
                {"cover": None, "sigma": _CYCLIC, "deltas": None, "measure": None, "L": (),
                 "slack": None}),
    "variational": (("F", "window", "stages", "measure_labels"),
                    {"cover": None, "sigma": _CYCLIC, "deltas": None, "L": ()}),
    "tile": (("sigma", "shapes"),
             {"eta": "0.1", "tau": 0, "V": None, "flavor": "sofic", "check_good": True}),
    "pairs": (("candidates",), {"threshold": 0.0, "n": 6}),
    "partition-bound": (("lam_size", "p", "eta", "eps"), {}),
}


@contextmanager
def _building(field: str):
    """Raise what building field's value raises on bad input as a SpecError
    naming field; a SpecError naming a field of its own and a budget cut
    (no spec error) pass.  The built-in errors are caught too: the schema
    leaves some shapes open (measures, cover elements, group tables), and
    a value of the right JSON type can still fail int() or Fraction()."""
    try:
        yield
    except (UnsupportedOperationError, ValueError, TypeError, LookupError) as exc:
        raise SpecError(str(exc), field=field) from exc  # ArgumentError is a ValueError


def _positive(value, field: str) -> Fraction:
    """value as an exact tolerance, which must be > 0."""
    with _building(field):
        delta = as_fraction(value)
    if delta <= 0:
        raise SpecError(f"delta must be > 0 (strict inequalities), got {value}", field=field)
    return delta


def _checked(value, ok, message: str):
    """value, if ok(value); else an ArgumentError with message."""
    if not ok(value):
        raise ArgumentError(message)
    return value


def _delta_grid(params: dict) -> list:
    """params.deltas (a list or one value), or else params.delta."""
    key = "deltas" if params["deltas"] is not None else "delta"
    grid = params.get(key)
    if grid is None:
        raise SpecError("missing delta grid", field="params.deltas")
    return [_positive(v, f"params.{key}") for v in (grid if isinstance(grid, list) else [grid])]


def _filter_delta(fspec: dict, params: dict) -> Fraction:
    """The filter's own delta, or else params.delta."""
    if "delta" in fspec:
        return _positive(fspec["delta"], "params.filter.delta")
    if params.get("delta") is None:
        raise SpecError("required when params.delta is absent", field="params.filter.delta")
    return _positive(params["delta"], "params.delta")


def build_task(spec: dict) -> tuple[SymbolicSystem, dict]:
    """The spec's system and the params its task reads, each built once.

    The only check of a spec after the schema walk: the first value that
    cannot be built raises a SpecError naming its field (``system``,
    ``measures.<label>``, ``params.<key>``); a budget cut stays a
    ResourceBudgetError.  Every declared measure is built; a params key
    the task does not read is neither built nor checked.  The dict holds
    the task's TASK_PARAMS keys, defaults applied, each built by its
    builder below (sigma: see build_sigma) or else raw.
    """
    system = build_system(spec)
    group = system.group
    measures = {}
    for label, mspec in spec.get("measures", {}).items():
        with _building(f"measures.{label}"):
            measures[label] = build_measure(system, mspec)

    def measure(label, field):
        if label not in measures:
            raise SpecError(f"measure {label!r} is not declared in measures", field=field)
        return measures[label]

    task, given = spec["task"], spec["params"]
    required, optional = TASK_PARAMS[task]
    for key in required:
        if key not in given:
            raise SpecError(f"required for task {task!r}", field=f"params.{key}")
    params = {**optional, **given}
    args = {key: params[key] for key in required + tuple(optional)}
    builders = {  # in the order values are built, and so errors met
        "window": system.window,
        "F": lambda v: [group.coerce(g) for g in v],
        "cover": lambda v: build_cover(system, v),
        "sigma": lambda v: build_sigma(system, v, sized=task == "tile"),
        "stages": lambda v: [args["sigma"](n) for n in v],
        "pairs": lambda v: [(group.coerce(s), group.coerce(t)) for s, t in v],
        "deltas": lambda v: _delta_grid(params),
        "measure": lambda v: None if v is None else measure(v, "params.measure"),
        "measure_labels": lambda v: [(label, measure(label, "params.measure_labels"))
                                     for label in v],
        "L": lambda v: build_test_functions(system, v),
        "filter": lambda v: None if v is None else MeasureFilter.build(
            measure(v["measure"], "params.filter.measure"),
            build_test_functions(system, v.get("functions", ())), _filter_delta(v, params)),
        "shapes": lambda v: check_shapes([FiniteSubset(group, shape) for shape in v]),
        "candidates": lambda v: [(build_pattern(system, a), build_pattern(system, b))
                                 for a, b in v],
        "ns": lambda v: _checked(v, lambda ns: all(n >= 1 for n in ns), "n must be >= 1"),
        # a tile task's eta, tau, V and flavor pass the tilers' own checks
        "eta": check_eta,
        "tau": check_tau,
        "V": lambda v: check_V(v, args["sigma"].d, args["tau"]),
        "flavor": lambda v: _checked(v, lambda f: f in FLAVORS,
                                     f"flavor must be one of {', '.join(FLAVORS)}"),
        **dict.fromkeys(("slack", "threshold"),
                        lambda v: None if v is None else as_fraction(v)),
        "a": lambda v: None if v is None else _checked(
            as_fraction(v), lambda a: 0 < a < 1, "a must lie strictly between 0 and 1"),
    }
    if task == "partition-bound":  # eta < min p ties two keys: one helper checks all four
        checked = partition_bound_arguments(*(args[key] for key in required))
        builders = dict.fromkeys(required, lambda v: next(checked))
    for key, build in builders.items():
        if key in args:
            with _building(f"params.{key}"):
                args[key] = build(args[key])
    if "measure" in args and args["measure"] is None:
        # a and L shape only the measure side, so without a measure they would be dropped
        for key in ("a", "L"):
            if key in args and key in given:
                raise SpecError("read only with params.measure, which is absent",
                                field=f"params.{key}")
    elif task == "compare" and "L" not in given:
        # without L the sofic side would be the unfiltered topological count,
        # set against the measure entropy H_mu(V_F)/|F| on the amenable side
        raise SpecError("required for task 'compare' with a measure", field="params.L")
    return system, args

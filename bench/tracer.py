"""Span tracing of soficlab's layers, done from outside the library.

The tracer replaces each layer's public functions, at every name under
which soficlab's modules bind them (the benchmark itself calls through the
``soficlab`` package namespace, which is one of them), with a wrapper that
records a span: name, start, end, parent span and run identifier.  Spans
stay in memory until the run ends.  A layer's self time
is its spans' durations minus the time their child spans cover.  Counters
for work done (patterns, tuples, signatures, cells, flow calls, bytes) are
taken at the same boundaries from arguments and return values.

Importing this module does not import soficlab; ``install`` does.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import weakref
from collections import Counter, defaultdict

ENTROPY_FUNCTIONS = (
    "sofic_topological_trace", "sofic_measure_trace", "amenable_topological_trace",
    "amenable_measure_trace", "check_variational", "check_amenable_agreement",
    "entropy_pair_scan", "partition_count_bound", "select_dominant_measure",
)
SOFIC_FUNCTIONS = (
    "cyclic_model", "from_folner", "regular_representation", "random_free_model",
    "mult_defect", "freeness_defect", "is_good",
)
TILING_FUNCTIONS = (
    "sofic_quasi_tile", "amenable_exact_tile", "epsilon_disjoint_check", "verify_tiling",
)

# span name -> per-layer self-time metric (tiling's max-flow calls count
# as tiling time; the benchmark's own per-pass glue is the time not
# attributed to any layer)
SELF_TIME_METRICS = {
    "symbolic.language": "symbolic.language.self_s",
    "microstates.enumerate": "microstates.enumerate.self_s",
    "microstates.count_cover": "microstates.count_cover.self_s",
    "microstates.filter": "microstates.filter.self_s",
    "covers.pullback": "covers.pullback.self_s",
    "covers.min_subcover": "covers.min_subcover.self_s",
    "covers.cover_entropy": "covers.cover_entropy.self_s",
    "covers.b_nu": "covers.b_nu.self_s",
    "entropy": "entropy.self_s",
    "sofic": "sofic.self_s",
    "tiling": "tiling.self_s",
    "tiling.flow": "tiling.self_s",
    "cli": "cli.spec_s",
    "cli.write": "cli.write_s",
    "pass": "trace.unattributed_s",
}

# counters reported as they are; ratios are formed in ``pass_metrics``
COUNT_METRICS = (
    "symbolic.language.calls", "symbolic.language.patterns",
    "microstates.enumerate.tuples_outer", "microstates.enumerate.tuples_inner",
    "microstates.count_cover.signatures", "covers.pullback.cells",
    "covers.min_subcover.inexact", "entropy.rows_incomplete", "tiling.flow_calls",
    "cli.artifact_bytes",
)


def rebind(original, replacement) -> list:
    """Bind ``replacement`` wherever a soficlab module binds ``original``.

    Returns (module, name, original) triples for undoing the change.
    """
    undo = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "soficlab"
                                  or module_name.startswith("soficlab.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time covered by its child spans.

    ``spans`` holds records (span_id, parent_id, name, start, end, run_id).
    Child intervals are clipped to the parent's interval before the union.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None and s[1] in by_id:
            children[s[1]].append(s)
    out = {}
    for s in spans:
        start, end = s[3], s[4]
        clipped = [(max(c[3], start), min(c[4], end)) for c in children[s[0]]]
        out[s[0]] = (end - start) - covered_length([iv for iv in clipped if iv[1] > iv[0]])
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # [span_id, parent_id, name, start, end, run_id]
        self.counts = Counter()
        self.run_id = None
        self._stack = []
        self._restore = []
        self._languages_seen = weakref.WeakKeyDictionary()

    # recording -------------------------------------------------------------

    def _open(self, name):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, name,
               0.0, 0.0, self.run_id]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[4] = time.perf_counter()
        self._stack.pop()

    def run_pass(self, run_id, fn, *args):
        """Call fn(*args) under a root span named 'pass'; returns its result.

        Counters restart with each pass.
        """
        self.run_id = run_id
        self.counts = Counter()
        rec = self._open("pass")
        try:
            return fn(*args)
        finally:
            self._close(rec)

    def wrap(self, fn, name, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(tracer, args, kwargs, result)
                return result
            finally:
                tracer._close(rec)

        return traced

    # installation ----------------------------------------------------------

    def install(self):
        """Wrap every layer function at each name soficlab's modules bind it to."""
        for module_name, attr, name, observe in _targets():
            owner = importlib.import_module(module_name)
            if "." in attr:  # a method, looked up on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(original, name, observe))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            self._restore += rebind(original, self.wrap(original, name, observe))

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # results ---------------------------------------------------------------

    def pass_metrics(self, run_id) -> dict:
        """Per-layer metrics of the pass just run under ``run_id``."""
        counts = self.counts
        spans = [s for s in self.spans if s[5] == run_id]
        selfs = self_times(spans)
        out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        for s in spans:
            out[SELF_TIME_METRICS[s[2]]] += selfs[s[0]]
        for key in COUNT_METRICS:
            out[key] = counts[key]
        out["symbolic.language.hit_ratio"] = _ratio(counts["symbolic.language.hits"],
                                                    counts["symbolic.language.calls"])
        out["microstates.collapse_ratio"] = _ratio(counts["microstates.count_cover.signatures"],
                                                   counts["microstates.count_cover.tuples_in"])
        out["microstates.filter.kept_ratio"] = _ratio(counts["microstates.filter.kept"],
                                                      counts["microstates.filter.tuples_in"])
        out["trace.spans"] = len(spans)
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, run_id in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "run": run_id}) + "\n")


def _ratio(num, den) -> float:
    """num / den, or 0.0 when the layer did no work in the pass."""
    return num / den if den else 0.0


# observers: (tracer, args, kwargs, result) -> None ---------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_language(tracer, args, kwargs, result):
    c = tracer.counts
    c["symbolic.language.calls"] += 1
    # soficlab caches each window's language on the system object, so a
    # window seen before on the same system is a cache hit
    seen = tracer._languages_seen.setdefault(args[0], set())
    key = _arg(args, kwargs, 1, "window").elements
    if key in seen:
        c["symbolic.language.hits"] += 1
    else:
        seen.add(key)
        c["symbolic.language.patterns"] += len(result)


def _observe_enumerate(tracer, args, kwargs, result):
    inner, outer = result
    tracer.counts["microstates.enumerate.tuples_inner"] += len(inner)
    tracer.counts["microstates.enumerate.tuples_outer"] += len(outer)


def _observe_count_cover(tracer, args, kwargs, result):
    # for partition covers the count is the number of distinct signatures
    tracer.counts["microstates.count_cover.tuples_in"] += len(_arg(args, kwargs, 0, "M"))
    tracer.counts["microstates.count_cover.signatures"] += result


def _observe_filter(tracer, args, kwargs, result):
    tracer.counts["microstates.filter.tuples_in"] += len(_arg(args, kwargs, 0, "M"))
    tracer.counts["microstates.filter.kept"] += len(result)


def _observe_pullback(tracer, args, kwargs, result):
    tracer.counts["covers.pullback.cells"] += len(result)


def _observe_min_subcover(tracer, args, kwargs, result):
    tracer.counts["covers.min_subcover.inexact"] += not result.exact


def _observe_entropy(tracer, args, kwargs, result):
    rows = getattr(result, "rows", ())
    tracer.counts["entropy.rows_incomplete"] += sum(
        bool(getattr(r, "incomplete", False)) for r in rows)


def _observe_flow(tracer, args, kwargs, result):
    tracer.counts["tiling.flow_calls"] += 1


def _observe_write(tracer, args, kwargs, result):
    tracer.counts["cli.artifact_bytes"] += os.path.getsize(result)


def _targets():
    """(module, attribute, span name, observer) for every traced function."""
    out = [
        ("soficlab.symbolic", "SymbolicSystem.language_values", "symbolic.language",
         _observe_language),
        ("soficlab.microstates", "enumerate_microstates_both", "microstates.enumerate",
         _observe_enumerate),
        ("soficlab.microstates", "count_cover", "microstates.count_cover",
         _observe_count_cover),
        ("soficlab.microstates", "filter_microstates", "microstates.filter", _observe_filter),
        ("soficlab.covers", "pullback_iterate", "covers.pullback", _observe_pullback),
        ("soficlab.covers", "min_subcover", "covers.min_subcover", _observe_min_subcover),
        ("soficlab.covers", "cover_entropy", "covers.cover_entropy", None),
        ("soficlab.covers", "partial_cover_count_of", "covers.b_nu", None),
        ("soficlab.tiling", "maximum_flow", "tiling.flow", _observe_flow),
        ("soficlab.cli", "run", "cli", None),
        ("soficlab.cli", "ArtifactWriter.csv", "cli.write", _observe_write),
        ("soficlab.cli", "ArtifactWriter.json", "cli.write", _observe_write),
    ]
    out += [("soficlab.entropy", f, "entropy", _observe_entropy) for f in ENTROPY_FUNCTIONS]
    out += [("soficlab.sofic", f, "sofic", None) for f in SOFIC_FUNCTIONS]
    out += [("soficlab.tiling", f, "tiling", None) for f in TILING_FUNCTIONS]
    return out

"""soficlab's result records are NamedTuples.  These tests pin what a
NamedTuple could silently change: the records that leave a field out of
equality and hashing still do, no record takes attribute assignment, and
a Pattern still checks its length, also when built by _make or _replace.
The MicrostateCounts tests in test_microstates.py pin its own."""

import importlib
import pkgutil

import pytest

import soficlab
from soficlab import (ArgumentError, FiniteSubset, Pattern, cyclic_model, min_subcover,
                      pullback_iterate, sofic_topological_trace)

# every public record class, by the module that defines it
RECORDS = {
    "soficlab.covers": {"CoverEntropyResult", "MinCoverResult"},
    "soficlab.entropy": {"AgreementReport", "AgreementRow", "AmenableRow", "AmenableTrace",
                         "DominantMeasureResult", "EntropyTrace", "PairScanReport",
                         "PairScanRow", "PartitionCountResult", "TraceRow",
                         "VariationalReport", "VariationalRow"},
    "soficlab.microstates": {"MeasureFilter", "MicrostateCounts", "TupleCounts"},
    "soficlab.sofic": {"GoodnessCertificate"},
    "soficlab.symbolic": {"Pattern"},
    "soficlab.tiling": {"QuasiTiling", "TilingRecord"},
}


def _public_tuple_classes() -> dict:
    found = {}
    for info in pkgutil.iter_modules(soficlab.__path__, "soficlab."):
        module = importlib.import_module(info.name)
        names = {name for name, obj in vars(module).items()
                 if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
                 and obj.__module__ == info.name and not name.startswith("_")}
        if names:
            found[info.name] = names
    return found


def _record_classes():
    return [getattr(importlib.import_module(module), name)
            for module, names in sorted(RECORDS.items()) for name in sorted(names)]


def test_every_public_record_is_a_namedtuple():
    assert _public_tuple_classes() == RECORDS


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda cls: cls.__name__)
def test_record_rejects_attribute_assignment(cls):
    record = tuple.__new__(cls, (0,) * len(cls._fields))  # past Pattern's length check
    for field in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    assert tuple(record) == (0,) * len(cls._fields)


def test_trace_row_leaves_method_out_of_eq_and_hash(gm, gm_origin):
    sigma = cyclic_model(gm.group, 6)
    row = sofic_topological_trace(gm, gm_origin, [1], "0.3", [sigma],
                                  gm.interval_window(-2, 2)).rows[0]
    other = row._replace(method="scan")
    assert row.method == "dp"
    assert row == other and not row != other
    assert hash(row) == hash(other) and {other: 1}[row] == 1
    assert "method='dp'" in repr(row) and "method='scan'" in repr(other)
    assert row != row._replace(count_outer=row.count_outer + 1)
    assert row != row._replace(incomplete=True)
    assert row != tuple(row) and tuple(row) != row


def test_min_cover_result_leaves_nodes_out_of_eq_and_hash(gm, gm_origin):
    got = min_subcover(pullback_iterate(gm_origin, FiniteSubset(gm.group, [0, 1, 2])))
    other = got._replace(nodes=got.nodes + 7)
    assert got.exact
    assert got == other and not got != other
    assert hash(got) == hash(other) and {other: 1}[got] == 1
    assert f"nodes={got.nodes}" in repr(got)
    assert got != got._replace(exact=False)
    assert got != got._replace(count=got.count + 1)
    assert got != tuple(got) and tuple(got) != got


def test_pattern_checks_its_length(gm):
    w = gm.interval_window(0, 1)
    p = Pattern(w, ("0", "1"))
    assert p == gm.pattern(w, ("0", "1"))
    assert p._replace(values=("1", "0")) == Pattern._make((w, ("1", "0")))
    for build in (lambda: Pattern(w, ("0",)), lambda: p._replace(values=("0",)),
                  lambda: Pattern._make((w, ("0", "1", "0")))):
        with pytest.raises(ArgumentError, match="pattern values must match window size"):
            build()

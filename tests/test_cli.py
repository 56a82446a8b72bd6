import builtins
import copy
import hashlib
import io
import json
import math
import os
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soficlab._frontier
import soficlab.cli
import soficlab.specfile
from soficlab import (MarkovMeasure, ResourceBudgetError, SpecError, TestFunction,
                      cyclic_model, golden_mean_system, origin_partition, sofic_measure_trace)
from soficlab.cli import main, run, validate
from soficlab.specfile import (SCHEMA, TASK_PARAMS, _best_match, _check_schema, _violations,
                               load_spec)

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
ALL_SPECS = sorted(SPEC_DIR.glob("*.spec"))


def numeric_body(path: Path) -> str:
    return "".join(line for line in path.read_text().splitlines(keepends=True)
                   if not line.startswith("#"))


def test_bundled_specs_present():
    names = {p.name for p in ALL_SPECS}
    assert "goldenmean_compare.spec" in names
    assert "fullshift_variational.spec" in names


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda p: p.stem)
def test_every_bundled_spec_validates(spec):
    assert validate(spec) == []


# sha256 of each bundled spec's artifact bodies (CSV: the non-# lines; JSON:
# the whole file), keyed by spec and artifact name after the prefix.  A change
# here is a change of the published numbers or schemas and must be deliberate.
PINNED_BODIES = {
    "cyclic_tile": {
        "coverage.csv":
            "e05393e1c7ed3636274d7c73702f6abf516482c57f97588c9db9550be6002d74",
        "tiling.json":
            "448414f582c9cf601a0ef27666a13809d9b77f4c726136a0057bf462573987ae",
    },
    "fullshift_microstates": {
        "microstates.csv":
            "ab60f5fe97f17c79bdf026cbbced3bbccd48eb13458c66e97a71c0fe531b1fc6",
    },
    "fullshift_pairs": {
        "pairs.json":
            "61ae36e1c1a5b7bd72d9bb28f64440e33e1591f3276d02ac8c962739ffb267f4",
    },
    "fullshift_sofic_trace": {
        "trace.csv":
            "237e729a6d6530c7ab6473b9944e44a2dacd73fc443375c8e8c4008a157281e5",
    },
    "fullshift_variational": {
        "variational.csv":
            "70ce9449d2301f35f4bf83d35174abdee4f9b1a4132c9d820707cafdfc6007b3",
        "variational_report.json":
            "bda6844da89603ea4943897d834d0efc6383f92c16cd6bc8c8a05b2afaf8a624",
    },
    "goldenmean_amenable": {
        "amenable.csv":
            "b4989a271e7bb32528bbb362985f299e316e3817e0d160e39e23c21f93f9e3d0",
    },
    "goldenmean_compare": {
        "compare.csv":
            "948baa596e5196f26f643e20db987f869a61cc9d9a7c4297bfadc6145427b4d9",
        "compare_report.json":
            "ba23f69532964373a58fc63101d6a5dc34be582c9c357a2f8b8be358b915a639",
    },
    "goldenmean_defects": {
        "defects.csv":
            "6234d74e4db11cae401cdfd3b3bb17000a69225a27bd972de3cb90012132d7f8",
    },
    "goldenmean_language": {
        "language.csv":
            "838a4c7cfd059337f7887ed40b213170389a1af968633acfb70f3ca9d7adda94",
        "language_summary.json":
            "1bb28b1c99a3d9eb2a7b42fd2fb60d4261eeae9cc09de889c891c0391a9f496b",
    },
    "partition_bound": {
        "partition_bound.csv":
            "5785b255eadc0e30a84b7860e86ea14c7651fda598a28b4aec9ba3f226ec9d5e",
    },
}


def artifact_body(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".csv":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"#"))
    return data


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda p: p.stem)
def test_every_bundled_spec_runs_clean(spec, tmp_path):
    assert run(spec, out_dir=tmp_path) == 0
    digests = {path.name[len(spec.stem) + 1:]: hashlib.sha256(artifact_body(path)).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == PINNED_BODIES[spec.stem]


def test_goldenmean_compare_final_gap(tmp_path):
    assert run(SPEC_DIR / "goldenmean_compare.spec", out_dir=tmp_path) == 0
    rows = numeric_body(tmp_path / "goldenmean_compare_compare.csv").splitlines()[1:]
    final = rows[-1].split(",")
    assert float(final[6]) < 0.05  # gap column
    assert final[7] == "1"  # bound_ok
    report = json.loads((tmp_path / "goldenmean_compare_compare_report.json").read_text())
    assert report["ok"] is True


def test_fullshift_variational_gap_rows(tmp_path):
    assert run(SPEC_DIR / "fullshift_variational.spec", out_dir=tmp_path) == 0
    rows = numeric_body(tmp_path / "fullshift_variational_variational.csv").splitlines()[1:]
    gap_at_055 = [float(r.split(",")[-1]) for r in rows if r.split(",")[1] == "0.55"]
    assert gap_at_055 and all(g == 0.0 for g in gap_at_055)
    assert all(r.split(",")[-2] == "1" for r in rows)  # ordered_ok everywhere


def test_tile_artifact_centers_byte_exact(tmp_path):
    assert run(SPEC_DIR / "cyclic_tile.spec", out_dir=tmp_path) == 0
    payload = (tmp_path / "cyclic_tile_tiling.json").read_text()
    assert '"centers": [\n    [\n      1,\n      4,\n      7,\n      10\n    ]\n  ]' \
        in payload or json.loads(payload)["centers"] == [[1, 4, 7, 10]]
    data = json.loads(payload)
    assert data["verification"]["all_ok"] is True


def test_reproducibility_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert run(SPEC_DIR / "fullshift_sofic_trace.spec", out_dir=out) == 0
    fa = a / "fullshift_sofic_trace_trace.csv"
    fb = b / "fullshift_sofic_trace_trace.csv"
    assert fa.read_bytes() == fb.read_bytes()


def test_outputs_embed_hash_and_version(tmp_path):
    run(SPEC_DIR / "goldenmean_language.spec", out_dir=tmp_path)
    text = (tmp_path / "goldenmean_language_language.csv").read_text()
    assert "# soficlab 0.1.0" in text
    assert "# spec_sha256=" in text


def test_missing_alphabet_exit_2_names_field(tmp_path, capsys):
    spec = json.loads((SPEC_DIR / "goldenmean_compare.spec").read_text())
    del spec["system"]["alphabet"]
    bad = tmp_path / "bad.spec"
    bad.write_text(json.dumps(spec))
    code = main(["validate", "--spec", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "system.alphabet" in err


def test_spec_schema_passes_its_metaschema():
    """SCHEMA is a valid Draft 2020-12 schema, so jsonschema can be the walker's oracle."""
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


def _drop_alphabet(spec):
    del spec["system"]["alphabet"]


def _unknown_task(spec):
    spec["task"] = "sample"


def _rank_zero(spec):
    spec["system"]["group"]["rank_or_order"] = 0


def _extra_root_key(spec):
    spec["seed"] = 3


def _bool_rank(spec):
    spec["system"]["group"]["rank_or_order"] = True  # a bool is no integer


def _numeric_forbidden_value(spec):
    spec["system"]["forbidden"] = [{"window": [0, 1], "values": ["1", 1]}]


def _float_window_element(spec):
    spec["system"]["forbidden"][0]["window"][0] = 1.5  # no anyOf alternative fits


def _float_in_window_vector(spec):
    spec["system"]["forbidden"][0]["window"][0] = [1.5]  # the array alternative is nearest


def _two_faults(spec):
    # found first: system.alphabet; the most relevant (shallowest): the root key
    spec["system"]["alphabet"] = []
    spec["seed"] = 3


def _int_F(spec):
    spec["params"]["F"] = 5


def _string_ns(spec):
    spec["params"]["ns"] = "8"


def _cover_drop_empty(spec):
    spec["params"]["cover"]["drop_empty"] = "false"  # a removed key


def _cover_misspelt_key(spec):
    spec["params"]["cover"] = {"kind": "pattern-sets", "window": [[0]], "elemnts": [[["0"]]]}


@pytest.mark.parametrize("corrupt, field", [
    (_drop_alphabet, "system.alphabet"),
    (_unknown_task, "task"),
    (_rank_zero, "system.group.rank_or_order"),
    (_bool_rank, "system.group.rank_or_order"),
    (_extra_root_key, "<root>"),
    (_numeric_forbidden_value, "system.forbidden.0.values.1"),
    (_float_window_element, "system.forbidden.0.window.0"),
    (_float_in_window_vector, "system.forbidden.0.window.0.0"),
    (_two_faults, "<root>"),
    (_int_F, "params.F"),
    (_string_ns, "params.ns"),
    (_cover_drop_empty, "params.cover"),
    (_cover_misspelt_key, "params.cover"),
], ids=lambda x: getattr(x, "__name__", x))
def test_schema_errors_match_jsonschema_validate(tmp_path, corrupt, field):
    """The spec walker reports the error jsonschema.validate picks."""
    spec = json.loads((SPEC_DIR / "goldenmean_compare.spec").read_text())
    corrupt(spec)
    with pytest.raises(jsonschema.ValidationError) as reference:
        jsonschema.validate(spec, SCHEMA)
    bad = tmp_path / "bad.spec"
    bad.write_text(json.dumps(spec))
    with pytest.raises(SpecError) as got:
        load_spec(bad)
    assert got.value.field == field
    assert str(got.value) == f"schema violation at {field}: {reference.value.message}"


@pytest.mark.parametrize("corrupt, field", [(_int_F, "params.F"), (_string_ns, "params.ns")],
                         ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_param_of_another_json_type_exits_2(tmp_path, capsys, corrupt, field, command):
    """A param of the wrong JSON type is a schema violation that names it,
    in validate and in run, not a traceback."""
    spec = json.loads((SPEC_DIR / "goldenmean_compare.spec").read_text())
    corrupt(spec)
    bad = tmp_path / "bad.spec"
    bad.write_text(json.dumps(spec))
    out = ["--out", str(tmp_path)] if command == "run" else []
    assert main([command, "--spec", str(bad), *out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error ({field}): schema violation at {field}:")


def test_every_task_param_has_a_json_type():
    """The schema types every key a task reads, and only those."""
    read = {key for required, optional in TASK_PARAMS.values() for key in (*required, *optional)}
    typed = set(SCHEMA["properties"]["params"]["properties"])
    assert typed == read | {"delta"}  # deltas falls back to a single delta


def _reference_field(error: jsonschema.ValidationError) -> str:
    """The field load_spec names for jsonschema's best-match error."""
    parts = [str(p) for p in error.absolute_path]
    if error.validator == "required":
        parts.append(error.message.split("'")[1])
    return ".".join(parts) or "<root>"


def _nodes(node, path=()):
    """(path, value) of every value in a JSON document, the root first."""
    yield path, node
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# a value of each JSON type, with 1.0 (an integer in Draft 2020-12) beside 1.5
_OTHER_VALUES = [False, True, 1.0, 1.5, 0, "1", [], ["0"], {}, {"kind": "lattice"}]
_NEW_KEYS = ["seed", "label", "task", "kind", "extra"]


def _mutate(data, spec):
    """Drop a key or item, add a key, empty an array or retype a value, at a
    drawn place of spec."""
    nodes = list(_nodes(spec))
    kind = data.draw(st.sampled_from(["drop", "add", "empty", "retype"]))
    if kind == "add":
        path = data.draw(st.sampled_from([p for p, v in nodes if isinstance(v, dict)]))
        value = copy.deepcopy(data.draw(st.sampled_from(_OTHER_VALUES)))
        _at(spec, path)[data.draw(st.sampled_from(_NEW_KEYS))] = value
    elif kind == "empty":
        arrays = [p for p, v in nodes if isinstance(v, list)]
        if arrays:
            path = data.draw(st.sampled_from(arrays))
            _at(spec, path[:-1])[path[-1]] = []
    else:
        path = data.draw(st.sampled_from([p for p, _ in nodes[1:]]))
        parent = _at(spec, path[:-1])
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(_OTHER_VALUES)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_SPECS), st.integers(1, 3), st.data())
def test_mutated_specs_get_jsonschema_verdict(tmp_path_factory, spec_path, mutations, data):
    """load_spec accepts what jsonschema.validate accepts and otherwise
    names its best-match field and message."""
    spec = json.loads(spec_path.read_text())
    for _ in range(mutations):
        _mutate(data, spec)
    bad = tmp_path_factory.getbasetemp() / "mutated.spec"
    bad.write_text(json.dumps(spec))
    try:
        jsonschema.validate(spec, SCHEMA)
    except jsonschema.ValidationError as reference:
        field = _reference_field(reference)
        with pytest.raises(SpecError) as got:
            load_spec(bad)
        assert got.value.field == field
        assert str(got.value) == f"schema violation at {field}: {reference.message}"
    else:
        assert load_spec(bad) == spec


@pytest.mark.parametrize("schema, instance", [
    # an anyOf error gives way to another error at its path
    ({"anyOf": [{"type": "string"}], "minItems": 1}, []),
    ({"minItems": 1, "anyOf": [{"type": "string"}]}, []),
    # in an anyOf context, an error whose instance has its schema's type is nearest
    ({"anyOf": [{"type": "string"}, {"type": "integer", "minimum": 5}]}, 3),
    ({"anyOf": [{"type": "integer", "minimum": 5}, {"type": "string"}]}, 3),
    # two alternatives fail alike: the anyOf error itself
    ({"anyOf": [{"type": "string"}, {"type": "array"}]}, 3),
    # nested anyOf, the deepest error wins
    ({"anyOf": [{"type": "array", "items": {"anyOf": [{"type": "integer", "minimum": 2},
                                                      {"type": "string"}]}},
                {"type": "string"}]}, [3, 1]),
    ({"type": "object", "required": ["a", "b"], "additionalProperties": False}, {"c": 1}),
    ({"type": "integer", "minimum": 1}, 0.5),
    ({"enum": ["a"]}, True),
])
def test_walker_ranks_as_best_match_on_schema_fragments(schema, instance):
    """Relevance rules that SCHEMA's own shapes never put to the test."""
    _check_schema(schema)
    reference = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(schema).iter_errors(instance))
    error, path = _best_match(_violations(instance, schema))
    assert (error.message, list(path)) == (reference.message, list(reference.absolute_path))


@pytest.mark.parametrize("fragment", [
    {"type": "object", "maxProperties": 3},
    {"type": "null"},
    {"additionalProperties": {"type": "string"}},
    {"enum": ["a", 1]},
    {"type": "object", "properties": {"a": {"anyOf": [{"pattern": "x"}]}}},
])
def test_schema_keywords_outside_the_walker_are_refused(fragment):
    with pytest.raises(ValueError):
        _check_schema(fragment)


def _unreadable(tmp_path, case):
    if case == "missing":
        return tmp_path / "absent.spec"
    if case == "directory":
        return tmp_path
    path = tmp_path / "latin1.spec"
    path.write_bytes(b'{"task": "language", "label": "caf\xe9"}')
    return path


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_spec_exits_2_with_one_error_line(tmp_path, capsys, case, command):
    path = _unreadable(tmp_path, case)
    assert main([command, "--spec", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error (<file>): cannot read spec file")


def test_integral_float_rank_is_a_diagnostic(tmp_path, capsys):
    """1.0 passes the schema (an integer in Draft 2020-12); building the
    group from it then fails as a diagnostic, not a traceback."""
    spec = json.loads((SPEC_DIR / "goldenmean_compare.spec").read_text())
    spec["system"]["group"]["rank_or_order"] = 1.0
    bad = tmp_path / "bad.spec"
    bad.write_text(json.dumps(spec))
    assert load_spec(bad) == spec
    assert [d.split(":")[0] for d in validate(bad)] == ["system"]
    assert main(["run", "--spec", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error (system): bad system:")


def test_run_reads_the_spec_once(tmp_path, monkeypatch):
    """The spec_sha256 header hashes the very bytes that were parsed."""
    spec = SPEC_DIR / "goldenmean_language.spec"
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == spec.resolve():
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert run(spec, out_dir=tmp_path) == 0
    assert len(opened) == 1
    digest = hashlib.sha256(spec.read_bytes()).hexdigest()
    text = (tmp_path / "goldenmean_language_language.csv").read_text()
    assert f"# spec_sha256={digest}" in text


def test_zero_delta_rejected(tmp_path, capsys):
    spec = json.loads((SPEC_DIR / "goldenmean_compare.spec").read_text())
    spec["params"]["deltas"] = ["0"]
    bad = tmp_path / "bad.spec"
    bad.write_text(json.dumps(spec))
    assert main(["validate", "--spec", str(bad)]) == 2
    assert "delta must be > 0" in capsys.readouterr().err


def test_unknown_group_element_rejected(tmp_path, capsys):
    spec = json.loads((SPEC_DIR / "goldenmean_compare.spec").read_text())
    spec["params"]["F"] = [[1, 2]]  # wrong rank for Z
    bad = tmp_path / "bad.spec"
    bad.write_text(json.dumps(spec))
    assert main(["validate", "--spec", str(bad)]) == 2


def test_valid_spec_empty_diagnostics():
    assert validate(SPEC_DIR / "goldenmean_compare.spec") == []


def test_subcommand_task_gate(tmp_path, capsys):
    code = main(["sofic", "--spec", str(SPEC_DIR / "cyclic_tile.spec"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "requires task 'defects'" in capsys.readouterr().err


def test_subcommand_reads_the_spec_once(tmp_path, monkeypatch):
    """A task-gated subcommand checks the task on the read it runs."""
    reads = []
    real = soficlab.cli.read_spec

    def counting_read(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(soficlab.cli, "read_spec", counting_read)
    monkeypatch.setattr(soficlab.specfile, "read_spec", counting_read)
    assert main(["microstates", "--spec", str(SPEC_DIR / "fullshift_microstates.spec"),
                 "--out", str(tmp_path)]) == 0
    assert len(reads) == 1


def test_subcommand_aliases_run(tmp_path):
    assert main(["sofic", "--spec", str(SPEC_DIR / "goldenmean_defects.spec"),
                 "--out", str(tmp_path)]) == 0
    assert main(["microstates", "--spec", str(SPEC_DIR / "fullshift_microstates.spec"),
                 "--out", str(tmp_path)]) == 0
    assert main(["tile", "--spec", str(SPEC_DIR / "cyclic_tile.spec"),
                 "--out", str(tmp_path)]) == 0


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SOFICLAB_OUT", str(tmp_path / "envdir"))
    assert main(["run", "--spec", str(SPEC_DIR / "goldenmean_language.spec")]) == 0
    assert (tmp_path / "envdir" / "goldenmean_language_language.csv").exists()


def test_run_validate_flag(tmp_path):
    assert main(["run", "--spec", str(SPEC_DIR / "goldenmean_compare.spec"),
                 "--validate"]) == 0


def test_budget_exhaustion_exit(tmp_path, capsys):
    code = main(["run", "--spec", str(SPEC_DIR / "goldenmean_language.spec"),
                 "--out", str(tmp_path), "--budget-nodes", "3"])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_microstates_budget_cut_reports_its_upper_bound(tmp_path, capsys, monkeypatch):
    """A cut that found a bound (an inexact product-cover search) keeps it
    through the stage context, and the error line names it as a bound."""
    def cut(*args, **kwargs):
        raise ResourceBudgetError("count_cover search budget exceeded", upper_bound=7)

    monkeypatch.setattr(soficlab.cli, "count_microstates", cut)
    code = main(["run", "--spec", str(SPEC_DIR / "fullshift_microstates.spec"),
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "budget exhausted in task microstates: stage d=4" in err
    assert "(upper bound 7, not a count)" in err


def test_microstates_cut_while_reading_m_keeps_stage_context(tmp_path, capsys, monkeypatch):
    """On the DP path m is counted when the task reads it: a cut there still
    names the stage, and its bound, and writes no CSV."""
    spec = SPEC_DIR / "fullshift_microstates.spec"
    # the signature DP of d = 4 spends 64 units, reading m spends 136 more
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path),
                 "--budget-nodes", "100"]) == 1
    err = capsys.readouterr().err
    assert "stage d=4, delta=0.01: merged-state DP budget exceeded" in err
    assert not list(tmp_path.glob("*.csv"))

    def cut(*args, **kwargs):
        raise ResourceBudgetError("merged-state DP budget exceeded", upper_bound=9)

    monkeypatch.setattr(soficlab._frontier._FrontierDP, "sequences", cut)
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "budget exhausted in task microstates: stage d=4" in err
    assert "(upper bound 9, not a count)" in err


@pytest.mark.parametrize("budget, d", [(10, 6), (14, 8)])
def test_variational_budget_cut_names_its_stage(tmp_path, capsys, budget, d):
    """A cut in the variational task names its stage's d and delta, as the
    microstates task does, and writes no CSV.  The stages are counted
    largest cap first, but the stage named is the first in input order that
    the budget cuts: at 10 units every stage is cut, at 14 d = 6 finishes
    and d = 8 and d = 10 are cut."""
    assert main(["run", "--spec", str(SPEC_DIR / "fullshift_variational.spec"),
                 "--out", str(tmp_path), "--budget-nodes", str(budget)]) == 1
    err = capsys.readouterr().err
    assert (f"budget exhausted in task variational: stage d={d}, delta=0.2: "
            "merged-state DP budget exceeded") in err
    assert not list(tmp_path.glob("*.csv"))


def test_neg_inf_rendered_as_token(tmp_path):
    spec = json.loads((SPEC_DIR / "fullshift_sofic_trace.spec").read_text())
    spec["params"]["stages"] = [5]
    spec["params"]["deltas"] = ["0.01"]
    spec["out"] = {"prefix": "inf"}
    p = tmp_path / "inf.spec"
    p.write_text(json.dumps(spec))
    assert run(p, out_dir=tmp_path) == 0
    body = numeric_body(tmp_path / "inf_trace.csv")
    assert "-inf" in body  # inner mode is empty at this tolerance


def test_defects_csv_schema(tmp_path):
    run(SPEC_DIR / "goldenmean_defects.spec", out_dir=tmp_path)
    lines = numeric_body(tmp_path / "goldenmean_defects_defects.csv").splitlines()
    assert lines[0] == "i,d_i,pair,mult_defect,freeness_defect"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "10"


def test_amenable_csv_bnu_column(tmp_path):
    run(SPEC_DIR / "goldenmean_amenable.spec", out_dir=tmp_path)
    lines = numeric_body(tmp_path / "goldenmean_amenable_amenable.csv").splitlines()
    assert lines[0] == "n,size_F,count,entropy,value,b_nu"
    assert all(int(line.split(",")[-1]) >= 1 for line in lines[1:])


def test_budget_nodes_below_one_rejected(tmp_path, capsys):
    code = main(["run", "--spec", str(SPEC_DIR / "goldenmean_language.spec"),
                 "--out", str(tmp_path), "--budget-nodes", "0"])
    assert code == 2
    assert "(--budget-nodes)" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_compare_budget_cut_is_inconclusive(tmp_path):
    code = main(["run", "--spec", str(SPEC_DIR / "goldenmean_compare.spec"),
                 "--out", str(tmp_path), "--budget-nodes", "300"])
    assert code == 1
    rows = numeric_body(tmp_path / "goldenmean_compare_compare.csv").splitlines()[1:]
    assert rows and all(r.split(",")[7] == "0" for r in rows)  # bound_ok
    report = json.loads((tmp_path / "goldenmean_compare_compare_report.json").read_text())
    assert report["ok"] is False
    assert report["verdict"] == "inconclusive: budget exhausted"


def test_sofic_trace_budget_cut_warns_and_fails(tmp_path, capsys):
    code = main(["run", "--spec", str(SPEC_DIR / "fullshift_sofic_trace.spec"),
                 "--out", str(tmp_path), "--budget-nodes", "50"])
    assert code == 1
    err = capsys.readouterr().err
    assert "warning: budget exhausted at stage i=0 (d=2" in err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_json_artifacts_are_strict_json(tmp_path):
    spec = json.loads((SPEC_DIR / "fullshift_variational.spec").read_text())
    spec["measures"]["fair"]["probs"] = ["0.9", "0.1"]
    spec["params"].update(deltas=["0.01"], stages=[6])
    p = tmp_path / "skewed.spec"
    p.write_text(json.dumps(spec))
    assert run(p, out_dir=tmp_path) == 0
    text = (tmp_path / "fullshift_variational_variational_report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["worst_gap"] == "inf"  # filtered count 0 against a positive one


PARRY_TRANSITION = {"0": {"0": 0.6180339887498949, "1": 0.3819660112501051},
                    "1": {"0": 1, "1": 0}}


def _parry_compare_spec(tmp_path, with_L):
    spec = json.loads((SPEC_DIR / "goldenmean_compare.spec").read_text())
    spec["measures"] = {"parry": {"kind": "markov", "transition": PARRY_TRANSITION}}
    spec["params"].update(measure="parry", deltas=["0.1"], ns=[6, 8])
    if with_L:  # the rare symbol at the origin
        spec["params"]["L"] = [{"window": [[0]], "values": ["1"]}]
    p = tmp_path / "parry_compare.spec"
    p.write_text(json.dumps(spec))
    return p


def test_compare_filters_the_sofic_side_by_L(tmp_path):
    run(_parry_compare_spec(tmp_path, with_L=True), out_dir=tmp_path)
    lines = numeric_body(tmp_path / "goldenmean_compare_compare.csv").splitlines()
    assert lines[0].split(",")[4] == "value_sofic_outer"
    written = {int(r.split(",")[1]): r.split(",")[4] for r in lines[1:]}
    gm = golden_mean_system()
    parry = MarkovMeasure.stationary(gm, PARRY_TRANSITION)
    L = [TestFunction.indicator(gm.pattern(gm.window([0]), ("1",)))]
    window = gm.interval_window(-2, 2)
    assert sorted(written) == [6, 8]
    for d, value in written.items():
        trace = sofic_measure_trace(gm, origin_partition(gm), parry, L, [1], "0.1",
                                    [cyclic_model(gm.group, d)], window)
        assert value == repr(trace.rows[0].value_outer)


def test_compare_with_measure_needs_L(tmp_path, capsys):
    code = main(["run", "--spec", str(_parry_compare_spec(tmp_path, with_L=False)),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "params.L" in capsys.readouterr().err
    assert not any(p.suffix == ".csv" for p in tmp_path.iterdir())


def _edited_spec(tmp_path, name, edit):
    spec = json.loads((SPEC_DIR / name).read_text())
    edit(spec)
    p = tmp_path / "edited.spec"
    p.write_text(json.dumps(spec))
    return p


def _argv(command, path, tmp_path):
    return [command, "--spec", str(path)] + (["--out", str(tmp_path)] if command == "run" else [])


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("name, field, edit", [
    ("goldenmean_amenable.spec", "params.measure",
     lambda spec: spec["params"].update(measure="chain")),
    ("fullshift_variational.spec", "params.measure_labels",
     lambda spec: spec["params"]["measure_labels"].append("chain")),
    ("fullshift_microstates.spec", "params.filter.measure",
     lambda spec: spec["params"].update(filter={"measure": "chain", "delta": "0.1"})),
], ids=["measure", "measure_labels", "filter.measure"])
def test_undeclared_measure_label_exits_2_naming_its_field(tmp_path, capsys, command, name,
                                                           field, edit):
    """A label missing from measures is a diagnostic, not a KeyError traceback."""
    path = _edited_spec(tmp_path, name, edit)
    assert main(_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error ({field}): measure 'chain' is not declared in measures\n")
    assert not any(p.suffix == ".csv" for p in tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "validate"])
def test_filter_without_a_tolerance_exits_2(tmp_path, capsys, command):
    """A filter with no delta of its own and no params.delta is refused up
    front; given either, the spec validates."""
    fair = {"kind": "bernoulli", "probs": ["0.5", "0.5"]}

    def edit(spec):
        spec["measures"] = {"fair": fair}
        spec["params"]["filter"] = {"measure": "fair"}

    path = _edited_spec(tmp_path, "fullshift_microstates.spec", edit)
    assert main(_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error (params.filter.delta): required")
    for tolerance in ({"filter": {"measure": "fair", "delta": "0.1"}}, {"delta": "0.1"}):
        path = _edited_spec(tmp_path, "fullshift_microstates.spec",
                            lambda spec: (edit(spec), spec["params"].update(tolerance)))
        assert validate(path) == []


@pytest.mark.parametrize("missing", ["window", "elements"])
def test_pattern_sets_cover_without_its_keys_exits_2(tmp_path, capsys, missing):
    cover = {"kind": "pattern-sets", "window": [[0]], "elements": [[["0"]], [["1"]]]}
    del cover[missing]
    path = _edited_spec(tmp_path, "fullshift_microstates.spec",
                        lambda spec: spec["params"].update(cover=cover))
    assert main(_argv("run", path, tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error (params.cover.{missing}): a pattern-sets cover needs {missing!r}\n")


FAIR = {"fair": {"kind": "bernoulli", "probs": ["0.5", "0.5"]}}
ORIGIN_L = [{"window": [[0]], "values": ["1"]}]


def _on_group(group, F, window):
    """An edit moving a microstates spec onto group, with F and window its elements."""
    def edit(spec):
        spec["system"]["group"] = group
        spec["params"].update(F=F, window=window,
                              sigma={"model": "random-free", "seed": 1})
    return edit


@pytest.mark.parametrize("name, field, edit", [
    ("fullshift_microstates.spec", "params.cover.elements",
     lambda spec: spec["params"].update(cover={"kind": "pattern-sets", "window": [[0]]})),
    ("fullshift_microstates.spec", "params.cover",
     lambda spec: spec["params"].update(
         cover={"kind": "pattern-sets", "window": [[0]], "elements": [[["2"]]]})),
    ("fullshift_microstates.spec", "params.stages",
     lambda spec: spec["params"].update(stages=[0])),
    ("fullshift_microstates.spec", "params.sigma",
     lambda spec: spec["params"].update(sigma={"model": "bogus"})),
    ("fullshift_microstates.spec", "params.sigma",
     _on_group({"kind": "lattice", "rank_or_order": 1}, [[1]], [[0], [1]])),
    ("fullshift_microstates.spec", "params.sigma",
     _on_group({"kind": "lattice", "rank_or_order": 2}, [[1, 0]], [[0, 0], [1, 0]])),
    ("fullshift_microstates.spec", "params.sigma",
     _on_group({"kind": "finite", "rank_or_order": 3}, [1], [0, 1])),
    ("goldenmean_compare.spec", "params.sigma",
     lambda spec: spec["params"].update(sigma={"model": "regular"})),
    ("goldenmean_amenable.spec", "params.a", lambda spec: spec["params"].pop("measure")),
    ("fullshift_sofic_trace.spec", "params.L", lambda spec: spec["params"].update(L=ORIGIN_L)),
    ("goldenmean_compare.spec", "params.L", lambda spec: spec["params"].update(L=ORIGIN_L)),
    ("goldenmean_amenable.spec", "params.measure",
     lambda spec: spec["params"].update(measure="chain")),
    ("fullshift_microstates.spec", "params.filter.delta",
     lambda spec: (spec.update(measures=FAIR), spec["params"].update(filter={"measure": "fair"}))),
    ("goldenmean_compare.spec", "params.L",
     lambda spec: (spec.update(measures=FAIR), spec["params"].update(measure="fair"))),
    ("goldenmean_compare.spec", "params.deltas",
     lambda spec: spec["params"].update(deltas=["0"])),
    ("cyclic_tile.spec", "params.sigma",
     lambda spec: spec["params"].update(sigma={"model": "cyclic"})),
    ("goldenmean_amenable.spec", "params.ns", lambda spec: spec["params"].update(ns=[0, 2])),
    ("goldenmean_amenable.spec", "params.a", lambda spec: spec["params"].update(a="1.5")),
    ("fullshift_microstates.spec", "params.cover", lambda spec: spec["params"].update(
        cover={"kind": "pattern-sets", "window": [[0]], "elements": [[["0"]], [["1"]]],
               "drop_empty": "false"})),
    ("fullshift_microstates.spec", "params.cover", lambda spec: spec["params"].update(
        cover={"kind": "pattern-sets", "window": [[0]], "elemnts": [[["0"]], [["1"]]]})),
    ("cyclic_tile.spec", "params.flavor",
     lambda spec: spec["params"].update(flavor="amenable_exact")),
    ("cyclic_tile.spec", "params.V",
     lambda spec: spec["params"].update(V=[0, 2], flavor="amenable-exact")),
    ("cyclic_tile.spec", "params.V", lambda spec: spec["params"].update(V=[1, 13])),
    ("cyclic_tile.spec", "params.V", lambda spec: spec["params"].update(V=[1, 2])),
    ("cyclic_tile.spec", "params.eta", lambda spec: spec["params"].update(eta="2")),
    ("cyclic_tile.spec", "params.tau", lambda spec: spec["params"].update(tau=1)),
    ("cyclic_tile.spec", "params.shapes",
     lambda spec: spec["params"].update(shapes=[[[0], [1]], [[2], [3]]])),
    ("partition_bound.spec", "params.eta", lambda spec: spec["params"].update(eta="2")),
    ("partition_bound.spec", "params.eps", lambda spec: spec["params"].update(eps="0")),
    ("partition_bound.spec", "params.p", lambda spec: spec["params"].update(p=["0.5", "0.6"])),
    ("partition_bound.spec", "params.lam_size", lambda spec: spec["params"].update(lam_size=0)),
    ("fullshift_microstates.spec", "params.window",
     lambda spec: (spec["system"].update(group={"kind": "lattice", "rank_or_order": 2}),
                   spec["params"].update(F=[[1, 0]], window=["00", "10", "01"]))),
    ("fullshift_microstates.spec", "system",
     lambda spec: (spec["system"].update(group={"kind": "finite", "rank_or_order": 4,
                                                "generators": [1.5]}),
                   spec["params"].update(F=[1], window=[0, 1], sigma={"model": "regular"},
                                         stages=[4]))),
    ("fullshift_microstates.spec", "params.sigma",
     lambda spec: (_on_group({"kind": "free", "rank_or_order": 2}, [[1]], [[], [1]])(spec),
                   spec["params"]["sigma"].update(seed=-1))),
    ("goldenmean_compare.spec", "params.deltas",
     lambda spec: spec["params"].update(deltas=["1/0"])),
], ids=["cover-without-elements", "cover-symbol-outside-alphabet", "stage-zero",
        "bogus-sigma", "random-free-on-Z", "random-free-on-Z2", "random-free-on-finite",
        "regular-on-Z", "a-without-measure", "sofic-L-without-measure",
        "compare-L-without-measure", "undeclared-label", "filter-without-delta",
        "compare-measure-without-L", "zero-delta", "tile-sigma-without-n", "ns-zero",
        "a-above-one", "cover-drop-empty", "cover-misspelt-key", "tile-flavor-misspelt",
        "tile-V-label-zero", "tile-V-label-above-d", "tile-V-too-small", "tile-eta-two",
        "tile-tau-one", "tile-shapes-not-nested", "partition-eta-two", "partition-eps-zero",
        "partition-p-sum-above-one", "partition-lam-size-zero", "Z2-window-as-digit-strings",
        "Z4-generator-one-and-a-half", "random-free-negative-seed",
        "zero-denominator-delta"])
def test_validate_and_run_agree(tmp_path, capsys, name, field, edit):
    """validate builds what run builds: one edited spec gets exit 2 and the
    same single error line from both, and run writes no CSV."""
    path = _edited_spec(tmp_path, name, edit)
    lines = []
    for command in ("validate", "run"):
        assert main(_argv(command, path, tmp_path)) == 2
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] and lines[0].startswith(f"error ({field}): ")
    assert lines[0].count("\n") == 1
    assert validate(path) == [f"{field}: {lines[0][len(f'error ({field}): '):-1]}"]
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("group, pairs, stages, model", [
    ({"kind": "lattice", "rank_or_order": 1}, [[[1], [1]]], [4], "cyclic"),
    ({"kind": "lattice", "rank_or_order": 2}, [[[1, 0], [0, 1]]], [3], "folner-identity"),
    ({"kind": "finite", "rank_or_order": 3}, [[1, 2]], [3], "folner-identity"),
    ({"kind": "finite", "rank_or_order": 3}, [[1, 2]], [3], "regular"),
    ({"kind": "free", "rank_or_order": 2}, [["a", "b"]], [4], "random-free"),
])
def test_each_sigma_model_runs_on_the_groups_it_takes(tmp_path, group, pairs, stages, model):
    def edit(spec):
        spec["system"] = {"alphabet": ["0", "1"], "group": group}
        spec["params"] = {"sigma": {"model": model, "seed": 1}, "stages": stages,
                          "pairs": pairs}

    path = _edited_spec(tmp_path, "goldenmean_defects.spec", edit)
    assert validate(path) == []
    assert main(_argv("run", path, tmp_path)) == 0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda p: p.stem)
def test_run_builds_the_system_and_each_measure_once(tmp_path, monkeypatch, spec):
    built = {"system": 0, "measures": []}
    real_system, real_measure = soficlab.specfile.build_system, soficlab.specfile.build_measure

    def spy_system(spec):
        built["system"] += 1
        return real_system(spec)

    def spy_measure(system, mspec):
        built["measures"].append(json.dumps(mspec, sort_keys=True))
        return real_measure(system, mspec)

    for module in (soficlab.specfile, soficlab.cli):  # wherever run looks them up
        monkeypatch.setattr(module, "build_system", spy_system, raising=False)
        monkeypatch.setattr(module, "build_measure", spy_measure, raising=False)
    assert run(spec, out_dir=tmp_path) == 0
    declared = json.loads(spec.read_text()).get("measures", {}).values()
    assert built["system"] == 1
    assert sorted(built["measures"]) == sorted(json.dumps(m, sort_keys=True) for m in declared)


def test_validate_flag_checks_the_subcommand_task(tmp_path, capsys):
    assert main(["sofic", "--spec", str(SPEC_DIR / "cyclic_tile.spec"), "--validate"]) == 2
    assert capsys.readouterr().err.startswith("error (task): the subcommand requires task")


# task branches no bundled spec takes, each on an edited copy of one ---------


def _run_edited(tmp_path, name, edit):
    """Run an edited copy of a bundled spec under the prefix "edited"; exit 0."""
    def with_prefix(spec):
        edit(spec)
        spec["out"] = {"prefix": "edited"}

    assert run(_edited_spec(tmp_path, name, with_prefix), out_dir=tmp_path) == 0


def _csv_rows(path: Path) -> list:
    """The CSV's data rows as dicts keyed by its column names."""
    header, *rows = numeric_body(path).splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_sofic_trace_with_a_measure_filters_by_L(tmp_path):
    def edit(spec):
        spec["measures"] = FAIR
        spec["params"].update(measure="fair", L=ORIGIN_L, deltas=["0.2"], stages=[4, 6])

    _run_edited(tmp_path, "fullshift_sofic_trace.spec", edit)
    rows = _csv_rows(tmp_path / "edited_trace.csv")
    fs = soficlab.full_shift(("0", "1"), soficlab.LatticeGroup(1))
    fair = soficlab.BernoulliMeasure(fs, ["0.5", "0.5"])
    L = [TestFunction.indicator(fs.pattern(fs.window([0]), ("1",)))]
    trace = sofic_measure_trace(fs, origin_partition(fs), fair, L, [1], "0.2",
                                [cyclic_model(fs.group, d) for d in (4, 6)],
                                fs.interval_window(-2, 2))
    assert {row["kind"] for row in rows} == {trace.kind}
    assert [(row["count_outer"], row["value_outer"]) for row in rows] == [
        (str(r.count_outer), repr(r.value_outer)) for r in trace.rows]


def test_amenable_topological_trace_counts_fibonacci(tmp_path):
    def edit(spec):
        del spec["params"]["measure"], spec["params"]["a"]

    _run_edited(tmp_path, "goldenmean_amenable.spec", edit)
    fib = [0, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    rows = _csv_rows(tmp_path / "edited_amenable.csv")
    assert [(int(r["n"]), int(r["count"])) for r in rows] == [
        (n, fib[n + 2]) for n in (2, 4, 6, 8, 10, 12)]


def test_compare_uses_the_given_slack(tmp_path):
    _run_edited(tmp_path, "goldenmean_compare.spec",
                lambda spec: spec["params"].update(slack="0.5"))
    report = json.loads((tmp_path / "edited_compare_report.json").read_text())
    assert report["ok"] is True
    assert set(report["slack_used"].values()) == {0.5}
    assert len(report["slack_used"]) == 3  # one per n at the one delta


def test_compare_bound_violated_exits_1(tmp_path):
    """At delta = 1/2 the sofic count admits far more than the golden-mean
    words: its value exceeds the amenable one plus the default slack."""
    spec = _edited_spec(tmp_path, "goldenmean_compare.spec",
                        lambda spec: spec["params"].update(deltas=["0.5"], ns=[8]))
    assert main(["run", "--spec", str(spec), "--out", str(tmp_path)]) == 1
    rows = _csv_rows(tmp_path / "goldenmean_compare_compare.csv")
    report = json.loads((tmp_path / "goldenmean_compare_compare_report.json").read_text())
    assert report["ok"] is False
    assert report["verdict"] == "agreement bound violated"
    [slack] = report["slack_used"].values()
    assert [r["bound_ok"] for r in rows] == ["0"]
    assert float(rows[0]["value_sofic_outer"]) > float(rows[0]["value_amenable"]) + slack


def test_tile_amenable_exact_flavor_covers_the_cycle(tmp_path):
    _run_edited(tmp_path, "cyclic_tile.spec",
                lambda spec: spec["params"].update(flavor="amenable-exact"))
    tiling = json.loads((tmp_path / "edited_tiling.json").read_text())
    Z = soficlab.LatticeGroup(1)
    oracle = soficlab.amenable_exact_tile(cyclic_model(Z, 12),
                                          [soficlab.FiniteSubset(Z, [0, 1, 2])], 0, "0.1")
    assert tiling["flavor"] == "amenable-exact"
    assert tiling["verification"]["all_ok"] is True
    assert tiling["centers"] == [list(c) for c in oracle.centers]
    assert tiling["verification"]["coverage"] == float(oracle.coverage) == 1.0


def test_tile_coverage_miss_warns(tmp_path, capsys):
    """Shapes of five points cannot cover more than 10 of 12 points, short
    of 1 - tau - eta = 0.9: the run warns and, the other conditions
    holding, exits 0."""
    _run_edited(tmp_path, "cyclic_tile.spec",
                lambda spec: spec["params"].update(shapes=[[[i] for i in range(5)]]))
    assert "warning: guarantee_missed: coverage 0.8333 < 1 - tau - eta" in capsys.readouterr().err
    tiling = json.loads((tmp_path / "edited_tiling.json").read_text())
    assert tiling["guarantee_missed"] is True
    assert tiling["verification"]["coverage_ok"] is tiling["verification"]["all_ok"] is False


def test_finite_group_from_its_table_matches_the_cyclic_default(tmp_path):
    """Z/3 given by its multiplication table writes what Z/3 by order does."""
    def on_z3(table):
        def edit(spec):
            spec["system"] = {"alphabet": ["0", "1"],
                              "group": {"kind": "finite", "rank_or_order": 3, **table}}
            spec["params"] = {"sigma": {"model": "regular"}, "stages": [3],
                              "pairs": [[1, 1], [1, 2]]}
        return edit

    _run_edited(tmp_path, "goldenmean_defects.spec", on_z3({}))
    by_order = numeric_body(tmp_path / "edited_defects.csv")
    _run_edited(tmp_path, "goldenmean_defects.spec",
                on_z3({"table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    assert numeric_body(tmp_path / "edited_defects.csv") == by_order
    assert [r["mult_defect"] for r in _csv_rows(tmp_path / "edited_defects.csv")] == ["0.0"] * 2


def test_markov_measure_with_its_initial_law_matches_the_stationary_one(tmp_path):
    """On the golden mean, P = ((1/2, 1/2), (1, 0)) has stationary law
    (2/3, 1/3): given as initial, every count and value is the one solved."""
    chain = {"kind": "markov", "transition": [["0.5", "0.5"], ["1", "0"]]}

    def with_chain(initial):
        def edit(spec):
            spec["measures"] = {"parry": {**chain, **initial}}
        return edit

    _run_edited(tmp_path, "goldenmean_amenable.spec", with_chain({}))
    solved = numeric_body(tmp_path / "edited_amenable.csv")
    _run_edited(tmp_path, "goldenmean_amenable.spec", with_chain({"initial": ["2/3", "1/3"]}))
    assert numeric_body(tmp_path / "edited_amenable.csv") == solved


def test_trivial_cover_has_one_element_at_every_stage(tmp_path):
    def edit(spec):
        del spec["params"]["measure"], spec["params"]["a"]
        spec["params"]["cover"] = {"kind": "trivial"}

    _run_edited(tmp_path, "goldenmean_amenable.spec", edit)
    rows = _csv_rows(tmp_path / "edited_amenable.csv")
    assert len(rows) == 6
    assert all((r["count"], float(r["value"])) == ("1", 0.0) for r in rows)

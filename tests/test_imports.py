"""soficlab starts, and runs every bundled spec, on the standard library alone.

numpy is imported only by ``random_free_model``, and nothing in soficlab
imports scipy, which the guard keeps so.  Specs are validated by a walker
over ``SCHEMA``, so jsonschema is never imported outside the tests, which
keep it as the validator's oracle.  ``cli.run`` on every bundled spec, and
the amenable measure trace, which runs on integer masses, load none of the
three.  ``hashlib`` (OpenSSL's ``_hashlib``) is loaded by the first spec
read, for the spec digest, and not by the import.  The result records are
NamedTuples, so neither the import nor a run of every bundled spec loads
``dataclasses`` or the ``inspect`` it pulls in.  Each check runs in a fresh
interpreter, since the test session itself has loaded all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("numpy", "jsonschema", "scipy")
START_UP = ("dataclasses", "inspect")  # stdlib modules the start-up can do without


def _loaded_after(code: str, modules=HEAVY) -> dict:
    """Which of modules are in sys.modules after `import soficlab, soficlab.cli`
    ("start") and after running code ("after"), in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "import soficlab, soficlab.cli\n"
        f"heavy = {tuple(modules)!r}\n"
        "start = [m for m in heavy if m in sys.modules]\n"
        f"{code}\n"
        "print(json.dumps({'start': start, 'after': [m for m in heavy if m in sys.modules]}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_neither_numpy_nor_jsonschema_nor_scipy():
    assert _loaded_after("pass") == {"start": [], "after": []}


def _run_every_bundled_spec(out_dir) -> str:
    specs = sorted(str(p) for p in (ROOT / "specs").glob("*.spec"))
    assert specs
    return (
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [soficlab.cli.run(s, out_dir={str(out_dir)!r}) for s in {specs!r}]\n"
        "assert codes == [0] * len(codes), codes"
    )


def test_running_every_bundled_spec_loads_no_heavy_module(tmp_path):
    assert _loaded_after(_run_every_bundled_spec(tmp_path)) == {"start": [], "after": []}


def test_import_loads_neither_dataclasses_nor_inspect():
    assert _loaded_after("pass", START_UP) == {"start": [], "after": []}


def test_running_every_bundled_spec_loads_neither_dataclasses_nor_inspect(tmp_path):
    got = _loaded_after(_run_every_bundled_spec(tmp_path), START_UP)
    assert got == {"start": [], "after": []}


def test_openssl_is_loaded_by_a_spec_read_not_by_the_import(tmp_path):
    spec = str(ROOT / "specs" / "goldenmean_defects.spec")
    code = (
        "import contextlib, io\n"
        "assert '_hashlib' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert soficlab.cli.run({spec!r}, out_dir={str(tmp_path)!r}) == 0\n"
        "assert '_hashlib' in sys.modules"
    )
    assert _loaded_after(code) == {"start": [], "after": []}


def test_random_free_model_imports_numpy():
    got = _loaded_after("soficlab.random_free_model(2, 10, seed=1)")
    assert got["start"] == [] and "numpy" in got["after"]


def test_amenable_measure_trace_loads_no_heavy_module():
    code = (
        "gm = soficlab.golden_mean_system()\n"
        "mu = soficlab.MarkovMeasure.stationary(gm, {'0': {'0': '0.6180339887498949',\n"
        "    '1': '0.3819660112501051'}, '1': {'0': 1, '1': 0}})\n"
        "tr = soficlab.amenable_measure_trace(gm, soficlab.origin_partition(gm), mu,\n"
        "                                     [2, 4, 6], a='0.9')\n"
        "assert [r.count for r in tr.rows] == [3, 8, 21]"
    )
    assert _loaded_after(code) == {"start": [], "after": []}

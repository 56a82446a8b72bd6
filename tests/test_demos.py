"""Each narrative demo runs to completion against the library in src/ and
prints exactly what it printed when its digest below was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change to a demo's output is a change to
# this table, made on purpose
STDOUT_SHA256 = {
    "demo_covers_and_pairs": "13ea2a314d88844f5c322b0bc0cc329f9c93fe02d1cb9458563423996954c764",
    "demo_entropy_traces": "d99112b116f0d3622a75a9e3deebc09859a41c1f746627e72f61c171d07eabf0",
    "demo_free_group": "ec91c36b79f4b56af019621263f2c260f27e2d50204c3960b6f8a67dbab6f5eb",
    "demo_partition_bound": "4c43b024012c070b971baeeed7045ccbab9e4663e6b07280ce2b4b6b49022fc9",
    "demo_sofic_defects": "d6b1545295e31c8ff169423e3745d6d2d99e2691e9d3042ddaefd0379a38aac7",
    "demo_tiling": "e8dbd7f9270e8e06c652f26ba3d3836a61622b89b67b48b5d1321e48d6f157d1",
    "demo_variational_and_selection":
        "79def78bb42f67e7d1f12cdb4c85cc799fe5e4f0c087e560a64ae46054f82ef6",
}


def test_demos_present():
    assert [p.stem for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem], \
        proc.stdout

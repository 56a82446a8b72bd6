"""The benchmark runs clean against the library in src/.

Runs the benchmark's self-check, one short untraced pass of the
zero-defect workload, whose every stage and frontier probe is checked
against the Lucas oracle, one of the variational workload, whose filtered
counts are checked against its pinned oracles, one of the hard-square
workload, whose box counts are checked against OEIS A006506, and one short
traced pass of the bundled specs.
The tracer wraps library functions by name, so a renamed one fails the
traced pass.  A count that breaks a benchmark oracle, or a traced name
that no longer exists, fails here, before the benchmark itself is run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def test_bench_selfcheck_passes():
    proc = _run("bench/selfcheck.py")
    assert proc.returncode == 0, proc.stderr


def test_bench_zero_defect_workload_is_correct_to_the_frontier_cap():
    proc = _run("bench/run.py", "--workload", "sofic-zero-defect", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["frontier_d"]["value"] == 64


def test_bench_variational_workload_is_correct():
    """The filtered signature DP against the benchmark's variational oracles."""
    proc = _run("bench/run.py", "--workload", "sofic-variational", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_bench_hard_square_workload_is_correct():
    """The Z^2 hard-square box counts against the benchmark's oracle."""
    proc = _run("bench/run.py", "--workload", "z2-hard-square", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_bench_specs_workload_runs_traced():
    proc = _run("bench/run.py", "--workload", "specs", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0

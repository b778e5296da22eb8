"""The benchmark's output checks hold on the package.

`bench/workloads.py` states, for each benchmark workload, what every check
must return.  One round of each workload runs here at a fixed seed, so a
change that breaks a benchmark check fails in the test suite as well.  The
file is compiled and run as source, so nothing is written next to it.
`bench/selfcheck.py`, the benchmark's oracles and negative controls, runs
here too, in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = BENCH / "workloads.py"
SEED = 16


def _workloads_namespace():
    ns = {"__name__": "bench_workloads"}
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), ns)
    return ns


_NS = _workloads_namespace()


@pytest.mark.parametrize("workload", ["lattice", "kernels", "lambda"])
def test_one_round_passes(workload):
    checks = _NS["ROUNDS"][workload](SEED)
    assert checks
    failed = [c.label for c in checks if c.run() is not True]
    assert not failed, failed


def test_selfcheck_exits_zero():
    # the benchmark's own oracles and negative controls; -B keeps bench/
    # free of bytecode
    proc = subprocess.run([sys.executable, "-B", str(BENCH / "selfcheck.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

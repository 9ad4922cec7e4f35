"""The benchmark's traced runs still work against the package.

`perfbench/tracing.py` wraps coxcent functions by name at run time; a
renamed or removed function breaks the traced run.  This runs it once on
the smoke types and checks its result line, and once on the theorem suite
for a counter that shows repeated work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import coxcent

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str) -> tuple[dict, str]:
    """(the JSON result, stdout) of one traced benchmark run."""
    src = str(Path(coxcent.__file__).resolve().parent.parent)
    inherited = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *inherited]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--trace", "1"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def test_traced_smoke_run():
    result, stdout = traced_run("smoke")
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "failed_ratio 0 " in stdout
    assert result["metrics"]["permengine.class_set_s"]["value"] > 0


def test_theorem_suite_builds_each_seed_once():
    # `gamma` reads every swapped pair of a class, built one at a time, into
    # N's chain, and check 2.4 takes its fixers from the pairs `gamma` kept
    # (3,875 orthogonality tests; 4,107 when check 2.4 built a prefix of the
    # pairs again into its bounded chain).  A bounded chain on C(u) that
    # read a prefix of the stable reflections and swapped pairs, with
    # checks 1.1 and 2.4 each reading a prefix of the pairs, made 3,987;
    # all three reading every degree-<=2 involution of C(u), products of
    # two stable reflections included, made 16,410 with a backtracking
    # cube search.
    # Building the centralizer's prefix a second time, to list every
    # involution for the checks, showed as 22,192, and listing it once as
    # 21,560.
    result, _ = traced_run("theorem_suite")
    assert result["failed"] == 0
    assert result["metrics"]["rootsys.orthogonal_calls"]["value"] <= 21_560

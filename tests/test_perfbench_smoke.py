"""The benchmark's traced smoke run still works against the package.

`perfbench/tracing.py` wraps coxcent functions by name at run time; a
renamed or removed function breaks the traced run.  This runs it once on
the smoke types and checks its result line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import coxcent

ROOT = Path(__file__).resolve().parent.parent


def test_traced_smoke_run():
    src = str(Path(coxcent.__file__).resolve().parent.parent)
    inherited = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, *inherited]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "smoke", "--trace", "1"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "failed_ratio 0 " in proc.stdout
    assert result["metrics"]["permengine.class_set_s"]["value"] > 0

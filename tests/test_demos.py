"""Smoke test of the demos: each runs in a fresh interpreter, exits 0 and
prints something, so a demo cannot silently rot as the package changes.

The three fast demos (under a second each) run here.
``demos/inner_tolerance_study.py`` takes about 9 s, so it is left out of
this suite; run it by hand after changing the inexact mode.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", ["angle_diagnostics.py", "newton_basics.py", "subspace_run.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # run() kills the demo if it outlives the timeout
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()

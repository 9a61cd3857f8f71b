"""Every demo script runs to completion against the library as checked out.

A demo that imports a removed name or calls a changed signature fails here
instead of in a reader's hands.  The three demos that take several seconds
each are marked ``acceptance``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"01_single_value_prophet.py", "03_edge_arrival_ratio.py", "06_adversarial_orders.py"}


def _demo_params():
    for path in sorted((ROOT / "demos").glob("*.py")):
        marks = [pytest.mark.acceptance] if path.name in SLOW else []
        yield pytest.param(path, id=path.stem, marks=marks)


@pytest.mark.parametrize("demo", _demo_params())
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr

"""Every narrative script under demos/ runs to completion."""

import subprocess
import sys

import pytest

from conftest import ROOT, child_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], env=child_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

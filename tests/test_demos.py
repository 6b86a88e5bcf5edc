"""Every demo script runs to completion against the in-tree package."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import in_tree_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=in_tree_env(), timeout=300)
    assert result.returncode == 0, result.stderr

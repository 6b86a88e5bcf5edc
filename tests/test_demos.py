"""Every demo script runs to completion against the in-tree package."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import in_tree_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# a demo's expected last line, its elapsed time masked: the exit code alone would pass a failing reproduction
LAST_LINES = {"07_full_case_study": "overall: PASS (28/28 checks, <elapsed>s)"}


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo):
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=in_tree_env(), timeout=300)
    assert result.returncode == 0, result.stderr
    if demo.stem in LAST_LINES:
        last = re.sub(r"\d+\.\d\ds\)$", "<elapsed>s)", result.stdout.splitlines()[-1])
        assert last == LAST_LINES[demo.stem]

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip()

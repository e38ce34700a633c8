"""Smoke test: every script under demos/ runs to completion from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["absorb_and_pack.py", "end_to_end.py", "exact_walk_laws.py"])
def test_demo_exits_cleanly(demo, tmp_path):
    # run from a scratch directory so any file a demo writes lands there
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    # a demo's work directory goes away with it
    assert not list(tmp_path.glob("cyclefactors-demo-*"))

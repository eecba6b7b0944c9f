"""Smoke tests for the demo scripts: each runs to exit 0 and prints its result
line, and its whole stdout has the pinned sha256.

plot_funnel_lane.py's picture places its K and L cells by walking the grid, so
its digest pins that walk as well as the lane."""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import PKG_ROOT


@pytest.mark.parametrize(
    "argv, expected, sha256",
    [
        (["plot_funnel_lane.py"], "keyframe at (3.00, 0.00), 352 of 2376 cells inside the lane",
         "379a110b821b0956710e1936f155aa1b8e75f368ab17023dfef4c934c4392c7d"),
        (["trace_offset_recovery.py"], "  outcome: done, final error 0.056 m",
         "1cc4f46f89cd570cc33a6899e42ffdc44092dbab2e8b6e43a30053de57903b10"),
        (["run_comparison.py", "funnel_two_features"],
         "funnel_two_features    sloped       0.050    0.000  done:1",
         "e2ad17f9031ad5eae1c6e32fc119acdbb35b773a0accdf0aa6403df682604908"),
    ],
    ids=["plot_funnel_lane", "trace_offset_recovery", "run_comparison"],
)
def test_demo_runs(argv, expected, sha256):
    env = {**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(PKG_ROOT / "demos" / argv[0]), *argv[1:]],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert expected in proc.stdout.decode().splitlines()
    assert hashlib.sha256(proc.stdout).hexdigest() == sha256

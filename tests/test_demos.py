"""Smoke tests for the demo scripts: each runs to exit 0 and prints its result line."""

import os
import subprocess
import sys

import pytest

from conftest import PKG_ROOT


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["plot_funnel_lane.py"], "keyframe at (3.00, 0.00), 352 of 2376 cells inside the lane"),
        (["trace_offset_recovery.py"], "  outcome: done, final error 0.056 m"),
        (["run_comparison.py", "funnel_two_features"],
         "funnel_two_features    sloped       0.050    0.000  done:1"),
    ],
    ids=["plot_funnel_lane", "trace_offset_recovery", "run_comparison"],
)
def test_demo_runs(argv, expected):
    env = {**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(PKG_ROOT / "demos" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout.splitlines()

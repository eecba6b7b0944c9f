"""Golden-digest gate: every shipped scenario reproduces its committed traces.

The digests in perfbench/golden.json are the sha256 of each run's trace
(`jsonl_lines()`, newline-terminated) per controller, scenario and noise
seed.  This test only reads that file.  A change that alters a trace byte on
purpose regenerates it with `python3 perfbench/make_golden.py` and says why.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from funnelnav.evaluate import load_scenario, run_scenario

from conftest import ALL_SCENARIOS, PKG_ROOT

GOLDEN = json.loads((PKG_ROOT / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("controller", ["standard", "sloped"])
@pytest.mark.parametrize("config", ALL_SCENARIOS, ids=lambda f: f.stem)
def test_seed_0_trace_matches_golden_digest(config, controller):
    scn = replace(load_scenario(config), seed=0, runs=1)
    (trace,) = run_scenario(scn, controller=controller).traces
    digest = hashlib.sha256(("\n".join(trace.jsonl_lines()) + "\n").encode()).hexdigest()
    assert digest == GOLDEN["repeat"][controller][scn.name][0]

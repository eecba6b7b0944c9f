"""Golden-digest gate and trace invariants on every shipped scenario.

The digests in perfbench/golden.json are the sha256 of each run's trace
(`jsonl_lines()`, newline-terminated) per controller, scenario and noise
seed.  This test only reads that file.  A change that alters a trace byte on
purpose regenerates it with `python3 perfbench/make_golden.py` and says why.

The invariant and read-back tests use the same seed-0 traces, each run once
per session.
"""

import functools
import hashlib
import json
from dataclasses import replace

import pytest

from funnelnav.evaluate import load_scenario, run_scenario
from funnelnav.navigate import TERMINAL_EVENTS, read_run

from conftest import ALL_SCENARIOS, PKG_ROOT

GOLDEN = json.loads((PKG_ROOT / "perfbench" / "golden.json").read_text())

CONTROLLERS = pytest.mark.parametrize("controller", ["standard", "sloped"])
CONFIGS = pytest.mark.parametrize("config", ALL_SCENARIOS, ids=lambda f: f.stem)


@functools.cache
def seed_0_trace(config, controller):
    """The scenario's seed-0 run trace and its JSONL lines."""
    scn = replace(load_scenario(config), seed=0, runs=1)
    (trace,) = run_scenario(scn, controller=controller).traces
    return scn.name, trace, trace.jsonl_lines()


@CONTROLLERS
@CONFIGS
def test_seed_0_trace_matches_golden_digest(config, controller):
    name, _, lines = seed_0_trace(config, controller)
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == GOLDEN["repeat"][controller][name][0]


@CONTROLLERS
@CONFIGS
def test_seed_0_trace_holds_the_trace_invariants(config, controller):
    _, trace, lines = seed_0_trace(config, controller)
    records = trace.records
    last = records[-1]

    # record i is tick i, except that a collision repeats the tick of the
    # command record that drove into the obstacle
    ticks = [r["tick"] for r in records]
    if last["event"] == "collision":
        assert ticks == [*range(len(records) - 1), len(records) - 2]
    else:
        assert ticks == list(range(len(records)))

    assert [r["event"] in TERMINAL_EVENTS for r in records] == [False] * (len(records) - 1) + [True]

    segments = [r["segment"] for r in records]
    assert segments == sorted(segments)

    summary = json.loads(lines[-1])
    assert len(lines) == len(records) + 1
    assert summary["ticks"] == len(records)
    assert summary["outcome"] == last["event"] == trace.outcome
    assert (summary["final_x"], summary["final_y"], summary["final_theta"]) == (
        last["x"], last["y"], last["theta"],
    )


@CONTROLLERS
@CONFIGS
def test_seed_0_trace_records_read_back_from_their_lines(config, controller, tmp_path):
    # a record held in memory and the same record read back from its JSONL
    # line are one and the same dict, and so is the whole trace read back
    # from the file it was written to
    _, trace, lines = seed_0_trace(config, controller)
    assert [json.loads(line) for line in lines[:-1]] == list(trace.records)
    trace.write(tmp_path / "run_000.jsonl")
    assert read_run(tmp_path / "run_000.jsonl") == trace

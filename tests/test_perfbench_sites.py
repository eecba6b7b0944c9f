"""The benchmark's tracer wraps library attributes by name: each must exist.

perfbench/run.py's sites() lists (owner, attribute) pairs that its tracer
replaces with timing wrappers; a renamed or deleted attribute breaks
`perfbench/run.py --trace 1` without failing anything else.  The other way
round, an import under src/ that only the tracer reads says so in a comment
naming its site, and that site must still be listed.
"""

import importlib.util
import re
from dataclasses import replace

from conftest import PKG_ROOT


def load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PKG_ROOT / "perfbench" / f"{name}.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_run_module():
    return load_perfbench_module("run")


def test_every_tracer_site_resolves():
    sites = load_run_module().sites()
    assert len(sites) == 25
    # the lookup Tracer.install makes before wrapping each site
    missing = [
        name
        for owner, attr, name in sites
        if not (attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert missing == []


TRACER_ONLY = re.compile(
    r"^# read only by perfbench/run\.py, whose tracer wraps (\w+)\.(\w+)\n(.*)$", re.M
)


def test_tracer_only_imports_name_a_live_site():
    # an import kept only for the tracer goes when the benchmark drops its site
    names = {name for _, _, name in load_run_module().sites()}
    found = []
    for f in sorted((PKG_ROOT / "src" / "funnelnav").glob("*.py")):
        for module, attr, next_line in TRACER_ONLY.findall(f.read_text()):
            assert module == f.stem, f"{f.name}: comment names {module}.{attr}"
            assert re.fullmatch(rf"from \S+ import {attr}\b.*", next_line), next_line
            found.append(f"{module}.{attr}")
    assert found, "no tracer-only import comment found; the pattern is stale"
    assert [s for s in found if s not in names] == []


def test_trace_hooks_read_the_sites_arguments(scenario_dir):
    # --trace 1 wraps every site; its hooks read visible_set's world and
    # match's observations and keyframe, so a changed signature breaks it
    from funnelnav import evaluate

    scn = replace(evaluate.load_scenario(scenario_dir / "funnel_two_features.yaml"), runs=1)
    tracer = load_perfbench_module("tracer").Tracer(load_run_module().sites())
    tracer.install()
    try:
        evaluate.run_scenario(scn)
        path = evaluate.record(scn.world, scn.camera, scn.script, scn.min_teach_features)
        kf = path.keyframes[-1]
        p = kf.pose_truth
        grid = evaluate.GridSpec(p.x - 2.0, p.x, 4, p.y - 1.0, p.y + 1.0, 4)
        evaluate.controller_inside_grid(kf, scn.world, scn.camera, grid)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    calls = dict(zip(summary["names"], summary["calls"]))
    assert calls["evaluate.controller_inside_grid"] == 1
    # the grid is projected in blocks of rows through geometry.sense_block, which
    # is no site; the hooks read visible_set's arguments on run_scenario's re-matches
    assert calls["evaluate.visible_set"] == 0
    assert calls["navigate.visible_set"] > 0
    counts = summary["counts"]
    assert counts["tested"] > 0
    # the run is noise-free, so every candidate pair is kept: a match result
    # whose length is not its number of kept pairs reads fewer
    assert counts["kept"] == counts["candidates"] > 0

"""The benchmark's tracer wraps library attributes by name: each must exist.

perfbench/run.py's sites() lists (owner, attribute) pairs that its tracer
replaces with timing wrappers; a renamed or deleted attribute breaks
`perfbench/run.py --trace 1` without failing anything else.  The other way
round, an import under src/ that only the tracer reads says so in a comment
naming its site, and that site must still be listed.
"""

import importlib.util
import re

from conftest import PKG_ROOT


def load_run_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PKG_ROOT / "perfbench" / "run.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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

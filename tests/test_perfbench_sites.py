"""The benchmark's tracer wraps library attributes by name: each must exist.

perfbench/run.py's sites() lists (owner, attribute) pairs that its tracer
replaces with timing wrappers; a renamed or deleted attribute breaks
`perfbench/run.py --trace 1` without failing anything else.
"""

import importlib.util

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

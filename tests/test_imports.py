"""Every name a library module imports is read somewhere in that module, and
every name in its __all__ is one it binds.

No linter runs on this repository, so an import that a deletion leaves behind
would otherwise stay, and so would the __all__ entry of a deleted name, on
which `from module import *` raises.  Exempt from the import check are
`from __future__ import annotations`, the package's __init__.py, whose imports
are its public API, and an import marked as read only by the benchmark's
tracer (see test_perfbench_sites.py).
"""

import ast
import importlib

import pytest

from conftest import PKG_ROOT
from test_perfbench_sites import TRACER_ONLY

MODULES = sorted(
    f for f in (PKG_ROOT / "src" / "funnelnav").glob("*.py") if f.name != "__init__.py"
)


@pytest.mark.parametrize("module", MODULES, ids=lambda f: f.stem)
def test_every_imported_name_is_read(module):
    text = module.read_text()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    tracer_only = {attr for _, attr, _ in TRACER_ONLY.findall(text)}
    assert sorted(imported - read - tracer_only) == []


@pytest.mark.parametrize("module", MODULES, ids=lambda f: f.stem)
def test_every_all_entry_is_bound(module):
    mod = importlib.import_module(f"funnelnav.{module.stem}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []

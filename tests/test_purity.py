"""Controllers must act on image measurements only, never on world state."""

import inspect
from pathlib import Path

import pytest

import funnelnav.control_sloped as sloped
import funnelnav.control_standard as standard
from funnelnav.navigate import tick_stats


def test_controllers_never_touch_ground_truth():
    for module in (standard, sloped):
        src = inspect.getsource(module)
        for forbidden in ("pose_truth", "visible_set", "World", "Landmark", "project"):
            assert forbidden not in src, f"{module.__name__} references {forbidden}"


def test_controllers_import_only_image_side_types():
    for module in (standard, sloped):
        src = inspect.getsource(module)
        geometry_imports = [
            line
            for line in src.splitlines()
            if line.startswith("from .geometry import")
        ]
        assert geometry_imports == ["from .geometry import MotionCommand"]


def test_only_features_names_the_match_triples():
    # match builds (id, u_c, u_j) triples and the navigator unzips them once;
    # every other module works on the tick's two coordinate columns
    src_dir = Path(standard.__file__).parent
    naming = sorted(f.name for f in src_dir.glob("*.py") if "MatchSet" in f.read_text())
    assert naming == ["features.py"]


@pytest.mark.parametrize("fn", [standard.standard_command, standard.inside_funnel,
                                sloped.evaluate_state, sloped.sloped_command, tick_stats])
def test_controllers_and_tick_stats_take_the_two_columns(fn):
    assert list(inspect.signature(fn).parameters)[:2] == ["uc", "uj"]

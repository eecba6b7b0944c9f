"""Shared test fixtures and helpers."""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml

from funnelnav.features import MatchSet

pytest_plugins = ["pytester"]

PKG_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = PKG_ROOT / "scenarios"

ALL_SCENARIOS = sorted(SCENARIO_DIR.glob("*.yaml"))


def ms(*pairs) -> MatchSet:
    """A match set of the given (id, u_current, u_keyframe) tuples."""
    return tuple(pairs)


def cols(m: MatchSet) -> tuple[list[float], list[float]]:
    """A match set's u_current and u_keyframe columns: the arguments of the
    statistics, tick_stats and the controllers."""
    return [p[1] for p in m], [p[2] for p in m]


def nest(depth: int, block: bool) -> str:
    """A YAML text of mappings (block style) or lists (flow style), one
    inside the next, depth deep."""
    d = 1
    for _ in range(depth):
        d = {"k": d} if block else [d]
    return yaml.safe_dump(d, default_flow_style=not block)


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR

"""Shared test fixtures and helpers."""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml

pytest_plugins = ["pytester"]

PKG_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = PKG_ROOT / "scenarios"

ALL_SCENARIOS = sorted(SCENARIO_DIR.glob("*.yaml"))


def ms(*pairs) -> tuple:
    """The given (id, u_current, u_keyframe) pairs, for cols."""
    return tuple(pairs)


def cols(pairs) -> tuple[list[float], list[float]]:
    """The u_current and u_keyframe columns of (id, u_current, u_keyframe)
    pairs: the arguments of the statistics, tick_stats and the controllers."""
    return [p[1] for p in pairs], [p[2] for p in pairs]


def match_cols(m: dict[int, float], kf) -> tuple[list[float], list[float]]:
    """A match's current coordinates and the keyframe's for the same ids, in
    the match's order: the two columns a re-matching tick of navigate reads."""
    return list(m.values()), [kf.observations[i] for i in m]


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

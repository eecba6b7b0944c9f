"""Shared test fixtures and helpers."""

from __future__ import annotations

from pathlib import Path

import pytest

from funnelnav.features import MatchSet

PKG_ROOT = Path(__file__).resolve().parents[1]
SCENARIO_DIR = PKG_ROOT / "scenarios"

ALL_SCENARIOS = sorted(SCENARIO_DIR.glob("*.yaml"))


def ms(*pairs) -> MatchSet:
    """A match set of the given (id, u_current, u_keyframe) tuples."""
    return tuple(pairs)


def cols(m: MatchSet) -> tuple[list[float], list[float]]:
    """A match set's u_current and u_keyframe columns, the statistics' arguments."""
    return [p[1] for p in m], [p[2] for p in m]


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR

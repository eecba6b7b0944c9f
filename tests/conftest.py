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


def first_divergence(records, transformed, field_map) -> tuple[int, str | None] | None:
    """Where the records of a transformed run first differ from field_map
    applied to the records of the original run, as (tick, field), or None
    when every record matches to the bit.

    field_map maps a field to the function its values go through, such as
    doubling for a scaled field or negation for a mirrored one; None stays
    None, and a field it does not name must be equal.  Values compare by
    repr, so signed zeros, NaN and a changed type all count.  When one run
    ends first, the divergence is the first tick only the other has, with
    field None.
    """
    for r, t in zip(records, transformed):
        for key in sorted(r.keys() | t.keys()):
            v = r.get(key)
            if v is not None and key in field_map:
                v = field_map[key](v)
            if repr(t.get(key)) != repr(v):
                return r["tick"], key
    if len(records) != len(transformed):
        n = min(len(records), len(transformed))
        return max(records, transformed, key=len)[n]["tick"], None
    return None


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

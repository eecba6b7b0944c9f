"""Teach-and-repeat visual navigation over a simulated landmark world.

Implements both the standard funnel-lane controller (per-feature qualitative
constraints, fixed turning radius) and the sloped funnel-lane controller
(median-based lane with pitch/roll slopes and an adaptive turning radius),
plus the teach-phase keyframe extractor, the repeat-phase navigator and a
scenario evaluation harness.

Import names from their modules, for example
``from funnelnav.evaluate import load_scenario, run_scenario``.
Importing the package loads every module below.
"""

from . import (  # noqa: F401
    control_sloped,
    control_standard,
    errors,
    evaluate,
    features,
    geometry,
    navigate,
    teach,
)

__version__ = "0.1.0"

"""Teach-and-repeat visual navigation over a simulated landmark world.

Implements both the standard funnel-lane controller (per-feature qualitative
constraints, fixed turning radius) and the sloped funnel-lane controller
(median-based lane with pitch/roll slopes and an adaptive turning radius),
plus the teach-phase keyframe extractor, the repeat-phase navigator and a
scenario evaluation harness.
"""

from .control_sloped import (
    SlopedParams,
    SlopedState,
    radius_policy,
    sloped_command,
)
from .control_standard import StandardParams, feature_vote, standard_command
from .errors import (
    ConfigError,
    DegenerateSpreadError,
    EmptyMatchError,
    FunnelNavError,
    InvalidPathError,
    TeachDegenerateError,
)
from .evaluate import (
    GridSpec,
    MetricsReport,
    Scenario,
    accuracy,
    funnel_oracle,
    load_scenario,
    repeatability,
    run_scenario,
)
from .features import (
    Keyframe,
    MatchSet,
    NoiseModel,
    VisualPath,
    load_visual_path,
    match,
    median_distance,
    mse,
    save_visual_path,
    split_sides,
    std_ratio,
)
from .geometry import (
    CameraModel,
    Landmark,
    MotionCommand,
    Pose,
    World,
    project,
    step,
    visible_set,
)
from .navigate import NavigatorConfig, RunTrace, TickStats, navigate, should_switch, tick_stats
from .teach import TeachScript, record

__version__ = "0.1.0"

"""Render the combined funnel lane of the two-feature world as ASCII art.

Usage:
    python demos/plot_funnel_lane.py

Each character is one grid cell at the destination keyframe's heading:
'#' inside the lane, '.' outside, 'K' the keyframe position, 'L' a landmark.
The lane is the intersection of the two per-feature wedges, narrowing toward
the keyframe.
"""

import sys
from pathlib import Path

from funnelnav.evaluate import GridSpec, funnel_oracle, grid_axes, load_scenario
from funnelnav.teach import record

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "funnel_two_features.yaml"


def main() -> int:
    scn = load_scenario(SCENARIO)
    path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
    kf = path.keyframes[-1]
    grid = GridSpec(x0=-1.5, x1=6.5, nx=72, y0=-2.4, y1=2.4, ny=33)
    inside = funnel_oracle(kf, scn.world, scn.camera, grid)
    xs, ys = grid_axes(grid)

    dx = (grid.x1 - grid.x0) / (grid.nx - 1)
    dy = (grid.y1 - grid.y0) / (grid.ny - 1)
    rows = []
    for iy, y in enumerate(ys):
        row = []
        for ix, x in enumerate(xs):
            ch = "#" if inside[iy * grid.nx + ix] else "."
            if abs(x - kf.pose_truth.x) < dx / 2 and abs(y - kf.pose_truth.y) < dy / 2:
                ch = "K"
            for lm in scn.world.landmarks:
                if abs(x - lm.x) < dx / 2 and abs(y - lm.y) < dy / 2:
                    ch = "L"
            row.append(ch)
        rows.append("".join(row))
    # image rows top-down: highest y first
    print("\n".join(reversed(rows)))
    print(f"\nkeyframe at ({kf.pose_truth.x:.2f}, {kf.pose_truth.y:.2f}), "
          f"{sum(inside)} of {len(inside)} cells inside the lane")
    return 0


if __name__ == "__main__":
    sys.exit(main())

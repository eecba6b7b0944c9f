"""Show how the two controllers handle a 2 m offset start, tick by tick.

Usage:
    python demos/trace_offset_recovery.py

Runs the offset-start scenario once per controller without noise and prints a
sparse trajectory log plus the final distance to the taught goal.  The
fixed-radius controller cannot rejoin the displaced path; the sloped
controller adapts its turning radius and recovers.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

from funnelnav.evaluate import load_scenario
from funnelnav.features import NoiseModel
from funnelnav.navigate import navigate
from funnelnav.teach import record

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "offset_start.yaml"


def main() -> int:
    scn = load_scenario(SCENARIO)
    path = record(scn.world, scn.camera, scn.script, scn.min_teach_features)
    goal = path.keyframes[-1].pose_truth
    print(f"teach start (0.00, 0.00), repeat start ({scn.repeat_start.x:.2f}, "
          f"{scn.repeat_start.y:.2f}), goal ({goal.x:.2f}, {goal.y:.2f})\n")
    for controller in ("standard", "sloped"):
        cfg = replace(scn.navigator, controller=controller)
        tr = navigate(scn.world, scn.camera, path, scn.repeat_start, cfg, NoiseModel())
        print(f"== {controller} ==")
        for r in tr.records:
            if r["tick"] % 40 == 0 or r["event"]:
                print(
                    f"  tick {r['tick']:>4}  ({r['x']:6.2f}, {r['y']:6.2f})"
                    f"  heading {r['theta']:5.2f}  segment {r['segment']}  {r['event']}"
                )
        err = math.hypot(tr.final_pose.x - goal.x, tr.final_pose.y - goal.y)
        print(f"  outcome: {tr.outcome}, final error {err:.3f} m\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

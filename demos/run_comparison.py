"""Run every shipped scenario with both controllers and print a summary table.

Usage:
    python demos/run_comparison.py [scenario ...]

With no arguments, all scenarios under scenarios/ are run.  For each one the
table shows, per controller, the outcome tally, the RMS endpoint accuracy and
the repeatability over the configured number of seeded noisy runs.
"""

import sys
from pathlib import Path

from funnelnav.evaluate import load_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def outcome_str(outcomes: dict) -> str:
    return " ".join(f"{k}:{v}" for k, v in sorted(outcomes.items()))


def main() -> int:
    names = sys.argv[1:] or sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml"))
    header = f"{'scenario':<22} {'controller':<9} {'acc [m]':>8} {'rep [m]':>8}  outcomes"
    print(header)
    print("-" * len(header))
    for name in names:
        scn = load_scenario(SCENARIO_DIR / f"{name}.yaml")
        for controller in ("standard", "sloped"):
            m = run_scenario(scn, controller=controller).metrics
            print(
                f"{name:<22} {controller:<9} {m['accuracy']:>8.3f} "
                f"{m['repeatability']:>8.3f}  {outcome_str(m['outcomes'])}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Single-obstacle episode with a biased sensor: traces and an optional plot.

Writes a scenario with one obstacle between start and goal, seen through a
sensor whose estimated cloud is systematically offset from the truth, runs it
with `clearnav episode` (per-step CSV + replay JSON), and (with matplotlib
available) saves a top-down figure of the path, the obstacle, and the speed
profile against obstacle distance.

Usage:
  python scripts/single_obstacle_demo.py --checkpoint runs/ablation/augmented.npz --out runs/demo
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from clearnav import cli
from clearnav.bench import DESK_NOISE
from clearnav.dynamics import RobotState
from clearnav.world import Circle, SensorConfig, World, save_scenario

OBSTACLE = Circle(3.0, 0.0, 0.45)
WORLD = World((OBSTACLE,), (-1.0, -4.0, 9.0, 4.0), RobotState(0.0, 0.0, 0.0), (6.0, 0.0))


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, epilog="Any other flag (--checkpoint, --seed, ...) goes to clearnav episode as it is.")
    ap.add_argument("--method", default="augmented")
    ap.add_argument("--out", default="runs/demo")
    args, episode_args = ap.parse_known_args()

    os.makedirs(args.out, exist_ok=True)
    scenario = os.path.join(args.out, "single_obstacle.json")
    save_scenario(scenario, WORLD, SensorConfig(noise=DESK_NOISE), seed=7)
    cli.main(["episode", "--scenario", scenario, "--method", args.method, "--out", args.out, *episode_args])

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib unavailable; skipping plot")
        return 0

    tr = np.genfromtxt(os.path.join(args.out, f"{args.method}.csv"), delimiter=",", names=True)
    fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(11, 4.2))
    ax1.add_patch(plt.Circle((OBSTACLE.cx, OBSTACLE.cy), OBSTACLE.radius, color="tab:red", alpha=0.5))
    ax1.plot(tr["x"], tr["y"], "-o", ms=2, lw=1, label="executed path")
    ax1.plot(*WORLD.goal, "g*", ms=14, label="goal")
    ax1.set_aspect("equal")
    ax1.set_xlabel("x (m)")
    ax1.set_ylabel("y (m)")
    ax1.legend()
    ax2.plot(tr["true_clearance"][1:], tr["v"][1:], ".", alpha=0.6)
    ax2.set_xlabel("true obstacle clearance (m)")
    ax2.set_ylabel("commanded speed (m/s)")
    fig.tight_layout()
    png = os.path.join(args.out, f"{args.method}.png")
    fig.savefig(png, dpi=130)
    print(f"plot: {png}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

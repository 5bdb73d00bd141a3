"""Output checks of the benchmark. Each returns a list of problems; empty means correct."""
from __future__ import annotations

import math

import numpy as np

from clearnav.dynamics import RobotState
from clearnav.world import body_to_world, raycast_scan

OUTCOMES = ("reached", "collided", "stuck", "timeout")
# the command box (m/s, rad/s), spelled out rather than read from clearnav
V_RANGE = (0.0, 1.0)
OMEGA_RANGE = (-1.0, 1.0)


def check_segment(outcome) -> list[str]:
    """Executed commands finite and in the command box; planner view finite and positive."""
    problems = []
    if outcome.result not in OUTCOMES:
        problems.append(f"result {outcome.result!r} is not one of {OUTCOMES}")
    cmd = np.asarray(outcome.commands, dtype=float)
    if cmd.ndim != 2 or cmd.shape[1] != 2 or cmd.shape[0] < 1:
        problems.append(f"commands have shape {cmd.shape}, expected (steps >= 1, 2)")
    elif not np.isfinite(cmd).all():
        problems.append("non-finite executed command")
    else:
        v, w = cmd[:, 0], cmd[:, 1]
        if v.min() < V_RANGE[0] or v.max() > V_RANGE[1]:
            problems.append(f"speed command outside {V_RANGE}: [{v.min()}, {v.max()}]")
        if w.min() < OMEGA_RANGE[0] or w.max() > OMEGA_RANGE[1]:
            problems.append(f"turn command outside {OMEGA_RANGE}: [{w.min()}, {w.max()}]")
    for key in ("mu", "sigma", "lam"):
        values = np.asarray(outcome.trace[key], dtype=float)
        if not np.isfinite(values).all():
            problems.append(f"non-finite trace {key}")
        elif key != "mu" and not (values > 0.0).all():
            problems.append(f"trace {key} not > 0 (min {values.min()})")
    return problems


def reference_clearance(state, commands, cloud_world, dt: float, cap: float) -> float:
    """Brute-force worst-case clearance: unicycle steps, then every rollout point x cloud point."""
    cloud = np.asarray(cloud_world, dtype=float).reshape(-1, 2)
    if cloud.shape[0] == 0:
        return cap
    x, y, psi = float(state.x), float(state.y), float(state.psi)
    points = [(x, y)]
    for v, w in np.asarray(commands, dtype=float):
        x += v * math.cos(psi) * dt
        y += v * math.sin(psi) * dt
        psi += w * dt
        points.append((x, y))
    best = math.inf
    for px, py in points:
        for cx, cy in cloud.tolist():
            best = min(best, math.hypot(px - cx, py - cy))
    return best


def check_labels(dataset, worlds, snapshots_per_world: int, sensor, indices, tolerance: float) -> list[str]:
    """Recompute the clearance labels at `indices` and compare within `tolerance` metres.

    A label is taken against the noise-free scan from the snapshot's pose.
    Snapshots map to worlds in generation order, so the dataset must hold
    exactly snapshots_per_world snapshots per world.
    """
    expected = len(worlds) * snapshots_per_world
    if dataset.n_snapshots != expected:
        return [f"dataset has {dataset.n_snapshots} snapshots, expected {expected}"]
    problems = []
    for i in indices:
        snap = int(dataset.snapshot[i])
        state = RobotState(*(float(a) for a in dataset.states[snap]))
        world = worlds[snap // snapshots_per_world]
        cloud = body_to_world(raycast_scan(state, world, sensor), state)
        ref = reference_clearance(state, dataset.controls[i], cloud, dataset.dt, sensor.max_range)
        got = float(dataset.clearance[i])
        if not abs(got - ref) <= tolerance:
            problems.append(f"label {i}: {got!r} vs reference {ref!r}")
    safe = (dataset.clearance >= dataset.d_o).astype(np.uint8)
    if not np.array_equal(safe, dataset.safe):
        problems.append("safe flags disagree with clearance >= d_o")
    return problems


def check_training(result) -> list[str]:
    """Every logged epoch loss and holdout statistic is finite."""
    problems = []
    for row in result.log.rows:
        for key in ("nll", "ce", "holdout_accuracy", "mean_sigma", "median_sigma"):
            value = getattr(row, key)
            if not math.isfinite(value):
                problems.append(f"epoch {row.epoch}: non-finite {key} {value!r}")
    return problems

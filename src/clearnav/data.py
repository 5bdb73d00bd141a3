"""Training data: snapshot sampling, clearance labeling, dataset persistence.

Each snapshot is a random collision-free pose in a world: one noisy scan (the
model input) plus one noise-free scan (the labeling reference). Fifty random
command sequences per snapshot are labeled with the worst-case clearance of
their rollout against the reference cloud and a binary safe/collision tag.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dynamics import RobotState, sample_controls
from .model import worst_case_clearance
from .world import (
    BiasField,
    SensorConfig,
    World,
    body_to_world,
    estimated_scan,
    raycast_scan,
    standardize_cloud,
    true_clearance,
)

DATASET_VERSION = 1
CLOUD_SIZE = 300


@dataclass(eq=False)
class ClearanceDataset:
    """Column store over samples; snapshot-level arrays are shared, not copied."""

    clouds: np.ndarray  # (n_snapshots, 300, 2)
    states: np.ndarray  # (n_snapshots, 5)
    snapshot: np.ndarray  # (n_samples,) index into snapshot arrays
    controls: np.ndarray  # (n_samples, H, 2)
    clearance: np.ndarray  # (n_samples,)
    safe: np.ndarray  # (n_samples,) uint8, 1 = clearance >= d_o
    d_o: float
    dt: float
    seed: int
    fov: float
    max_range: float

    def __len__(self) -> int:
        return self.snapshot.shape[0]

    @property
    def horizon(self) -> int:
        return self.controls.shape[1]

    @property
    def n_snapshots(self) -> int:
        return self.clouds.shape[0]

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            version=np.array(DATASET_VERSION),
            clouds=self.clouds.astype(np.float32),
            states=self.states,
            snapshot=self.snapshot.astype(np.int32),
            controls=self.controls.astype(np.float32),
            clearance=self.clearance,
            safe=self.safe.astype(np.uint8),
            header=np.array([self.d_o, self.dt, float(self.seed), self.fov, self.max_range]),
        )

    @classmethod
    def load(cls, path) -> "ClearanceDataset":
        with np.load(path) as z:
            version = int(z["version"])
            if version != DATASET_VERSION:
                raise ValueError(f"unsupported dataset version {version}")
            d_o, dt, seed, fov, max_range = z["header"]
            return cls(
                clouds=z["clouds"].astype(float),
                states=z["states"].astype(float),
                snapshot=z["snapshot"].astype(int),
                controls=z["controls"].astype(float),
                clearance=z["clearance"].astype(float),
                safe=z["safe"].astype(np.uint8),
                d_o=float(d_o),
                dt=float(dt),
                seed=int(seed),
                fov=float(fov),
                max_range=float(max_range),
            )


def sample_free_pose(
    world: World, rng: np.random.Generator, d_o: float, max_tries: int = 200
) -> RobotState | None:
    """Random collision-free pose with v ~ U[-1,1] clipped to [0,1], w ~ U[-1,1]."""
    xmin, ymin, xmax, ymax = world.bounds
    for _ in range(max_tries):
        p = rng.uniform([xmin, ymin], [xmax, ymax])
        if true_clearance(p, world) <= d_o:
            continue
        psi = rng.uniform(-math.pi, math.pi)
        v = min(max(rng.uniform(-1.0, 1.0), 0.0), 1.0)
        w = rng.uniform(-1.0, 1.0)
        return RobotState(p[0], p[1], psi, v, w)
    return None


def generate_dataset(
    worlds: list[World],
    snapshots_per_world: int,
    rng: np.random.Generator,
    sensor: SensorConfig,
    d_o: float = 0.3,
    horizon: int = 50,
    dt: float = 0.1,
    sequences_per_snapshot: int = 50,
    seed: int = 0,
) -> ClearanceDataset:
    """Build a labeled dataset from simulated snapshots.

    Per snapshot: one noisy standardized cloud (input), one true cloud
    (reference), `sequences_per_snapshot` random command sequences, each
    labeled with min distance over (rollout point, reference cloud point)
    pairs, capped at max_range when the reference cloud is empty.
    """
    clouds, states = [], []
    snap_idx, controls, clearances = [], [], []
    snap = 0
    for wi, world in enumerate(worlds):
        produced = 0
        for _ in range(snapshots_per_world):
            state = sample_free_pose(world, rng, d_o)
            if state is None:
                break
            bias = BiasField(sensor.noise, seed=int(rng.integers(2**63)))
            noisy = estimated_scan(state, world, sensor, rng, t=0, bias=bias)
            cloud = standardize_cloud(noisy, sensor, rng, CLOUD_SIZE)
            reference = body_to_world(raycast_scan(state, world, sensor), state)
            cmd = sample_controls(rng, sequences_per_snapshot, horizon)
            d = worst_case_clearance(state, cmd, reference, dt, sensor.max_range)
            clouds.append(cloud)
            states.append(state.as_array())
            snap_idx.append(np.full(sequences_per_snapshot, snap))
            controls.append(cmd)
            clearances.append(d)
            snap += 1
            produced += 1
        if produced == 0:
            warnings.warn(f"world {wi} has no reachable free space; skipped")
    if snap == 0:
        raise ValueError("no snapshots could be generated from the given worlds")
    clearance = np.concatenate(clearances)
    return ClearanceDataset(
        clouds=np.stack(clouds),
        states=np.stack(states),
        snapshot=np.concatenate(snap_idx),
        controls=np.concatenate(controls),
        clearance=clearance,
        safe=(clearance >= d_o).astype(np.uint8),
        d_o=d_o,
        dt=dt,
        seed=seed,
        fov=sensor.fov,
        max_range=sensor.max_range,
    )

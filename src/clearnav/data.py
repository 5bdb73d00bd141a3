"""Training data: snapshot sampling, clearance labeling, dataset persistence.

Each snapshot is a random collision-free pose in a world: one noisy scan (the
model input) plus one noise-free scan (the labeling reference). Fifty random
command sequences per snapshot are labeled with the worst-case clearance of
their rollout against the reference cloud and a binary safe/collision tag.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

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
    read_npz,
    standardize_cloud,  # unused here: perfbench/tracer.py traces this binding
    true_clearance,
)

DATASET_VERSION = 3
_POSE_TRIES = 200  # random positions sample_free_pose draws before it gives up


@dataclass(eq=False)
class ClearanceDataset:
    """Column store over samples; snapshot-level arrays are shared, not copied.
    Each field is stored as it is; a named axis has one length in every array."""

    points: np.ndarray = field(metadata={"axes": ("points", 2)})  # the noisy scans, one after another
    counts: np.ndarray = field(metadata={"axes": ("snapshots",)})  # points per scan, in snapshot order
    states: np.ndarray = field(metadata={"axes": ("snapshots", 5)})  # RobotState.as_array
    snapshot: np.ndarray = field(metadata={"axes": ("samples",)})  # index into snapshot arrays
    controls: np.ndarray = field(metadata={"axes": ("samples", "horizon", 2)})
    clearance: np.ndarray = field(metadata={"axes": ("samples",)})
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
        return self.states.shape[0]

    @property
    def safe(self) -> np.ndarray:
        """(n_samples,) uint8, 1 = clearance >= d_o."""
        return (self.clearance >= self.d_o).astype(np.uint8)

    def save(self, path) -> None:
        arrays = {f.name: np.asarray(getattr(self, f.name)) for f in fields(self)}
        np.savez_compressed(path, version=np.array(DATASET_VERSION), **arrays)

    @classmethod
    def load(cls, path) -> "ClearanceDataset":
        """Read a dataset `save` wrote, strictly (see world.read_npz); bad counts or a snapshot
        index out of range also raise ValueError naming the file and the array."""
        axes = {f.name: f.metadata.get("axes", ()) for f in fields(cls)}
        arrays = read_npz(path, "dataset", DATASET_VERSION, axes,
                          advice="; regenerate it with clearnav gen-data")
        counts, n_points = arrays["counts"], arrays["points"].shape[0]
        if counts.dtype.kind not in "iu" or (counts < 0).any() or sum(counts.tolist()) != n_points:
            raise ValueError(f"{path}: array counts must hold non-negative integers summing to {n_points}")
        snapshot, n = arrays["snapshot"], arrays["states"].shape[0]
        if snapshot.dtype.kind not in "iu" or snapshot.size and not 0 <= snapshot.min() <= snapshot.max() < n:
            raise ValueError(f"{path}: array snapshot must hold integer indices in [0, {n})")
        return cls(**{k: v.item() if v.ndim == 0 else v for k, v in arrays.items()})


def sample_free_pose(world: World, rng: np.random.Generator, d_o: float) -> RobotState | None:
    """Random collision-free pose with v ~ U[-1,1] clipped to [0,1], w ~ U[-1,1]."""
    xmin, ymin, xmax, ymax = world.bounds
    for _ in range(_POSE_TRIES):
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

    Per snapshot: one noisy cloud (input), one true cloud (reference),
    `sequences_per_snapshot` random command sequences, each labeled with min
    distance over (rollout point, reference cloud point) pairs, capped at
    max_range when the reference cloud is empty.
    """
    clouds, states, controls, clearances = [], [], [], []
    for wi, world in enumerate(worlds):
        produced = 0
        for _ in range(snapshots_per_world):
            state = sample_free_pose(world, rng, d_o)
            if state is None:
                break
            bias = BiasField(sensor.noise, seed=int(rng.integers(2**63)))
            noisy = estimated_scan(state, world, sensor, rng, t=0, bias=bias)
            reference = body_to_world(raycast_scan(state, world, sensor), state)
            cmd = sample_controls(rng, sequences_per_snapshot, horizon)
            d = worst_case_clearance(state, cmd, reference, dt, sensor.max_range)
            clouds.append(noisy)
            states.append(state.as_array())
            controls.append(cmd)
            clearances.append(d)
            produced += 1
        if produced == 0:
            warnings.warn(f"world {wi} has no reachable free space; skipped")
    if not states:
        raise ValueError("no snapshots could be generated from the given worlds")
    return ClearanceDataset(
        points=np.concatenate(clouds),
        counts=np.array([len(c) for c in clouds]),
        states=np.stack(states),
        snapshot=np.repeat(np.arange(len(states)), sequences_per_snapshot),
        controls=np.concatenate(controls),
        clearance=np.concatenate(clearances),
        d_o=d_o,
        dt=dt,
        seed=seed,
        fov=sensor.fov,
        max_range=sensor.max_range,
    )

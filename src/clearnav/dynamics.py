"""Unicycle kinematics, command sampling and clamping, batched trajectory rollout."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

V_MIN = 0.0
V_MAX = 1.0
OMEGA_MAX = 1.0
DEFAULT_HORIZON = 50


@dataclass(frozen=True)
class RobotState:
    """Planar unicycle state: position (m), heading (rad), commanded velocities."""

    x: float
    y: float
    psi: float
    v: float = 0.0
    omega: float = 0.0

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi, self.v, self.omega])


def step(state: RobotState, v: float, w: float, dt: float) -> RobotState:
    """One unicycle update:

    x' = x + v cos(psi) dt,  y' = y + v sin(psi) dt,  psi' = psi + w dt.

    The new state carries the applied command in its v/omega fields.
    """
    return RobotState(
        state.x + v * math.cos(state.psi) * dt,
        state.y + v * math.sin(state.psi) * dt,
        state.psi + w * dt,
        v,
        w,
    )


def rollout_batch(initial: RobotState, commands: np.ndarray, dt: float) -> np.ndarray:
    """Vectorized rollout of many command sequences from one state.

    commands: (n, H, 2). Returns poses (n, H+1, 3) of (x, y, psi).
    """
    commands = np.asarray(commands, dtype=float)
    n, h, _ = commands.shape
    v = commands[:, :, 0]
    w = commands[:, :, 1]
    psi = np.empty((n, h + 1))
    psi[:, 0] = initial.psi
    psi[:, 1:] = initial.psi + dt * np.cumsum(w, axis=1)
    # heading BEFORE each step drives the translation of that step
    dx = v * np.cos(psi[:, :-1]) * dt
    dy = v * np.sin(psi[:, :-1]) * dt
    poses = np.empty((n, h + 1, 3))
    poses[:, 0, 0] = initial.x
    poses[:, 0, 1] = initial.y
    poses[:, 1:, 0] = initial.x + np.cumsum(dx, axis=1)
    poses[:, 1:, 1] = initial.y + np.cumsum(dy, axis=1)
    poses[:, :, 2] = psi
    return poses


def sample_controls(rng: np.random.Generator, n: int, horizon: int = DEFAULT_HORIZON) -> np.ndarray:
    """Draw n command sequences (n, H, 2), each entry uniform on [-1, 1] with v clamped to [0, 1].

    The clamp leaves a point mass at v = 0 (mass 1/2 per step); kept deliberately.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    raw = rng.uniform(-1.0, 1.0, size=(n, horizon, 2))
    raw[:, :, 0] = np.clip(raw[:, :, 0], V_MIN, V_MAX)
    return raw


def clip_command_batch(raw: np.ndarray) -> np.ndarray:
    """Clamp flat (n, 2H) rows [v_0, w_0, v_1, w_1, ...] to the command bounds,
    into a new array; raw is left unchanged."""
    out = np.empty(raw.shape)
    # maximum then minimum, as np.clip with array bounds does: np.clip with
    # scalar bounds would keep a -0.0 speed where this returns 0.0
    for col, lo, hi in ((0, V_MIN, V_MAX), (1, -OMEGA_MAX, OMEGA_MAX)):
        o = out[:, col::2]
        np.maximum(raw[:, col::2], lo, out=o)
        np.minimum(o, hi, out=o)
    return out

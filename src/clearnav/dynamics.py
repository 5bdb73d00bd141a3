"""Unicycle kinematics, command sampling and clamping, trajectory rollout."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

V_MIN = 0.0
V_MAX = 1.0
OMEGA_MAX = 1.0
DEFAULT_HORIZON = 50
DEFAULT_DT = 0.1


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

    @property
    def pose(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi, self.v, self.omega])


@dataclass(frozen=True, eq=False)
class ControlSequence:
    """Fixed-horizon array of (v, omega) commands applied at interval dt."""

    commands: np.ndarray  # (H, 2) columns [v, omega]
    dt: float = DEFAULT_DT

    def __post_init__(self):
        cmd = np.asarray(self.commands, dtype=float)
        if cmd.ndim != 2 or cmd.shape[1] != 2:
            raise ValueError(f"commands must be (H, 2), got {cmd.shape}")
        object.__setattr__(self, "commands", cmd)
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def horizon(self) -> int:
        return self.commands.shape[0]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Rollout result: (H+1, 5) rows of (x, y, psi, v, omega), row 0 = initial state."""

    states: np.ndarray

    @property
    def xy(self) -> np.ndarray:
        return self.states[:, :2]

    def __len__(self) -> int:
        return self.states.shape[0]


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


def rollout(initial: RobotState, u: ControlSequence) -> Trajectory:
    """Integrate the unicycle update for every command in u.

    The v/omega columns of state k+1 carry the command applied at step k.
    """
    h = u.horizon
    states = np.empty((h + 1, 5))
    states[0] = initial.as_array()
    s = initial
    for k in range(h):
        s = step(s, u.commands[k, 0], u.commands[k, 1], u.dt)
        states[k + 1] = (s.x, s.y, s.psi, s.v, s.omega)
    return Trajectory(states)


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
    """Clamp a flat (n, 2H) batch in place-compatible fashion; returns a new array."""
    out = raw.copy()
    out[:, 0::2] = np.clip(out[:, 0::2], V_MIN, V_MAX)
    out[:, 1::2] = np.clip(out[:, 1::2], -OMEGA_MAX, OMEGA_MAX)
    return out

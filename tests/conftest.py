from __future__ import annotations

import numpy as np
import pytest

from clearnav.dynamics import RobotState, step
from clearnav.world import Box, Circle, NoiseModel, SensorConfig, World


@pytest.fixture
def empty_world() -> World:
    return World((), (-5.0, -5.0, 15.0, 5.0), RobotState(0.0, 0.0, 0.0), (3.0, 0.0))


@pytest.fixture
def circle_world() -> World:
    return World(
        (Circle(2.0, 0.0, 1.0),),
        (-10.0, -10.0, 30.0, 10.0),
        RobotState(0.0, 0.0, 0.0),
        (6.0, 0.0),
    )


@pytest.fixture
def box_world() -> World:
    return World(
        (Box(3.0, -2.0, 3.5, 2.0),),
        (-10.0, -10.0, 30.0, 10.0),
        RobotState(0.0, 0.0, 0.0),
        (6.0, 0.0),
    )


@pytest.fixture
def quiet_sensor() -> SensorConfig:
    return SensorConfig(noise=NoiseModel())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def step_chain():
    """Reference rollout independent of rollout_batch: chain dynamics.step over
    (H, 2) commands from a RobotState and return the (H+1, 5) states."""

    def chain(initial: RobotState, commands, dt: float) -> np.ndarray:
        states = [initial]
        for v, w in np.asarray(commands, dtype=float):
            states.append(step(states[-1], v, w, dt))
        return np.array([s.as_array() for s in states])

    return chain

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearnav.dynamics import (
    ControlSequence,
    RobotState,
    clip_command_batch,
    rollout,
    rollout_batch,
    sample_controls,
)


def within_bounds(commands) -> bool:
    """Every (v, omega) pair in [0, 1] x [-1, 1]; commands (..., 2) or flat (..., 2H)."""
    pairs = np.asarray(commands).reshape(-1, 2)
    return bool(((pairs[:, 0] >= 0) & (pairs[:, 0] <= 1) & (np.abs(pairs[:, 1]) <= 1)).all())


class TestRollout:
    def test_straight_line_step(self):
        u = ControlSequence(np.array([[1.0, 0.0]]), dt=0.1)
        traj = rollout(RobotState(0, 0, 0), u)
        assert traj.states[1][:3] == pytest.approx([0.1, 0.0, 0.0])

    def test_zero_velocity_fixed_point(self):
        u = ControlSequence(np.zeros((50, 2)), dt=0.1)
        start = RobotState(1.0, 2.0, 0.7)
        traj = rollout(start, u)
        assert np.allclose(traj.xy, [1.0, 2.0])
        assert np.allclose(traj.states[:, 2], 0.7)

    def test_against_independent_recomputation(self, rng):
        # oracle: step-by-step recomputation with plain python floats
        cmds = rng.uniform(-1, 1, (50, 2))
        cmds[:, 0] = np.clip(cmds[:, 0], 0, 1)
        u = ControlSequence(cmds, dt=0.1)
        start = RobotState(0.3, -0.2, 0.5)
        traj = rollout(start, u)
        x, y, psi = 0.3, -0.2, 0.5
        for k in range(50):
            v, w = float(cmds[k, 0]), float(cmds[k, 1])
            x += v * math.cos(psi) * 0.1
            y += v * math.sin(psi) * 0.1
            psi += w * 0.1
            assert abs(traj.states[k + 1, 0] - x) < 1e-12
            assert abs(traj.states[k + 1, 1] - y) < 1e-12
            assert abs(traj.states[k + 1, 2] - psi) < 1e-12

    def test_heading_closed_form(self, rng):
        cmds = rng.uniform(-1, 1, (50, 2))
        cmds[:, 0] = np.clip(cmds[:, 0], 0, 1)
        u = ControlSequence(cmds, dt=0.1)
        traj = rollout(RobotState(0, 0, 0.25), u)
        for k in range(51):
            assert traj.states[k, 2] == pytest.approx(0.25 + 0.1 * cmds[:k, 1].sum(), abs=1e-12)

    def test_step_distance_bounded(self, rng):
        for commands in sample_controls(rng, 5):
            traj = rollout(RobotState(0, 0, 0), ControlSequence(commands))
            steps = np.hypot(*np.diff(traj.xy, axis=0).T)
            assert steps.max() <= 0.1 + 1e-12

    def test_deterministic_bitwise(self, rng):
        cmds = rng.uniform(0, 1, (50, 2))
        u = ControlSequence(cmds, dt=0.1)
        a = rollout(RobotState(0.1, 0.2, 0.3), u)
        b = rollout(RobotState(0.1, 0.2, 0.3), u)
        assert np.array_equal(a.states, b.states)

    def test_batch_matches_scalar(self, rng):
        cmds = rng.uniform(-1, 1, (8, 50, 2))
        cmds[:, :, 0] = np.clip(cmds[:, :, 0], 0, 1)
        start = RobotState(0.5, -1.0, 2.0)
        poses = rollout_batch(start, cmds, 0.1)
        for i in range(8):
            traj = rollout(start, ControlSequence(cmds[i], 0.1))
            assert np.allclose(poses[i], traj.states[:, :3], atol=1e-12)


class TestSampleControls:
    def test_clip_mass_at_zero(self):
        rng = np.random.default_rng(0)
        v = sample_controls(rng, 2000)[:, :, 0].ravel()
        assert v.size == 100_000
        assert (v == 0.0).mean() == pytest.approx(0.5, abs=0.01)

    def test_invariants_hold(self, rng):
        commands = sample_controls(rng, 20)
        assert commands.shape == (20, 50, 2)
        assert within_bounds(commands)

    def test_seed_reproducible(self):
        a = sample_controls(np.random.default_rng(9), 5)
        b = sample_controls(np.random.default_rng(9), 5)
        assert np.array_equal(a, b)


class TestClipControls:
    """clip_command_batch on flat (n, 2H) rows [v_0, w_0, v_1, w_1, ...]."""

    def test_clamps_both_channels(self):
        assert clip_command_batch(np.array([[1.4, -2.0]]))[0] == pytest.approx([1.0, -1.0])

    def test_identity_in_range(self, rng):
        raw = rng.uniform([0, -1], [1, 1], (10, 2)).reshape(1, -1)
        assert np.array_equal(clip_command_batch(raw), raw)

    def test_lower_clamp_on_v(self):
        assert clip_command_batch(np.array([[-0.3, 0.5]]))[0] == pytest.approx([0.0, 0.5])

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_always_within_bounds(self, rows):
        raw = np.array(rows).reshape(1, -1)
        clipped = clip_command_batch(raw)
        assert within_bounds(clipped)
        assert np.array_equal(raw, np.array(rows).reshape(1, -1))  # input left unchanged


def test_control_sequence_validation():
    with pytest.raises(ValueError):
        ControlSequence(np.zeros((5, 3)))
    with pytest.raises(ValueError):
        ControlSequence(np.zeros((5, 2)), dt=0.0)

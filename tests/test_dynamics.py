from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearnav.dynamics import (
    OMEGA_MAX,
    V_MAX,
    V_MIN,
    RobotState,
    clip_command_batch,
    rollout_batch,
    sample_controls,
)


def within_bounds(commands) -> bool:
    """Every (v, omega) pair in [0, 1] x [-1, 1]; commands (..., 2) or flat (..., 2H)."""
    pairs = np.asarray(commands).reshape(-1, 2)
    return bool(((pairs[:, 0] >= 0) & (pairs[:, 0] <= 1) & (np.abs(pairs[:, 1]) <= 1)).all())


def rollout_one(initial: RobotState, commands, dt: float = 0.1) -> np.ndarray:
    """rollout_batch on a single (H, 2) sequence: its (H+1, 3) poses."""
    return rollout_batch(initial, np.asarray(commands)[None], dt)[0]


class TestRollout:
    def test_straight_line_step(self):
        poses = rollout_one(RobotState(0, 0, 0), [[1.0, 0.0]])
        assert poses[1] == pytest.approx([0.1, 0.0, 0.0])

    def test_zero_velocity_fixed_point(self):
        start = RobotState(1.0, 2.0, 0.7)
        poses = rollout_one(start, np.zeros((50, 2)))
        assert np.allclose(poses[:, :2], [1.0, 2.0])
        assert np.allclose(poses[:, 2], 0.7)

    def test_against_independent_recomputation(self, rng):
        # oracle: step-by-step recomputation with plain python floats
        cmds = rng.uniform(-1, 1, (50, 2))
        cmds[:, 0] = np.clip(cmds[:, 0], 0, 1)
        start = RobotState(0.3, -0.2, 0.5)
        poses = rollout_one(start, cmds)
        x, y, psi = 0.3, -0.2, 0.5
        for k in range(50):
            v, w = float(cmds[k, 0]), float(cmds[k, 1])
            x += v * math.cos(psi) * 0.1
            y += v * math.sin(psi) * 0.1
            psi += w * 0.1
            assert abs(poses[k + 1, 0] - x) < 1e-12
            assert abs(poses[k + 1, 1] - y) < 1e-12
            assert abs(poses[k + 1, 2] - psi) < 1e-12

    def test_heading_closed_form(self, rng):
        cmds = rng.uniform(-1, 1, (50, 2))
        cmds[:, 0] = np.clip(cmds[:, 0], 0, 1)
        poses = rollout_one(RobotState(0, 0, 0.25), cmds)
        for k in range(51):
            assert poses[k, 2] == pytest.approx(0.25 + 0.1 * cmds[:k, 1].sum(), abs=1e-12)

    def test_step_distance_bounded(self, rng):
        for poses in rollout_batch(RobotState(0, 0, 0), sample_controls(rng, 5), 0.1):
            steps = np.hypot(*np.diff(poses[:, :2], axis=0).T)
            assert steps.max() <= 0.1 + 1e-12

    def test_deterministic_bitwise(self, rng):
        cmds = rng.uniform(0, 1, (50, 2))
        a = rollout_one(RobotState(0.1, 0.2, 0.3), cmds)
        b = rollout_one(RobotState(0.1, 0.2, 0.3), cmds)
        assert np.array_equal(a, b)

    def test_batch_matches_scalar(self, rng, step_chain):
        cmds = rng.uniform(-1, 1, (8, 50, 2))
        cmds[:, :, 0] = np.clip(cmds[:, :, 0], 0, 1)
        start = RobotState(0.5, -1.0, 2.0)
        poses = rollout_batch(start, cmds, 0.1)
        for i in range(8):
            assert np.allclose(poses[i], step_chain(start, cmds[i], 0.1)[:, :3], atol=1e-12)


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

    @pytest.mark.parametrize("n, horizon", [(1, 1), (1, 7), (3, 50), (192, 50)])
    def test_equals_clip_against_tiled_bounds_bit_for_bit(self, rng, n, horizon):
        # -0.0 speeds come out as 0.0, as np.clip with array bounds returns them
        special = np.repeat([-0.0, np.nan, np.inf, -np.inf, 0.0, 1.0, -1.0], 2)  # in a v and an omega column
        raw = rng.normal(0.5, 2.0, (n, 2 * horizon))
        k = min(raw.size, special.size)
        raw.ravel()[:k] = special[:k]
        before = raw.copy()
        bounds = np.array([[V_MIN, -OMEGA_MAX], [V_MAX, OMEGA_MAX]])
        assert clip_command_batch(raw).tobytes() == np.clip(raw, *np.tile(bounds, horizon)).tobytes()
        assert raw.tobytes() == before.tobytes()

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_always_within_bounds(self, rows):
        raw = np.array(rows).reshape(1, -1)
        clipped = clip_command_batch(raw)
        assert within_bounds(clipped)
        assert np.array_equal(raw, np.array(rows).reshape(1, -1))  # input left unchanged


from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clearnav.data
import clearnav.model
from clearnav.bench import EpisodeConfig, make_clutter_world, make_predictor_factory, run_episode
from clearnav.data import generate_dataset
from clearnav.dynamics import RobotState, rollout_batch, sample_controls
from clearnav.model import (
    LAMBDA_FLOOR,
    ClearanceIndex,
    ModelParams,
    PolarFeaturizer,
    RiskHeadParams,
    forward_batch,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    softplus,
    worst_case_clearance,
)
from clearnav.planner import PlannerConfig
from clearnav.world import (
    Box,
    Circle,
    NoiseModel,
    SensorConfig,
    World,
    body_to_world,
    raycast_scan,
)


def make_params(seed=0, n_features=34, horizon=50, hidden=64):
    return ModelParams.init(np.random.default_rng(seed), n_features, horizon, hidden)


def featurize(cloud, state, sensor):
    return PolarFeaturizer(sensor.fov, sensor.max_range).featurize(cloud, state)


class TestFeaturize:
    def test_empty_cloud_is_exactly_ones(self, quiet_sensor):
        obs = featurize(np.empty((0, 2)), RobotState(0, 0, 0, 0.4, -0.2), quiet_sensor)
        assert obs.shape == (34,)
        assert np.array_equal(obs[:32], np.ones(32))
        assert np.array_equal(obs[-2:], [0.4, -0.2])

    def test_single_point_sector(self, quiet_sensor):
        # one return at range 1.0 with max_range 5.0 -> 0.2 in its sector
        cloud = np.array([[1.0, 0.0]])
        sectors = featurize(cloud, RobotState(0, 0, 0), quiet_sensor)[:32]
        bearing_zero_sector = 16  # fov/2 boundary maps bearing 0 to sector S/2
        assert sectors[bearing_zero_sector] == pytest.approx(0.2)
        others = np.delete(sectors, bearing_zero_sector)
        assert others == pytest.approx(np.ones(31))

    def test_permutation_invariant(self, quiet_sensor, rng):
        cloud = rng.uniform(-2, 2, (300, 2))
        state = RobotState(0, 0, 0, 0.1, 0.1)
        ref = featurize(cloud, state, quiet_sensor)
        for _ in range(100):
            shuffled = cloud[rng.permutation(300)]
            assert np.array_equal(featurize(shuffled, state, quiet_sensor), ref)

    def test_bounded_features(self, quiet_sensor, rng):
        cloud = rng.uniform(-8, 8, (300, 2))  # some beyond max_range
        sectors = featurize(cloud, RobotState(0, 0, 0), quiet_sensor)[:32]
        assert (sectors >= 0).all() and (sectors <= 1).all()


class TestPredict:
    def test_positive_sigma_and_floored_lambda(self, rng):
        params = make_params()
        for _ in range(20):
            x = rng.normal(0, 2, (1, 34 + 100))
            mu, sigma, lam = forward_batch(params, x)
            assert sigma[0] > 0
            assert lam[0] >= LAMBDA_FLOOR

    def test_zero_weight_network_is_constant(self, rng):
        zero = make_params()
        zero.vector[:] = 0.0
        zero.b3[:] = [0.7, 0.1, -0.2]
        outs = [forward_batch(zero, rng.normal(0, 1, (1, 134))) for _ in range(5)]
        for mu, sigma, lam in outs:
            assert mu[0] == pytest.approx(0.7)
            assert sigma[0] == pytest.approx(softplus(0.1))
            assert lam[0] == pytest.approx(LAMBDA_FLOOR + softplus(-0.2))

    def test_against_independent_matrix_arithmetic(self, rng):
        # oracle: plain per-element loops, no shared code with forward_batch
        params = make_params(seed=3)
        x = rng.normal(0, 1, 134)
        h1 = [math.tanh(sum(params.w1[i, j] * x[j] for j in range(134)) + params.b1[i]) for i in range(64)]
        h2 = [math.tanh(sum(params.w2[i, j] * h1[j] for j in range(64)) + params.b2[i]) for i in range(64)]
        g = [sum(params.w3[i, j] * h2[j] for j in range(64)) + params.b3[i] for i in range(3)]
        mu, sigma, lam = predict_batch(params, x[:34], x[34:])
        assert mu[0] == pytest.approx(g[0], abs=1e-10)
        assert sigma[0] == pytest.approx(math.log1p(math.exp(-abs(g[1]))) + max(g[1], 0), abs=1e-10)
        assert lam[0] == pytest.approx(1e-3 + math.log1p(math.exp(-abs(g[2]))) + max(g[2], 0), abs=1e-10)

    def test_smooth_in_inputs(self, rng):
        params = make_params()
        x = rng.normal(0, 1, 134)
        base = np.array(forward_batch(params, x[None, :])).ravel()
        delta = 1e-6
        for j in rng.choice(134, 10, replace=False):
            xp = x.copy()
            xp[j] += delta
            out = np.array(forward_batch(params, xp[None, :])).ravel()
            assert np.abs(out - base).max() < 1e-3  # O(delta) with moderate weights


class TestOraclePredict:
    """The oracle predictor: exact clearance against a noise-free scan from the state."""

    def predictor(self, world, state, sigma=0.05, sensor=None):
        sensor = sensor or SensorConfig()
        factory = make_predictor_factory("oracle", world, sensor, PlannerConfig(),
                                         EpisodeConfig(oracle_sigma=sigma), None)[0]
        return factory(None, state)

    def test_empty_world_capped(self, rng):
        world = World((), (-100, -100, 100, 100), RobotState(0, 0, 0), (3, 0))
        mu, _, _ = self.predictor(world, world.start)(sample_controls(rng, 3).reshape(3, -1))
        assert (mu == SensorConfig().max_range).all()  # empty scan -> capped

    def test_sigma_passthrough(self, circle_world, rng):
        predictor = self.predictor(circle_world, circle_world.start)
        _, sigma, _ = predictor(sample_controls(rng, 3).reshape(3, -1))
        assert (sigma == 0.05).all()

    def test_matches_label_function(self, rng):
        # cross-module consistency: oracle mu equals the dataset labeler
        world = World(
            (Circle(2.0, 0.5, 0.6), Circle(1.0, -1.5, 0.4)),
            (-5, -5, 8, 5),
            RobotState(0, 0, 0.2),
            (5, 0),
        )
        sensor = SensorConfig()
        for _ in range(100):
            state = RobotState(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-3, 3))
            commands = sample_controls(rng, 10)
            cloud_world = body_to_world(raycast_scan(state, world, sensor), state)
            expected = worst_case_clearance(state, commands, cloud_world, 0.1, sensor.max_range)
            got, _, _ = self.predictor(world, state, sensor=sensor)(commands.reshape(10, -1))
            assert got == pytest.approx(expected, abs=1e-9)


class TestWorstCaseClearance:
    def test_stationary_min_is_nearest_point(self, rng):
        cloud = rng.uniform(-3, 3, (40, 2))
        state = RobotState(0.5, 0.5, 1.0)
        cmds = np.zeros((1, 50, 2))
        d = worst_case_clearance(state, cmds, cloud, 0.1, 5.0)
        assert d[0] == pytest.approx(np.hypot(*(cloud - [0.5, 0.5]).T).min())

    def test_exhaustive_double_loop(self, rng, step_chain):
        cloud = rng.uniform(-3, 3, (25, 2))
        cmds = rng.uniform(0, 1, (3, 20, 2))
        cmds[:, :, 1] = rng.uniform(-1, 1, (3, 20))
        state = RobotState(0, 0, 0)
        got = worst_case_clearance(state, cmds, cloud, 0.1, 5.0)
        for i in range(3):
            brute = min(
                math.hypot(px - cx, py - cy)
                for px, py in step_chain(state, cmds[i], 0.1)[:, :2]
                for cx, cy in cloud
            )
            assert got[i] == pytest.approx(brute, abs=1e-9)


def dense_worst_case_clearance(initial, commands, cloud_world, dt, cap, index=None):
    """Every (rollout pose, cloud point) pair at once: the exactness reference.

    It takes the index argument of worst_case_clearance and ignores it, so it can
    stand in for the indexed calls too."""
    commands = np.asarray(commands, dtype=float)
    n = commands.shape[0]
    cloud_world = np.asarray(cloud_world, dtype=float).reshape(-1, 2)
    if cloud_world.shape[0] == 0:
        return np.full(n, cap)
    poses = rollout_batch(initial, commands, dt)
    diff = poses[:, :, None, :2] - cloud_world[None, None, :, :]
    d2 = np.einsum("nkpc,nkpc->nkp", diff, diff)
    return np.sqrt(d2.min(axis=(1, 2)))


@st.composite
def clearance_cases(draw):
    """(state, commands, cloud) covering the shapes and clouds the pruning must survive."""
    n = draw(st.integers(1, 6))
    horizon = draw(st.integers(1, 30))
    n_points = draw(st.integers(0, 40))
    cloud_kind = draw(st.sampled_from(["uniform", "duplicated", "far", "grid", "ring"]))
    zero_commands = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = RobotState(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-math.pi, math.pi))
    commands = np.zeros((n, horizon, 2))
    if not zero_commands:
        commands[:, :, 0] = rng.uniform(0, 1, (n, horizon))
        commands[:, :, 1] = rng.uniform(-1, 1, (n, horizon))
    cloud = rng.uniform(-4, 4, (n_points, 2))
    if cloud_kind == "duplicated" and n_points:
        cloud = cloud[rng.integers(0, n_points, n_points)]
    elif cloud_kind == "far":
        cloud += 1e3
    elif cloud_kind == "grid":  # coarse lattice: many exact distance ties
        cloud = np.round(cloud * 2) / 2
    elif cloud_kind == "ring":  # equidistant from the start pose: little to prune
        ang = rng.uniform(-math.pi, math.pi, n_points)
        cloud = np.stack([state.x + 1.5 * np.cos(ang), state.y + 1.5 * np.sin(ang)], axis=1)
    return state, commands, cloud


class TestWorstCaseClearanceExact:
    """Bound-and-refine against the dense all-pairs evaluation, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(clearance_cases())
    def test_equals_dense_reference(self, case):
        state, commands, cloud = case
        got = worst_case_clearance(state, commands, cloud, 0.1, 5.0)
        assert np.array_equal(got, dense_worst_case_clearance(state, commands, cloud, 0.1, 5.0))

    @pytest.mark.parametrize(
        "n, horizon, cloud",
        [
            (3, 50, np.empty((0, 2))),  # empty cloud -> cap
            (4, 50, np.array([[1.0, 0.5]])),  # single point
            (4, 50, np.repeat([[1.0, 0.5], [-0.5, 2.0]], 5, axis=0)),  # duplicated points
            (4, 50, np.array([[900.0, -700.0], [1e3, 1e3]])),  # far beyond every rollout
            (2, 12, np.array([[0.3, 0.2], [2.0, -1.0]])),  # H+1 not a multiple of the segment
            (1, 50, np.array([[0.3, 0.2], [2.0, -1.0]])),  # n = 1
            (3, 1, np.array([[0.3, 0.2], [2.0, -1.0]])),  # H = 1
        ],
    )
    def test_named_cases(self, n, horizon, cloud, rng):
        state = RobotState(0.1, -0.2, 0.4)
        cmds = np.stack([rng.uniform(0, 1, (n, horizon)), rng.uniform(-1, 1, (n, horizon))], axis=2)
        for commands in (cmds, np.zeros_like(cmds)):
            got = worst_case_clearance(state, commands, cloud, 0.1, 5.0)
            assert np.array_equal(got, dense_worst_case_clearance(state, commands, cloud, 0.1, 5.0))

    def test_dataset_labels_unchanged(self, monkeypatch):
        sensor = SensorConfig(noise=NoiseModel(range_bias_scale=0.2, additive_sigma=0.04))
        worlds = [make_clutter_world(np.random.default_rng(s)) for s in (3, 4)]

        def labels():
            return generate_dataset(worlds, 6, np.random.default_rng(11), sensor, seed=11).clearance

        fast = labels()
        monkeypatch.setattr(clearnav.data, "worst_case_clearance", dense_worst_case_clearance)
        assert np.array_equal(fast, labels())

    @pytest.mark.parametrize("method", ["oracle", "raw_costmap"])
    def test_episode_traces_unchanged(self, method, monkeypatch):
        world = make_clutter_world(np.random.default_rng(42))
        sensor = SensorConfig(noise=NoiseModel(range_bias_scale=0.22, additive_sigma=0.04))
        cfg = PlannerConfig(iterations=4, samples=64, risk_elites=16, elites=8, risk_draws=20)

        def episode():
            return run_episode(world, method, 5, sensor, cfg, EpisodeConfig(timeout_s=3.0))

        fast = episode()
        monkeypatch.setattr(clearnav.model, "worst_case_clearance", dense_worst_case_clearance)
        ref = episode()
        assert fast.result == ref.result
        assert np.array_equal(fast.commands, ref.commands)
        for key in ("mu", "sigma", "lam", "risk", "x", "y"):
            assert np.array_equal(fast.trace[key], ref.trace[key]), key

    @pytest.mark.parametrize("kind", ["random", "ring"])
    def test_memory_bounded(self, kind):
        # the dense evaluation of this call would hold ~500 MB of temporaries;
        # "ring" puts the cloud equidistant from stationary rollouts, so no pair
        # is pruned and every block refines all of its pairs
        rng = np.random.default_rng(0)
        n, horizon, n_points = 2048, 50, 300
        state = RobotState(0.0, 0.0, 0.0)
        if kind == "random":
            commands = np.stack(
                [rng.uniform(0, 1, (n, horizon)), rng.uniform(-1, 1, (n, horizon))], axis=2
            )
            cloud = rng.uniform(-4, 4, (n_points, 2))
        else:
            commands = np.zeros((n, horizon, 2))
            ang = np.linspace(-math.pi, math.pi, n_points, endpoint=False)
            cloud = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        tracemalloc.start()
        try:
            out = worst_case_clearance(state, commands, cloud, 0.1, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (n,) and np.isfinite(out).all()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("kind", ["random", "ring"])
    def test_index_memory_bounded(self, kind):
        # as above, through an index: "ring" keeps every pose of every row, and
        # each is refined against every point, since all are equidistant from it
        rng = np.random.default_rng(0)
        n, horizon, n_points = 2048, 50, 300
        state = RobotState(0.0, 0.0, 0.0)
        if kind == "random":
            commands = np.stack(
                [rng.uniform(0, 1, (n, horizon)), rng.uniform(-1, 1, (n, horizon))], axis=2
            )
            cloud = rng.uniform(-4, 4, (n_points, 2))
        else:
            commands = np.zeros((n, horizon, 2))
            ang = np.linspace(-math.pi, math.pi, n_points, endpoint=False)
            cloud = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        tracemalloc.start()
        try:
            index = ClearanceIndex(state, cloud)
            out = worst_case_clearance(state, commands, cloud, 0.1, 5.0, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(out[:8], dense_worst_case_clearance(state, commands[:8], cloud, 0.1, 5.0))
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("shape", [(4, 50), (4, 50, 3), (50, 2)])
    def test_rejects_bad_command_shape(self, shape):
        with pytest.raises(ValueError, match=r"\(n, H, 2\)"):
            worst_case_clearance(RobotState(0, 0, 0), np.zeros(shape), np.ones((3, 2)), 0.1, 5.0)

    def test_rejects_nan_cloud(self):
        cloud = np.array([[1.0, 0.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="cloud_world"):
            worst_case_clearance(RobotState(0, 0, 0), np.zeros((2, 10, 2)), cloud, 0.1, 5.0)

    def test_rejects_nonfinite_commands(self):
        commands = np.zeros((2, 10, 2))
        commands[1, 3, 1] = np.inf
        with pytest.raises(ValueError, match="commands"):
            worst_case_clearance(RobotState(0, 0, 0), commands, np.ones((3, 2)), 0.1, 5.0)

    def test_rejects_nonfinite_state(self):
        with pytest.raises(ValueError, match="initial state"):
            worst_case_clearance(
                RobotState(np.nan, 0, 0), np.zeros((2, 10, 2)), np.ones((3, 2)), 0.1, 5.0
            )


def indexed(state, commands, cloud):
    return worst_case_clearance(state, commands, cloud, 0.1, 5.0, ClearanceIndex(state, cloud))


def random_commands(rng, n, horizon, v_max=1.0):
    return np.stack([rng.uniform(0, v_max, (n, horizon)), rng.uniform(-1, 1, (n, horizon))], axis=2)


class TestClearanceIndex:
    """worst_case_clearance through a ClearanceIndex against the dense evaluation, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(clearance_cases())
    def test_equals_dense_reference(self, case):
        state, commands, cloud = case
        assert np.array_equal(indexed(state, commands, cloud),
                              dense_worst_case_clearance(state, commands, cloud, 0.1, 5.0))

    def test_empty_cloud_returns_cap(self, rng):
        state = RobotState(0.3, -0.2, 0.1)
        got = indexed(state, random_commands(rng, 4, 20), np.empty((0, 2)))
        assert np.array_equal(got, np.full(4, 5.0))

    @pytest.mark.parametrize(
        "cloud",
        [
            np.array([[1.0, 0.5]]),  # a single point
            np.array([[0.1, -0.2], [1.0, 0.5], [-0.7, 0.3]]),  # the start is a cloud point
            np.random.default_rng(5).normal([1.5, 0.4], 0.05, (200, 2)),  # one tight cluster
            np.random.default_rng(6).normal([[1.0, 1.0], [-2.0, 0.5], [0.5, -1.5]], 0.1, (60, 3, 2))
            .reshape(-1, 2),  # three clusters
            np.stack([0.1 + 1.2 * np.cos(np.linspace(0, 6.2, 150)),
                      -0.2 + 1.2 * np.sin(np.linspace(0, 6.2, 150))], axis=1),  # ring about the start
            np.stack([np.linspace(-12, 12, 400), np.full(400, 2.5)], axis=1),  # a wall past the grid
        ],
    )
    def test_named_clouds(self, cloud, rng):
        state = RobotState(0.1, -0.2, 0.4)
        for commands in (random_commands(rng, 24, 50), np.zeros((3, 50, 2)), random_commands(rng, 5, 1)):
            assert np.array_equal(indexed(state, commands, cloud),
                                  dense_worst_case_clearance(state, commands, cloud, 0.1, 5.0))

    def test_commands_leave_the_grid(self, rng):
        # 150 steps at up to 1 m/s run past the grid's reach and past every place
        # within d0 of the cloud; the second cloud spans more than the grid
        state = RobotState(0.0, 0.0, 0.0)
        commands = random_commands(rng, 64, 150)
        commands[:8, :, 0] = 1.0
        commands[:8, :, 1] = 0.0
        for cloud in (rng.uniform(-1.5, 1.5, (80, 2)) + [0.0, 1.0], rng.uniform(-15, 15, (300, 2))):
            assert np.array_equal(indexed(state, commands, cloud),
                                  dense_worst_case_clearance(state, commands, cloud, 0.1, 5.0))

    def test_start_on_cell_edges(self):
        # the start lies on a cloud point (d0 = 0) within a few ulps of a whole
        # number of cells from the cloud's corner, where the grid has its origin:
        # rounding can put the start in a neighbouring cell, just past its edge
        rng = np.random.default_rng(9)
        zero = np.zeros((2, 4, 2))
        for _ in range(400):
            corner = rng.uniform(-10, 10, 2)
            edge = corner + rng.integers(1, 60, 2) * clearnav.model._CELL
            start = edge + rng.integers(-3, 4, 2) * np.spacing(edge)
            state = RobotState(start[0], start[1], rng.uniform(-math.pi, math.pi))
            assert np.array_equal(indexed(state, zero, np.array([start, corner])), np.zeros(2))

    def test_start_outside_the_arena(self):
        # a robot past the arena's wall: the wall gives a range-0 hit at its own
        # position, so the start is a cloud point and every rollout's clearance is 0
        world = World((Box(4.0, 3.0, 5.0, 4.0),), (0.0, 0.0, 10.0, 8.0), RobotState(1, 1, 0), (9, 4))
        state = RobotState(5.1, -0.06, -math.pi / 2)
        sensor = SensorConfig(fov=math.radians(69.0), n_rays=120, max_range=5.0)
        cloud = np.unique(body_to_world(raycast_scan(state, world, sensor), state), axis=0)
        assert (np.hypot(*(cloud - state.position).T) < 1e-12).any()
        commands = random_commands(np.random.default_rng(3), 32, 50)
        got = indexed(state, commands, cloud)
        assert np.array_equal(got, dense_worst_case_clearance(state, commands, cloud, 0.1, 5.0))

    def test_rejects_nonfinite_cloud(self):
        with pytest.raises(ValueError, match="cloud_world"):
            ClearanceIndex(RobotState(0, 0, 0), np.array([[1.0, 0.0], [np.inf, 2.0]]))

    def test_rejects_nonfinite_start(self):
        with pytest.raises(ValueError, match="initial state"):
            ClearanceIndex(RobotState(0, np.nan, 0), np.ones((3, 2)))

    def test_rejects_another_start(self):
        cloud = np.array([[1.0, 0.0], [0.0, 2.0]])
        index = ClearanceIndex(RobotState(0.0, 0.0, 0.0), cloud)
        for other in (RobotState(0.0, 0.5, 0.0), RobotState(1e-12, 0.0, 0.0)):
            with pytest.raises(ValueError, match="initial state"):
                worst_case_clearance(other, np.zeros((2, 5, 2)), cloud, 0.1, 5.0, index)
        # d0 depends on the start position only: another heading keeps the index valid
        turned = RobotState(0.0, 0.0, 1.0, 0.5, -0.2)
        commands = random_commands(np.random.default_rng(2), 6, 30)
        assert np.array_equal(worst_case_clearance(turned, commands, cloud, 0.1, 5.0, index),
                              dense_worst_case_clearance(turned, commands, cloud, 0.1, 5.0))

    def test_rejects_another_cloud(self):
        state = RobotState(0.0, 0.0, 0.0)
        cloud = np.array([[1.0, 0.0], [0.0, 2.0]])
        index = ClearanceIndex(state, cloud)
        for other in (cloud[:1], cloud + 0.1, cloud[::-1]):
            with pytest.raises(ValueError, match="not the cloud"):
                worst_case_clearance(state, np.zeros((2, 5, 2)), other, 0.1, 5.0, index)

    def test_cloud_compared_by_value(self):
        state = RobotState(0.0, 0.0, 0.0)
        cloud = np.array([[1.0, 0.0], [0.0, 2.0]])
        index = ClearanceIndex(state, cloud)
        cloud[0, 0] = 7.0  # the index keeps its own copy
        with pytest.raises(ValueError, match="not the cloud"):
            worst_case_clearance(state, np.zeros((2, 5, 2)), cloud, 0.1, 5.0, index)
        got = worst_case_clearance(state, np.zeros((2, 5, 2)), [[1.0, 0.0], [0.0, 2.0]], 0.1, 5.0, index)
        assert np.array_equal(got, np.ones(2))


class TestCheckpoint:
    def save(self, path, params=None, phi=None, **replace):
        """Save a checkpoint, then overwrite the named stored arrays; a None value drops the array."""
        save_checkpoint(path, params or make_params(), phi, None)
        data = dict(np.load(path))
        data.update(replace)
        np.savez(path, **{k: v for k, v in data.items() if v is not None})

    def test_round_trip(self, tmp_path, rng):
        params = make_params(seed=5)
        phi = RiskHeadParams.init(rng, 16)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, phi, {"n_sectors": 32, "d_o": 0.3})
        p2, phi2, meta = load_checkpoint(path)
        assert np.array_equal(p2.vector, params.vector)
        assert np.array_equal(phi2.vector, phi.vector)
        assert meta == {"n_sectors": 32, "d_o": 0.3}
        assert p2.horizon == params.horizon and p2.n_features == params.n_features
        assert p2.hidden == params.hidden and phi2.hidden == phi.hidden

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        self.save(path, version=np.array(99))
        with pytest.raises(ValueError, match=r"model\.npz: checkpoint version 99, expected 1$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["version", "hidden", "w2", "rh_v2", "rh_v1"])
    def test_missing_array_is_refused_naming_the_file(self, tmp_path, rng, key):
        # the risk head is all four arrays or none: without rh_v1 it is not silently dropped
        path = tmp_path / "model.npz"
        self.save(path, phi=RiskHeadParams.init(rng, 16), **{key: None})
        with pytest.raises(ValueError, match=rf"model\.npz: arrays: missing key '{key}'$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["n_features", "horizon", "hidden"])
    def test_non_integer_header_is_refused_naming_the_file(self, tmp_path, key):
        # int() would truncate 34.7 to 34
        path = tmp_path / "model.npz"
        self.save(path, **{key: np.array(34.7)})
        with pytest.raises(ValueError, match=rf"model\.npz: array {key} must hold an integer, got 34\.7$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("meta", [b"{not json", b"\xff\xfe", b"[1, 2]"],
                             ids=["not-json", "not-utf8", "not-object"])
    def test_meta_that_is_not_a_json_object_is_refused_naming_the_file(self, tmp_path, meta):
        path = tmp_path / "model.npz"
        self.save(path, meta_json=np.frombuffer(meta, dtype=np.uint8))
        with pytest.raises(ValueError, match=r"model\.npz: array meta_json does not hold a JSON object$"):
            load_checkpoint(path)

    def test_unknown_array_is_refused_naming_the_file(self, tmp_path):
        path = tmp_path / "model.npz"
        self.save(path, w4=np.zeros(3))
        with pytest.raises(ValueError, match=r"model\.npz: arrays: unknown key 'w4'$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["augmented", "baseline_nll"])
    def test_stored_weights_load_to_their_raw_arrays(self, name):
        path = Path(__file__).parents[1] / "perfbench" / "weights" / f"{name}.npz"
        params, risk_head, meta = load_checkpoint(path)
        with np.load(path) as z:
            raw = dict(z)
        header = tuple(int(raw[k]) for k in ("n_features", "horizon", "hidden"))
        assert (params.n_features, params.horizon, params.hidden) == header
        loaded = {**{k: getattr(params, k) for k in params.names},
                  **{"rh_" + k: getattr(risk_head, k) for k in risk_head.names}}
        for key, arr in loaded.items():
            assert arr.dtype == raw[key].dtype and arr.shape == raw[key].shape
            assert arr.tobytes() == raw[key].tobytes(), key
        assert risk_head.hidden == raw["rh_v1"].size
        assert meta == json.loads(raw["meta_json"].tobytes())

    def test_vector_round_trip(self):
        # the named arrays are views of the flat vector, in w1..b3 order
        params = make_params(seed=8)
        vec = params.vector.copy()
        assert np.array_equal(np.concatenate([getattr(params, n).ravel() for n in params.names]), vec)
        params.vector += 1.0
        assert np.array_equal(params.w1.ravel(), vec[: params.w1.size] + 1.0)
        params.b3[:] = 0.0
        assert np.array_equal(params.vector[-3:], np.zeros(3))
        with pytest.raises(ValueError, match="vector"):
            ModelParams(vec[:-1], params.n_features, params.horizon, params.hidden)

    def test_rejects_nonfinite_params(self, tmp_path):
        # non-finite weights are refused where they enter the program
        w2 = make_params().w2.copy()
        w2[0, 0] = np.nan
        path = tmp_path / "model.npz"
        self.save(path, w2=w2)
        with pytest.raises(ValueError, match=r"model\.npz: array w2 contains non-finite"):
            load_checkpoint(path)

    def test_horizon_mismatch(self, tmp_path):
        # stored horizon 10 needs w1 of width 34 + 2 * 10, but it holds 34 + 2 * 50
        path = tmp_path / "model.npz"
        self.save(path, horizon=np.array(10))
        with pytest.raises(ValueError, match=r"array w1 has shape \(64, 134\), but .*horizon=10"):
            load_checkpoint(path)

    def test_rejects_misshaped_w1(self, tmp_path):
        path = tmp_path / "model.npz"
        self.save(path, w1=np.zeros((64, 133)))
        with pytest.raises(ValueError, match=r"model\.npz: array w1 has shape \(64, 133\).*\(64, 134\)"):
            load_checkpoint(path)

    def test_rejects_misshaped_risk_head(self, tmp_path, rng):
        path = tmp_path / "model.npz"
        self.save(path, phi=RiskHeadParams.init(rng, 16), rh_v2=np.zeros((16, 2)))
        with pytest.raises(ValueError, match=r"model\.npz: array rh_v2 has shape \(16, 2\).*\(2, 16\)"):
            load_checkpoint(path)

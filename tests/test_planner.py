from __future__ import annotations

import numpy as np
import pytest

from clearnav.bench import EpisodeConfig, oracle_factory
from clearnav.dynamics import ControlSequence, RobotState, rollout
from clearnav.planner import (
    PlannerConfig,
    PlanningError,
    SimState,
    initial_distribution,
    mpc_step,
    plan,
    shift_warm_start,
    state_cost,
)
from clearnav.world import NoiseModel, SensorConfig, World


def fast_cfg(**kw) -> PlannerConfig:
    base = dict(iterations=8, samples=128, risk_elites=32, elites=12, risk_draws=25, seed=0)
    base.update(kw)
    return PlannerConfig(**base)


def oracle_predictor(world, cfg, state=None, sigma=0.05):
    sensor = SensorConfig(noise=NoiseModel())
    factory = oracle_factory(world, sensor, cfg, EpisodeConfig(oracle_sigma=sigma))
    return factory(None, state or world.start)


class TestStateCost:
    def test_zero_at_goal(self):
        traj = rollout(RobotState(3, 0, 0), ControlSequence(np.zeros((10, 2))))
        assert state_cost(traj, (3.0, 0.0)) == 0.0

    def test_single_step_arithmetic(self):
        traj = rollout(RobotState(0, 0, 0), ControlSequence(np.zeros((1, 2))))
        # two points, both at distance 2
        assert state_cost(traj, (2.0, 0.0)) == pytest.approx(8.0)

    def test_matches_per_point_summation(self, rng):
        cmds = rng.uniform(0, 1, (50, 2))
        cmds[:, 1] = rng.uniform(-1, 1, 50)
        traj = rollout(RobotState(0, 0, 0), ControlSequence(cmds))
        goal = (2.5, -1.0)
        brute = sum((x - goal[0]) ** 2 + (y - goal[1]) ** 2 for x, y in traj.xy)
        assert state_cost(traj, goal) == pytest.approx(brute, rel=1e-12)


class TestPlan:
    def test_empty_world_reaches_goal(self, empty_world):
        cfg = PlannerConfig(iterations=20, samples=512, risk_elites=128, elites=32, seed=3)
        pred = oracle_predictor(empty_world, cfg)
        res = plan(empty_world.start, pred, empty_world.goal, cfg, np.random.default_rng(0))
        end = res.trajectory.xy[-1]
        assert np.hypot(end[0] - 3.0, end[1]) < 0.5
        assert res.controls.commands[:, 0].mean() > 0.1

    def test_effort_only_objective(self, empty_world):
        # 100-dim command box: the sampling distribution needs a few dozen
        # rounds to contract onto the zero-effort corner
        cfg = PlannerConfig(iterations=40, w_state=0.0, w_risk=0.0, w_effort=1.0, seed=0)
        pred = oracle_predictor(empty_world, cfg)
        res = plan(empty_world.start, pred, empty_world.goal, cfg, np.random.default_rng(1))
        assert res.effort == res.cost
        assert np.abs(res.controls.commands).mean() < 0.1

    def test_single_obstacle_avoidance_rate(self, circle_world):
        # judge with the exact clearance of the chosen trajectory
        from clearnav.world import true_clearance

        cfg = fast_cfg(w_risk=1000.0)
        hits = 0
        for seed in range(100):
            pred = oracle_predictor(circle_world, cfg)
            res = plan(
                circle_world.start, pred, circle_world.goal, cfg, np.random.default_rng(seed)
            )
            min_clear = min(true_clearance(p, circle_world) for p in res.trajectory.xy)
            hits += min_clear >= cfg.d_o
        assert hits >= 95

    def test_best_cost_monotone(self, circle_world):
        cfg = fast_cfg()
        pred = oracle_predictor(circle_world, cfg)
        res = plan(circle_world.start, pred, circle_world.goal, cfg, np.random.default_rng(5))
        costs = [s.best_cost for s in res.iterations]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert len(costs) == cfg.iterations

    def test_bounds_exact(self, circle_world, rng):
        cfg = fast_cfg()
        pred = oracle_predictor(circle_world, cfg)
        res = plan(circle_world.start, pred, circle_world.goal, cfg, rng)
        v, w = res.controls.commands.T
        assert (v >= 0).all() and (v <= 1).all() and (np.abs(w) <= 1).all()

    def test_deterministic(self, circle_world):
        cfg = fast_cfg(seed=9)
        pred = oracle_predictor(circle_world, cfg)
        a = plan(circle_world.start, pred, circle_world.goal, cfg)
        b = plan(circle_world.start, pred, circle_world.goal, cfg)
        assert np.array_equal(a.controls.commands, b.controls.commands)
        assert a.cost == b.cost and a.risk == b.risk
        assert [s.best_cost for s in a.iterations] == [s.best_cost for s in b.iterations]

    def test_all_invalid_predictions_raise(self, empty_world):
        cfg = fast_cfg()

        def broken(u):
            n = u.shape[0]
            return np.full(n, np.nan), np.ones(n), np.ones(n)

        with pytest.raises(PlanningError):
            plan(empty_world.start, broken, empty_world.goal, cfg, np.random.default_rng(0))

    def test_partial_invalid_skipped(self, empty_world):
        cfg = fast_cfg()
        sensor_pred = oracle_predictor(empty_world, cfg)

        def flaky(u):
            mu, sigma, lam = sensor_pred(u)
            mu = mu.copy()
            mu[::7] = np.nan  # every 7th candidate fails
            return mu, sigma, lam

        res = plan(empty_world.start, flaky, empty_world.goal, cfg, np.random.default_rng(0))
        assert np.isfinite(res.cost)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(samples=10, risk_elites=20, elites=5)
        with pytest.raises(ValueError):
            PlannerConfig(smoothing=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(w_risk=-1.0)


class TestEliteSelection:
    def test_constraint_elite_partition(self, circle_world):
        # selection correctness on raw arrays: max risk inside <= min outside
        rng = np.random.default_rng(0)
        risk = rng.uniform(0, 1, 100)
        order = np.argsort(risk, kind="stable")[:30]
        inside = risk[order]
        outside = np.delete(risk, order)
        assert inside.max() <= outside.min()

    def test_stable_tie_break(self):
        risk = np.array([0.3, 0.1, 0.3, 0.1])
        order = np.argsort(risk, kind="stable")[:2]
        assert list(order) == [1, 3]  # equal values keep index order


class TestWarmStart:
    def test_shift_rule(self):
        nu = np.arange(10, dtype=float)  # 5 command pairs
        shifted = shift_warm_start(nu, 1)
        assert list(shifted) == [2, 3, 4, 5, 6, 7, 8, 9, 8, 9]

    def test_shift_zero_is_copy(self):
        nu = np.arange(6, dtype=float)
        out = shift_warm_start(nu, 0)
        assert np.array_equal(out, nu) and out is not nu

    def test_initial_distribution_shape(self):
        cfg = PlannerConfig()
        nu, var = initial_distribution(cfg)
        assert nu[0::2] == pytest.approx(np.full(50, 0.5))
        assert nu[1::2] == pytest.approx(np.zeros(50))
        assert var == pytest.approx(np.full(100, 0.25))


class TestMpcStep:
    def test_progress_toward_goal_behind(self):
        # goal behind the start, outside the forward fov; turning is allowed
        world = World((), (-10, -5, 10, 5), RobotState(0, 0, 0), (-3.0, 0.0))
        sensor = SensorConfig(noise=NoiseModel())
        cfg = fast_cfg(iterations=6, samples=96)
        factory = oracle_factory(world, sensor, cfg, EpisodeConfig())
        sim = SimState(state=world.start, rng=np.random.default_rng(0))
        d0 = np.hypot(world.start.x + 3.0, world.start.y)
        for _ in range(30):
            mpc_step(sim, world, sensor, factory, world.goal, cfg, exec_horizon=5)
        d1 = np.hypot(sim.state.x + 3.0, sim.state.y)
        assert d1 < d0 - 0.5

    def test_empty_world_episode_under_60s(self, empty_world):
        sensor = SensorConfig(noise=NoiseModel())
        cfg = fast_cfg()
        factory = oracle_factory(empty_world, sensor, cfg, EpisodeConfig())
        sim = SimState(state=empty_world.start, rng=np.random.default_rng(4))
        goal = np.asarray(empty_world.goal)
        for _ in range(120):  # 120 * 5 steps * 0.1 s = 60 s budget
            mpc_step(sim, empty_world, sensor, factory, goal, cfg, exec_horizon=5)
            if np.hypot(sim.state.x - goal[0], sim.state.y - goal[1]) <= 0.5:
                break
        assert np.hypot(sim.state.x - goal[0], sim.state.y - goal[1]) <= 0.5
        assert sim.t * cfg.dt < 60.0

    def test_warm_start_threads_through(self, empty_world):
        sensor = SensorConfig(noise=NoiseModel())
        cfg = fast_cfg()
        factory = oracle_factory(empty_world, sensor, cfg, EpisodeConfig())
        sim = SimState(state=empty_world.start, rng=np.random.default_rng(0))
        _, res = mpc_step(sim, empty_world, sensor, factory, empty_world.goal, cfg, exec_horizon=2)
        assert np.array_equal(sim.nu, shift_warm_start(res.nu, 2))
        assert sim.t == 2

from __future__ import annotations

import ctypes
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import clearnav
from clearnav.bench import EpisodeConfig, make_predictor_factory
from clearnav.dynamics import RobotState, rollout_batch
from clearnav.planner import (
    PlannerConfig,
    PlanningError,
    SimState,
    initial_distribution,
    mpc_step,
    plan,
    shift_warm_start,
)
from clearnav.world import BiasField, NoiseModel, SensorConfig, World


def fast_cfg(**kw) -> PlannerConfig:
    base = dict(iterations=8, samples=128, risk_elites=32, elites=12, risk_draws=25, seed=0)
    base.update(kw)
    return PlannerConfig(**base)


def oracle_predictor(world, cfg, state=None, sigma=0.05):
    sensor = SensorConfig(noise=NoiseModel())
    factory = make_predictor_factory("oracle", world, sensor, cfg, EpisodeConfig(oracle_sigma=sigma), None)[0]
    return factory(None, state or world.start)


class TestStateCost:
    def test_matches_per_point_summation(self, circle_world, step_chain):
        # the breakdown belongs to the returned commands, not to another candidate:
        # squared goal distance summed over every pose, the initial one included
        cfg = fast_cfg()
        pred = oracle_predictor(circle_world, cfg)
        res = plan(circle_world.start, pred, circle_world.goal, cfg, np.random.default_rng(5))
        gx, gy = circle_world.goal
        brute = sum((x - gx) ** 2 + (y - gy) ** 2
                    for x, y in step_chain(circle_world.start, res.commands, cfg.dt)[:, :2])
        assert res.state_cost == pytest.approx(brute, rel=1e-9)


class TestPlan:
    def test_empty_world_reaches_goal(self, empty_world, step_chain):
        cfg = PlannerConfig(iterations=20, samples=512, risk_elites=128, elites=32, seed=3)
        pred = oracle_predictor(empty_world, cfg)
        res = plan(empty_world.start, pred, empty_world.goal, cfg, np.random.default_rng(0))
        end = step_chain(empty_world.start, res.commands, cfg.dt)[-1]
        assert np.hypot(end[0] - 3.0, end[1]) < 0.5
        assert res.commands[:, 0].mean() > 0.1

    def test_effort_only_objective(self, empty_world):
        # 100-dim command box: the sampling distribution needs a few dozen
        # rounds to contract onto the zero-effort corner
        cfg = PlannerConfig(iterations=40, samples=512, risk_elites=128, elites=32, risk_draws=50,
                            w_state=0.0, w_risk=0.0, w_effort=1.0, seed=0)
        pred = oracle_predictor(empty_world, cfg)
        res = plan(empty_world.start, pred, empty_world.goal, cfg, np.random.default_rng(1))
        assert res.effort == res.cost
        assert np.abs(res.commands).mean() < 0.1

    def test_single_obstacle_avoidance_rate(self, circle_world, step_chain):
        # judge with the exact clearance of the chosen trajectory
        from clearnav.world import true_clearance

        cfg = fast_cfg(w_risk=1000.0)
        hits = 0
        for seed in range(100):
            pred = oracle_predictor(circle_world, cfg)
            res = plan(
                circle_world.start, pred, circle_world.goal, cfg, np.random.default_rng(seed)
            )
            states = step_chain(circle_world.start, res.commands, cfg.dt)
            min_clear = min(true_clearance(p, circle_world) for p in states[:, :2])
            hits += min_clear >= cfg.d_o
        assert hits >= 95

    def test_best_cost_monotone(self, circle_world):
        cfg = fast_cfg()
        pred = oracle_predictor(circle_world, cfg)
        res = plan(circle_world.start, pred, circle_world.goal, cfg, np.random.default_rng(5))
        costs = [s.best_cost for s in res.iterations]
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert len(costs) == cfg.iterations

    def test_only_risk_elites_rolled_out_and_breakdown_matches(self, circle_world, monkeypatch):
        cfg = fast_cfg()
        rows = []

        def counting_rollout_batch(state, commands, dt):
            rows.append(commands.shape[0])
            return rollout_batch(state, commands, dt)

        monkeypatch.setattr("clearnav.planner.rollout_batch", counting_rollout_batch)
        pred = oracle_predictor(circle_world, cfg)
        res = plan(circle_world.start, pred, circle_world.goal, cfg, np.random.default_rng(5))
        assert len(rows) == cfg.iterations and max(rows) <= cfg.risk_elites
        total = cfg.w_state * res.state_cost + cfg.w_risk * res.risk + cfg.w_effort * res.effort
        assert res.cost == pytest.approx(total, rel=1e-12)

    def test_bounds_exact(self, circle_world, rng):
        cfg = fast_cfg()
        pred = oracle_predictor(circle_world, cfg)
        res = plan(circle_world.start, pred, circle_world.goal, cfg, rng)
        assert res.commands.shape == (cfg.horizon, 2)
        v, w = res.commands.T
        assert (v >= 0).all() and (v <= 1).all() and (np.abs(w) <= 1).all()

    def test_deterministic(self, circle_world):
        cfg = fast_cfg()
        pred = oracle_predictor(circle_world, cfg)
        a = plan(circle_world.start, pred, circle_world.goal, cfg, np.random.default_rng(9))
        b = plan(circle_world.start, pred, circle_world.goal, cfg, np.random.default_rng(9))
        assert np.array_equal(a.commands, b.commands)
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

    def test_nonpositive_radius_rejected(self):
        # refused when the config is built, not in the first plan's residual
        for d_o in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="radius"):
                fast_cfg(d_o=d_o)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(samples=10, risk_elites=20, elites=5)
        with pytest.raises(ValueError):
            PlannerConfig(smoothing=0.0)
        with pytest.raises(ValueError):
            PlannerConfig(w_risk=-1.0)

    @pytest.mark.parametrize("field, value", [("horizon", 0), ("horizon", -3), ("dt", 0.0),
                                              ("dt", -0.1), ("dt", float("nan"))])
    def test_config_rejects_bad_horizon_and_dt(self, field, value):
        # horizon 0 would fail deep in plan's reshape; dt <= 0 has no meaning
        with pytest.raises(ValueError, match=field):
            PlannerConfig(**{field: value})

    @pytest.mark.parametrize("name", ["iterations", "samples", "risk_elites", "elites", "risk_draws",
                                      "horizon"])
    def test_counts_must_be_integers(self, name):
        # a float count passes every comparison, then fails inside numpy mid-plan
        n = getattr(fast_cfg(), name)
        for value in (n + 0.5, float(n), np.float64(n), True):
            with pytest.raises(ValueError, match=rf"^PlannerConfig\.{name} must be an integer"):
                fast_cfg(**{name: value})
        assert getattr(fast_cfg(**{name: np.int64(n)}), name) == n

    def test_normal_draws_per_iteration_are_capped(self):
        # an iteration draws samples * (2 * horizon + risk_draws) normals; 10**12 samples would ask
        # numpy for terabytes in the first plan, so the config is refused, and only built here
        assert PlannerConfig(samples=2**19, horizon=49, risk_draws=30).samples == 2**19  # 2**26 draws
        message = r"^samples \* \(2 \* horizon \+ risk_draws\) must be <= 67108864, got \d+$"
        for change in ({"samples": 2**19 + 1, "horizon": 49}, {"samples": 10**12}, {"horizon": 10**9},
                       {"risk_draws": 10**9}):
            with pytest.raises(ValueError, match=message):
                PlannerConfig(**change)

    def test_risk_draws_at_least_one(self):
        # zero draws would fail in the first plan's draw_dirac_samples
        for risk_draws in (0, -2):
            message = rf"^PlannerConfig\.risk_draws must be >= 1, got {risk_draws}$"
            with pytest.raises(ValueError, match=message):
                fast_cfg(risk_draws=risk_draws)

    @pytest.mark.parametrize("name, value", [("w_state", math.nan), ("w_risk", math.nan),
                                             ("w_effort", math.inf), ("dt", math.inf), ("d_o", math.inf),
                                             ("init_v", math.nan), ("init_v", -math.inf)])
    def test_non_finite_value_rejected(self, name, value):
        # values the range checks let through; json reads NaN and Infinity into a config file
        with pytest.raises(ValueError, match=rf"^PlannerConfig\.{name} must be finite$"):
            fast_cfg(**{name: value})

    @pytest.mark.parametrize("name", ["init_var", "var_floor", "dirac_variance"])
    def test_variances_nonnegative(self, name):
        for value in (-1e-6, float("nan")):
            with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
                fast_cfg(**{name: value})
        assert getattr(fast_cfg(**{name: 0.0}), name) == 0.0


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
        factory = make_predictor_factory("oracle", world, sensor, cfg, EpisodeConfig(), None)[0]
        sim = SimState(state=world.start, rng=np.random.default_rng(0), bias=BiasField(sensor.noise, 0))
        d0 = np.hypot(world.start.x + 3.0, world.start.y)
        for _ in range(30):
            mpc_step(sim, world, sensor, factory, world.goal, cfg, exec_horizon=5)
        d1 = np.hypot(sim.state.x + 3.0, sim.state.y)
        assert d1 < d0 - 0.5

    def test_empty_world_episode_under_60s(self, empty_world):
        sensor = SensorConfig(noise=NoiseModel())
        cfg = fast_cfg()
        factory = make_predictor_factory("oracle", empty_world, sensor, cfg, EpisodeConfig(), None)[0]
        sim = SimState(state=empty_world.start, rng=np.random.default_rng(4), bias=BiasField(sensor.noise, 0))
        goal = np.asarray(empty_world.goal)
        for _ in range(120):  # 120 * 5 steps * 0.1 s = 60 s budget
            mpc_step(sim, empty_world, sensor, factory, goal, cfg, exec_horizon=5)
            if np.hypot(sim.state.x - goal[0], sim.state.y - goal[1]) <= 0.5:
                break
        assert np.hypot(sim.state.x - goal[0], sim.state.y - goal[1]) <= 0.5
        assert sim.t * cfg.dt < 60.0

    def test_empty_scan_is_planned_as_free_space(self, circle_world):
        # every return dropped: raw_costmap gets an empty cloud and finds no obstacle at all
        sensor = SensorConfig(noise=NoiseModel(dropout_prob=1.0))
        cfg = fast_cfg(iterations=3)
        factory = make_predictor_factory("raw_costmap", circle_world, sensor, cfg, EpisodeConfig(), None)[0]
        planned = []

        def spying_factory(cloud, state):
            predictor = factory(cloud, state)

            def spy(u_flat):
                out = predictor(u_flat)
                planned.append(out[0])
                return out

            return spy

        sim = SimState(state=circle_world.start, rng=np.random.default_rng(0), bias=BiasField(sensor.noise, 0))
        mpc_step(sim, circle_world, sensor, spying_factory, circle_world.goal, cfg)
        assert len(planned) == cfg.iterations
        assert all(np.array_equal(mu, np.full(cfg.samples, sensor.max_range)) for mu in planned)

    def test_warm_start_threads_through(self, empty_world):
        sensor = SensorConfig(noise=NoiseModel())
        cfg = fast_cfg()
        factory = make_predictor_factory("oracle", empty_world, sensor, cfg, EpisodeConfig(), None)[0]
        sim = SimState(state=empty_world.start, rng=np.random.default_rng(0), bias=BiasField(sensor.noise, 0))
        _, res = mpc_step(sim, empty_world, sensor, factory, empty_world.goal, cfg, exec_horizon=2)
        assert np.array_equal(sim.nu, shift_warm_start(res.nu, 2))
        assert sim.t == 2


# perfbench's planner shape, planned with a synthetic predictor in a fresh
# interpreter, so that earlier tests cannot have raised glibc's dynamic
# mmap and trim thresholds already
_FAULT_SCRIPT = """
import resource
import numpy as np
from clearnav.dynamics import RobotState
from clearnav.planner import PlannerConfig, plan

cfg = PlannerConfig(iterations=10, samples=192, risk_elites=48, elites=16, risk_draws=30,
                    horizon=50)
weights = np.random.default_rng(0).normal(0.0, 0.1, (2 * cfg.horizon, 3))

def predictor(u):
    out = np.tanh(u @ weights)
    return 0.3 + 0.2 * out[:, 0], 0.1 + 0.05 * out[:, 1], 0.2 + 0.1 * out[:, 2]

rng = np.random.default_rng(0)
start = RobotState(0.0, 0.0, 0.0)
for _ in range(2):
    plan(start, predictor, (5.0, 0.0), cfg, rng)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    plan(start, predictor, (5.0, 0.0), cfg, rng)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def _has_mallopt() -> bool:
    return sys.platform.startswith("linux") and getattr(ctypes.CDLL(None), "mallopt", None) is not None


def _run_fresh(script: str) -> str:
    """The stdout of `script` run in a fresh interpreter that imports clearnav from these sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(clearnav.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


@pytest.mark.skipif(not _has_mallopt(), reason="the heap pad needs glibc's mallopt")
def test_plan_calls_do_not_refault_the_heap():
    # without the pad set on import, glibc trims the freed heap top after every
    # iteration and each call faults ~2k pages back in
    assert float(_run_fresh(_FAULT_SCRIPT)) < 100


def test_importing_the_package_imports_no_module():
    # so the heap pad comes with clearnav.planner alone, not with every clearnav import
    script = "import sys, clearnav; print([m for m in sys.modules if m.startswith('clearnav')])"
    assert _run_fresh(script) == "['clearnav']\n"

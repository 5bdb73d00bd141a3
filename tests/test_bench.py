from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from clearnav.bench import (
    EpisodeConfig,
    LearnedModel,
    SuiteConfig,
    emit_traces,
    grid_path_exists,
    make_clutter_world,
    make_predictor_factory,
    model_from_checkpoint,
    replay_trajectory,
    run_benchmark,
    run_episode,
    suite_worlds,
)
from clearnav.dynamics import RobotState
from clearnav.model import ModelParams, PolarFeaturizer, save_checkpoint
from clearnav.planner import PlannerConfig
from clearnav.world import Box, Circle, NoiseModel, SensorConfig, World, true_clearance


def fast_planner(**kw) -> PlannerConfig:
    base = dict(iterations=6, samples=96, risk_elites=24, elites=8, risk_draws=20, seed=0)
    base.update(kw)
    return PlannerConfig(**base)


def quiet() -> SensorConfig:
    return SensorConfig(noise=NoiseModel())


class TestClutterWorlds:
    def test_feasible_by_construction(self):
        for i in range(5):
            world = make_clutter_world(np.random.default_rng(i))
            world.validate(0.3)
            assert grid_path_exists(world, 0.4)

    def test_grid_path_blocked(self):
        wall = Box(4.0, 0.0, 5.0, 8.0)  # full-height wall
        world = World((wall,), (0, 0, 10, 8), RobotState(1, 4, 0), (9, 4))
        assert not grid_path_exists(world, 0.3)

    def test_suite_deterministic(self):
        a = suite_worlds(3, seed=5)
        b = suite_worlds(3, seed=5)
        from clearnav.world import world_to_dict

        assert [world_to_dict(w) for w in a] == [world_to_dict(w) for w in b]


class TestRunEpisode:
    def test_oracle_reaches_in_moderate_clutter(self):
        world = make_clutter_world(np.random.default_rng(42))
        out = run_episode(world, "oracle", 5, quiet(), fast_planner(), EpisodeConfig())
        assert out.result == "reached"
        assert out.min_true_clearance >= 0.3

    def test_unreachable_goal_never_reached(self):
        # goal buried inside a box; classification must be stuck or timeout
        world = World(
            (Box(5.0, 3.0, 6.0, 4.0),),
            (0, 0, 8, 6),
            RobotState(1.0, 3.0, 0.0),
            (5.5, 3.5),
        )
        out = run_episode(
            world, "oracle", 3, quiet(), fast_planner(),
            EpisodeConfig(timeout_s=20.0),
        )
        assert out.result in ("stuck", "timeout", "collided")
        assert out.result != "reached"

    def test_collision_flag_consistent_with_trace(self):
        world = make_clutter_world(np.random.default_rng(7))
        out = run_episode(
            world, "raw_costmap", 9,
            SensorConfig(noise=NoiseModel(range_bias_scale=0.5, additive_sigma=0.1)),
            fast_planner(), EpisodeConfig(timeout_s=40.0),
        )
        xy = np.column_stack([out.trace["x"], out.trace["y"]])
        replay_min = min(true_clearance(p, world) for p in xy)
        assert (out.result == "collided") == (replay_min < 0.3)

    def test_invalid_method(self):
        world = make_clutter_world(np.random.default_rng(0))
        with pytest.raises(ValueError, match="method"):
            run_episode(world, "nonsense", 0, quiet(), fast_planner())

    def test_outcomes_mutually_exclusive(self):
        results = set()
        for seed in range(3):
            world = make_clutter_world(np.random.default_rng(seed + 20))
            out = run_episode(
                world, "oracle", seed, quiet(), fast_planner(), EpisodeConfig(timeout_s=45.0)
            )
            assert out.result in ("reached", "collided", "stuck", "timeout")
            results.add(out.result)


class TestLearnedModelBoundaries:
    META = {"fov": 1.2, "max_range": 5.0, "n_sectors": 32}

    def params(self, horizon=50):
        return ModelParams.init(np.random.default_rng(0), 34, horizon, hidden=8)

    @pytest.mark.parametrize("method", ["augmented", "baseline_nll", "det"])
    def test_horizon_mismatch_names_both(self, method):
        model = LearnedModel(self.params(horizon=10), None, PolarFeaturizer(1.2, 5.0, 32))
        models = {"augmented": model, "baseline_nll": model}
        world = make_clutter_world(np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"model horizon 10 .* planner horizon 50"):
            make_predictor_factory(method, world, quiet(), fast_planner(), EpisodeConfig(), models)

    def test_checkpoint_round_trip(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, self.params(), None, self.META)
        model = model_from_checkpoint(path)
        assert model.featurizer == PolarFeaturizer(1.2, 5.0, 32)

    @pytest.mark.parametrize("key", ["fov", "max_range", "n_sectors"])
    def test_checkpoint_missing_featurizer_meta(self, tmp_path, key):
        path = tmp_path / "m.npz"
        meta = {k: v for k, v in self.META.items() if k != key}
        save_checkpoint(path, self.params(), None, meta)
        with pytest.raises(ValueError, match=key):
            model_from_checkpoint(path)

    def test_checkpoint_sector_count_mismatch(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, self.params(), None, dict(self.META, n_sectors=16))
        with pytest.raises(ValueError, match="n_features 34"):
            model_from_checkpoint(path)


class TestBenchmark:
    def test_report_structure_and_determinism(self):
        cfg = fast_planner()
        ep = EpisodeConfig(timeout_s=45.0)
        a = run_benchmark(["oracle"], 2, 13, quiet(), cfg, ep)
        b = run_benchmark(["oracle"], 2, 13, quiet(), cfg, ep)
        assert a.to_json() == b.to_json()
        stats = a.methods["oracle"]
        assert 0 <= stats["collision_pct"] <= 100
        assert a.episodes == 2 and len(a.outcomes["oracle"]) == 2

    def test_pool_without_model_paths_rejected(self, monkeypatch):
        # worker processes can only load learned models from checkpoint files
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr("clearnav.bench.run_episode", no_episode)
        model = LearnedModel(ModelParams.init(np.random.default_rng(0), 34, 50, 8), None,
                             PolarFeaturizer(1.2, 5.0, 32))
        with pytest.raises(ValueError, match="model_paths"):
            run_benchmark(["augmented"], 1, 0, quiet(), fast_planner(), models={"augmented": model},
                          workers=2)

    def test_workers_do_not_change_results(self):
        cfg = fast_planner()
        ep = EpisodeConfig(timeout_s=45.0)
        a = run_benchmark(["oracle", "raw_costmap"], 2, 3, quiet(), cfg, ep, workers=1)
        b = run_benchmark(["oracle", "raw_costmap"], 2, 3, quiet(), cfg, ep, workers=2)
        assert a.to_json() == b.to_json()

    def test_zero_noise_costmap_matches_oracle(self):
        # noise ablation control: with exact sensing the costmap check and the
        # oracle agree on every episode outcome
        cfg = fast_planner()
        ep = EpisodeConfig(timeout_s=60.0)
        rep = run_benchmark(["oracle", "raw_costmap"], 4, 21, quiet(), cfg, ep)
        assert (
            rep.methods["raw_costmap"]["collision_pct"]
            == rep.methods["oracle"]["collision_pct"]
        )

    def test_aggregates_match_outcomes(self):
        cfg = fast_planner()
        rep = run_benchmark(["oracle"], 3, 5, quiet(), cfg, EpisodeConfig(timeout_s=45.0))
        outs = rep.outcomes["oracle"]
        assert rep.methods["oracle"]["avg_speed"] == pytest.approx(
            np.mean([o["avg_speed"] for o in outs])
        )
        assert rep.methods["oracle"]["max_speed"] == max(o["max_speed"] for o in outs)


class TestTraces:
    def _episode(self):
        world = make_clutter_world(np.random.default_rng(42))
        return world, run_episode(world, "oracle", 5, quiet(), fast_planner(), EpisodeConfig())

    def test_row_count_and_strict_csv(self, tmp_path):
        world, out = self._episode()
        csv_path, replay_path = emit_traces(out, tmp_path)
        with open(csv_path) as f:
            rows = list(csv.reader(f))
        assert len(rows) - 1 == out.commands.shape[0] + 1  # header + steps + initial row
        for row in rows[1:]:
            assert len(row) == 11
            for v in row:
                assert math.isfinite(float(v))

    def test_replay_round_trip(self, tmp_path):
        world, out = self._episode()
        _, replay_path = emit_traces(out, tmp_path)
        _, states = replay_trajectory(replay_path)
        assert np.allclose(states[:, 0], out.trace["x"], atol=1e-12)
        assert np.allclose(states[:, 1], out.trace["y"], atol=1e-12)
        assert np.allclose(states[:, 2], out.trace["psi"], atol=1e-12)

    def test_speed_stats_match_trace(self, tmp_path):
        world, out = self._episode()
        assert out.avg_speed == pytest.approx(out.trace["v"][1:].mean())
        assert out.max_speed == pytest.approx(out.trace["v"][1:].max())

    def test_replay_json_contents(self, tmp_path):
        world, out = self._episode()
        _, replay_path = emit_traces(out, tmp_path)
        with open(replay_path) as f:
            doc = json.load(f)
        assert doc["result"] == out.result
        assert len(doc["commands"]) == out.commands.shape[0]

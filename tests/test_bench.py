from __future__ import annotations

import csv
import json
import math
import os
import re
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from clearnav import bench
from clearnav.bench import (
    EpisodeConfig,
    EpisodeOutcome,
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
from clearnav.model import (
    DEFAULT_LAMBDA,
    ClearanceIndex,
    ModelParams,
    PolarFeaturizer,
    predict_batch,
    save_checkpoint,
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
    true_clearance,
    world_to_dict,
)


def replay_doc(**change) -> dict:
    """A replay of two commands in an empty arena, with each key of `change` set (None drops it)."""
    world = World((), (0.0, 0.0, 10.0, 8.0), RobotState(1.0, 4.0, 0.0), (9.0, 4.0))
    doc = {"world": world_to_dict(world), "method": "oracle", "seed": 0, "result": "timeout",
           "dt": 0.1, "commands": [[0.5, 0.1], [0.5, 0.0]]}
    doc.update(change)
    return {k: v for k, v in doc.items() if v is not None}


def fast_planner(**kw) -> PlannerConfig:
    base = dict(iterations=6, samples=96, risk_elites=24, elites=8, risk_draws=20, seed=0)
    base.update(kw)
    return PlannerConfig(**base)


def quiet() -> SensorConfig:
    return SensorConfig(noise=NoiseModel())


def blas_thread_count() -> int:
    """Threads of the calling process after a BLAS matmul (a pool job: module level)."""
    a = np.ones((200, 200))
    a @ a
    return len(os.listdir("/proc/self/task"))


def fake_outcome(result: str, seed: int, method: str) -> EpisodeOutcome:
    return EpisodeOutcome(result=result, duration=1.0, trace={}, avg_speed=0.5, max_speed=0.5,
                          min_true_clearance=1.0, world=None, seed=seed, method=method,
                          commands=np.zeros((0, 2)), dt=0.1)


def bfs_path_exists(world: World, d_inflate: float, cell: float = 0.1) -> bool:
    """Reference for grid_path_exists: the same raster, searched cell by cell with a BFS."""
    xmin, ymin, xmax, ymax = world.bounds
    nx = int(math.ceil((xmax - xmin) / cell))
    ny = int(math.ceil((ymax - ymin) / cell))
    xs = xmin + (np.arange(nx) + 0.5) * cell
    ys = ymin + (np.arange(ny) + 0.5) * cell
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    free = np.ones((nx, ny), dtype=bool)
    for ob in world.obstacles:
        if isinstance(ob, Circle):
            free &= (gx - ob.cx) ** 2 + (gy - ob.cy) ** 2 > (ob.radius + d_inflate) ** 2
        else:
            dx = np.maximum(np.maximum(ob.xmin - gx, 0.0), gx - ob.xmax)
            dy = np.maximum(np.maximum(ob.ymin - gy, 0.0), gy - ob.ymax)
            free &= dx * dx + dy * dy > d_inflate**2
    wall = int(math.ceil(d_inflate / cell))
    if wall > 0:
        free[:wall, :] = free[-wall:, :] = False
        free[:, :wall] = free[:, -wall:] = False

    def cell_of(p):
        return (
            min(max(int((p[0] - xmin) / cell), 0), nx - 1),
            min(max(int((p[1] - ymin) / cell), 0), ny - 1),
        )

    start = cell_of(world.start.position)
    goal = cell_of(world.goal)
    if not (free[start] and free[goal]):
        return False
    seen = np.zeros_like(free)
    seen[start] = True
    q = deque([start])
    while q:
        cx, cy = q.popleft()
        if (cx, cy) == goal:
            return True
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            x2, y2 = cx + dx, cy + dy
            if 0 <= x2 < nx and 0 <= y2 < ny and free[x2, y2] and not seen[x2, y2]:
                seen[x2, y2] = True
                q.append((x2, y2))
    return False


ARENA = (0.0, 0.0, 10.0, 8.0)
# (obstacles, start, goal, d_inflate, path exists)
GRID_CASES = {
    # two boxes meet corner to corner at (5, 4): the free cells on either side
    # touch only diagonally, which a 4-connected path cannot cross
    "diagonal_gap": ((Box(0.0, 0.0, 5.0, 4.0), Box(5.0, 4.0, 10.0, 8.0)), (2.0, 6.0), (8.0, 2.0),
                     0.0, False),
    # a wall open only at the top: the path climbs it and comes back down
    "u_corridor": ((Box(4.0, 0.0, 5.0, 6.0),), (2.0, 1.0), (8.0, 1.0), 0.2, True),
    "start_and_goal_in_one_cell": ((Box(4.0, 0.0, 5.0, 8.0),), (1.02, 1.03), (1.07, 1.08), 0.2, True),
    "blocked_goal": ((Box(7.0, 3.0, 9.0, 5.0),), (1.0, 4.0), (8.0, 4.0), 0.2, False),
    "blocked_start": ((Box(0.5, 3.0, 2.0, 5.0),), (1.0, 4.0), (8.0, 4.0), 0.2, False),
}


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

    @pytest.mark.parametrize("case", GRID_CASES)
    def test_grid_path_matches_bfs(self, case):
        obstacles, start, goal, d_inflate, expected = GRID_CASES[case]
        world = World(obstacles, ARENA, RobotState(*start, 0.0), goal)
        assert grid_path_exists(world, d_inflate) == bfs_path_exists(world, d_inflate) == expected

    def test_suite_candidates_match_bfs(self, monkeypatch):
        # every world the suite draws is checked the same way by both searches
        checked = []

        def compared(world, d_inflate, cell):
            found = grid_path_exists(world, d_inflate, cell)
            assert found == bfs_path_exists(world, d_inflate, cell)
            checked.append(found)
            return found

        monkeypatch.setattr(bench, "grid_path_exists", compared)
        for seed in (1, 2, 77):
            suite_worlds(24, seed)
        assert len(checked) >= 72

    def test_suite_deterministic(self):
        a = suite_worlds(3, seed=5)
        b = suite_worlds(3, seed=5)
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

    def test_true_clearance_once_per_state(self, monkeypatch):
        # one call per trace row serves both the row and the collision verdict
        world = make_clutter_world(np.random.default_rng(7))
        calls = []

        def counted(point, w):
            calls.append(point)
            return true_clearance(point, w)

        monkeypatch.setattr(bench, "true_clearance", counted)
        out = run_episode(world, "oracle", 9, quiet(), fast_planner(), EpisodeConfig(timeout_s=2.0))
        assert len(calls) == out.trace["t"].size
        assert np.array_equal(out.trace["true_clearance"],
                              [min(true_clearance(p, world), 5.0) for p in calls])

    def test_config_rejects_exec_horizon_below_one(self):
        # exec_horizon 0 executes no command per MPC step, so the episode never ends
        with pytest.raises(ValueError, match="exec_horizon"):
            EpisodeConfig(exec_horizon=0)

    def test_invalid_method(self):
        world = make_clutter_world(np.random.default_rng(0))
        with pytest.raises(ValueError, match="method"):
            run_episode(world, "nonsense", 0, quiet(), fast_planner())

    @pytest.mark.parametrize("method, needed", [("det", "augmented"), ("baseline_nll", "baseline_nll")])
    def test_learned_method_without_models_rejected(self, method, needed):
        world = make_clutter_world(np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"{method!r} needs a {needed!r} checkpoint"):
            run_episode(world, method, 0, quiet(), fast_planner(), models=None)

    def test_outcomes_mutually_exclusive(self):
        results = set()
        for seed in range(3):
            world = make_clutter_world(np.random.default_rng(seed + 20))
            out = run_episode(
                world, "oracle", seed, quiet(), fast_planner(), EpisodeConfig(timeout_s=45.0)
            )
            assert out.result in ("reached", "collided", "stuck", "timeout")
            results.add(out.result)


# checkpoint meta that matches quiet() and fast_planner()
META = {"fov": SensorConfig().fov, "max_range": 5.0, "n_sectors": 32, "dt": 0.1}


class TestLearnedModelBoundaries:
    def params(self, horizon=50):
        return ModelParams.init(np.random.default_rng(0), 34, horizon, hidden=8)

    def model(self, horizon=50, fov=META["fov"], max_range=5.0, dt=0.1):
        return LearnedModel(self.params(horizon), PolarFeaturizer(fov, max_range, 32), dt)

    @pytest.mark.parametrize("method", ["augmented", "baseline_nll", "det"])
    def test_horizon_mismatch_names_both(self, method):
        model = self.model(horizon=10)
        models = {"augmented": model, "baseline_nll": model}
        world = make_clutter_world(np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"model horizon 10 .* planner horizon 50"):
            make_predictor_factory(method, world, quiet(), fast_planner(), EpisodeConfig(), models)

    @pytest.mark.parametrize("method", ["augmented", "baseline_nll", "det"])
    @pytest.mark.parametrize("model_kw, message", [
        ({"dt": 0.2}, r"model horizon 50 dt 0.2 .* planner horizon 50 dt 0.1 "),
        ({"fov": 1.2}, r"dt 0.1 fov 1.2 max_range 5.0 does not match .* sensor fov 1.2042771838760873 "),
        ({"max_range": 3.0}, r"max_range 3.0 does not match .* max_range 5.0$"),
    ], ids=["dt", "fov", "max_range"])
    def test_step_or_featurizer_mismatch_names_both(self, method, model_kw, message):
        # checked exactly: a model trained at another step or sensor plans on inputs it never saw
        model = self.model(**model_kw)
        models = {"augmented": model, "baseline_nll": model}
        world = make_clutter_world(np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            make_predictor_factory(method, world, quiet(), fast_planner(), EpisodeConfig(), models)
        matching = {"augmented": self.model(), "baseline_nll": self.model()}
        make_predictor_factory(method, world, quiet(), fast_planner(), EpisodeConfig(), matching)

    def test_checkpoint_round_trip(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, self.params(), None, META)
        model = model_from_checkpoint(path)
        assert model.featurizer == PolarFeaturizer(META["fov"], 5.0, 32)
        assert model.dt == 0.1

    @pytest.mark.parametrize("key", ["fov", "max_range", "n_sectors", "dt"])
    def test_checkpoint_missing_featurizer_meta(self, tmp_path, key):
        path = tmp_path / "m.npz"
        meta = {k: v for k, v in META.items() if k != key}
        save_checkpoint(path, self.params(), None, meta)
        with pytest.raises(ValueError, match=key):
            model_from_checkpoint(path)

    def test_checkpoint_sector_count_mismatch(self, tmp_path):
        path = tmp_path / "m.npz"
        save_checkpoint(path, self.params(), None, dict(META, n_sectors=16))
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

    @pytest.mark.parametrize("method, needed", [("augmented", "augmented"), ("det", "augmented"),
                                                ("baseline_nll", "baseline_nll")])
    def test_missing_checkpoint_rejected(self, monkeypatch, tmp_path, method, needed):
        # the learned method and the checkpoint it lacks are named before any episode runs
        def no_episode(*args, **kwargs):
            raise AssertionError("an episode ran")

        monkeypatch.setattr("clearnav.bench.run_episode", no_episode)
        other = "baseline_nll" if needed == "augmented" else "augmented"
        paths = {other: str(tmp_path / "unused.npz")}
        for workers in (1, 2):
            with pytest.raises(ValueError, match=f"{method!r} needs a {needed!r} checkpoint"):
                run_benchmark(["oracle", method], 1, 0, quiet(), fast_planner(), workers=workers,
                              model_paths=paths)

    @pytest.mark.parametrize("methods, message", [(["oracle", "bogus"], "unknown method 'bogus'"),
                                                  (["oracle", "oracle"], "'oracle' is listed twice")],
                             ids=["unknown", "repeated"])
    def test_bad_method_list_rejected_before_any_work(self, monkeypatch, methods, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a world was built or an episode ran")

        monkeypatch.setattr(bench, "suite_worlds", no_work)
        monkeypatch.setattr(bench, "run_episode", no_work)
        with pytest.raises(ValueError, match=message):
            run_benchmark(methods, 2, 0, quiet(), fast_planner())

    def test_learned_methods_same_report_for_any_worker_count(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = {}
        for name in ("augmented", "baseline_nll"):
            paths[name] = str(tmp_path / f"{name}.npz")
            save_checkpoint(paths[name], ModelParams.init(rng, 34, 50, 8), None, META)
        cfg = fast_planner(iterations=2, samples=32, risk_elites=8, elites=4)
        ep = EpisodeConfig(timeout_s=1.0)
        methods = ["augmented", "baseline_nll", "det"]
        a = run_benchmark(methods, 2, 4, quiet(), cfg, ep, workers=1, model_paths=paths)
        b = run_benchmark(methods, 2, 4, quiet(), cfg, ep, workers=2, model_paths=paths)
        assert a.to_json() == b.to_json()
        assert all(len(a.outcomes[m]) == 2 for m in methods)

    def test_worker_loads_each_checkpoint_once(self, monkeypatch, tmp_path):
        paths = {}
        for name in ("augmented", "baseline_nll"):
            paths[name] = str(tmp_path / f"{name}.npz")
            save_checkpoint(paths[name], ModelParams.init(np.random.default_rng(0), 34, 50, 8), None,
                            META)
        loads, seen = [], []

        def counting_load(path):
            loads.append(path)
            return model_from_checkpoint(path)

        def fake_episode(world, method, seed, sensor, planner_cfg, episode_cfg, models):
            seen.append(models)
            return fake_outcome("reached", seed, method)

        monkeypatch.setattr(bench, "_worker_models", {})
        monkeypatch.setattr(bench, "model_from_checkpoint", counting_load)
        monkeypatch.setattr(bench, "run_episode", fake_episode)
        bench._load_worker_models(paths)
        world = make_clutter_world(np.random.default_rng(0))
        for method in ("augmented", "baseline_nll"):
            bench._episode_job((world, method, 0, quiet(), fast_planner(), EpisodeConfig()))
        assert sorted(loads) == sorted(paths.values())
        assert len(seen) == 2 and all(set(m) == set(paths) for m in seen)

    def test_report_splits_stuck_from_timeout(self, monkeypatch):
        results = iter(["reached", "collided", "stuck", "timeout", "timeout"])

        def fake_episode(world, method, seed, sensor, planner_cfg, episode_cfg, models):
            return fake_outcome(next(results), seed, method)

        monkeypatch.setattr(bench, "run_episode", fake_episode)
        rep = run_benchmark(["oracle"], 5, 0, quiet(), fast_planner())
        stats = rep.methods["oracle"]
        assert (stats["reached_pct"], stats["collision_pct"], stats["stuck_pct"],
                stats["timeout_pct"]) == (20.0, 20.0, 20.0, 40.0)
        header, _, row = rep.format_table().splitlines()
        columns = ["% reached", "% collisions", "% stuck", "% timeout"]
        assert sorted(columns, key=header.index) == columns  # each printed, in this order
        assert row.split()[1:5] == ["20.0", "20.0", "20.0", "40.0"]

    def test_workers_do_not_change_results(self):
        cfg = fast_planner()
        ep = EpisodeConfig(timeout_s=45.0)
        a = run_benchmark(["oracle", "raw_costmap"], 2, 3, quiet(), cfg, ep, workers=1)
        b = run_benchmark(["oracle", "raw_costmap"], 2, 3, quiet(), cfg, ep, workers=2)
        assert a.to_json() == b.to_json()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        counts = []

        class ProbedPool(bench.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                probes = [self.submit(blas_thread_count) for _ in range(4)]
                counts.extend(p.result() for p in probes)
                return super().map(fn, *iterables, **kwargs)

        env = {k: os.environ.get(k)
               for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        monkeypatch.setattr(bench, "ProcessPoolExecutor", ProbedPool)
        run_benchmark(["oracle"], 1, 3, quiet(), fast_planner(iterations=1),
                      EpisodeConfig(timeout_s=1.0), workers=2)
        assert counts == [1, 1, 1, 1]
        assert {k: os.environ.get(k) for k in env} == env

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


class TestPredictorFactory:
    @pytest.mark.parametrize("method", bench.METHODS)
    def test_each_method_predicts_and_configures_as_documented(self, method):
        world = make_clutter_world(np.random.default_rng(42))
        sensor, cfg = quiet(), fast_planner()
        ep = EpisodeConfig(oracle_sigma=0.07, det_sigma=2e-6, costmap_inflation=0.45)
        feat = PolarFeaturizer(sensor.fov, sensor.max_range, 32)
        models = {key: LearnedModel(ModelParams.init(np.random.default_rng(seed), 34, cfg.horizon, hidden=8),
                                    feat, cfg.dt)
                  for seed, key in enumerate(("augmented", "baseline_nll"))}
        rng = np.random.default_rng(1)
        state = world.start
        true_cloud = raycast_scan(state, world, sensor)
        noisy = 0.9 * true_cloud  # a cloud unlike the true scan
        u = rng.uniform([0.0, -1.0], [1.0, 1.0], (16, cfg.horizon, 2))

        factory, method_cfg = make_predictor_factory(method, world, sensor, cfg, ep, models)
        mu, sigma, lam = factory(noisy, state)(u.reshape(16, -1))
        assert method_cfg == (replace(cfg, d_o=ep.costmap_inflation) if method == "raw_costmap" else cfg)
        if method in ("oracle", "raw_costmap"):
            cloud = true_cloud if method == "oracle" else noisy
            assert np.array_equal(mu, worst_case_clearance(state, u, body_to_world(cloud, state), cfg.dt,
                                                           sensor.max_range))
            assert (sigma == (ep.oracle_sigma if method == "oracle" else ep.det_sigma)).all()
            assert (lam == DEFAULT_LAMBDA).all()
        else:
            model = models["baseline_nll" if method == "baseline_nll" else "augmented"]
            ref = predict_batch(model.params, feat.featurize(noisy, state), u.reshape(16, -1))
            assert np.array_equal(mu, ref[0]) and np.array_equal(lam, ref[2])
            if method == "det":
                assert (sigma == ep.det_sigma).all()
            else:
                assert np.array_equal(sigma, ref[1])


class TestCloudPredictor:
    def test_queries_distinct_points_with_equal_result(self, monkeypatch):
        world = make_clutter_world(np.random.default_rng(42))
        sensor = SensorConfig()
        rng = np.random.default_rng(0)
        state = world.start
        scan = raycast_scan(state, world, sensor)
        seen, indexes = [], []

        def spy(initial, commands, cloud_world, dt, cap, index=None):
            seen.append(np.array(cloud_world))
            indexes.append(index)
            return worst_case_clearance(initial, commands, cloud_world, dt, cap)

        monkeypatch.setattr("clearnav.model.worst_case_clearance", spy)
        cfg = fast_planner()
        factory = make_predictor_factory("raw_costmap", world, sensor, cfg, EpisodeConfig(), None)[0]
        u = rng.uniform([0.0, -1.0], [1.0, 1.0], (24, cfg.horizon, 2))
        predictor = factory(scan, state)
        mu = predictor(u.reshape(24, -1))[0]
        # the query cloud is the scan itself: its points in its order, none added or dropped
        scan_world = body_to_world(scan, state)
        assert len(seen) == 1 and np.array_equal(seen[0], scan_world)
        assert len(np.unique(scan_world, axis=0)) == len(scan_world)
        assert np.array_equal(mu, worst_case_clearance(state, u, scan_world, cfg.dt, sensor.max_range))
        # every query of one plan call goes through the one index built for it
        predictor(u[::2].reshape(12, -1))
        assert isinstance(indexes[0], ClearanceIndex) and indexes[1] is indexes[0]
        assert np.array_equal(indexes[0].cloud, scan_world) and indexes[0].initial == state
        empty = factory(np.zeros((0, 2)), state)(u.reshape(24, -1))[0]
        assert np.array_equal(empty, np.full(24, sensor.max_range))
        scan = scan.copy()
        scan[5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            factory(scan, state)(u.reshape(24, -1))


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
        # the replay steps with the episode's own dt, so it repeats the trace exactly,
        # also for lengths whose mean step of the trace times is not dt (12 commands)
        world, out = self._episode()
        short = run_episode(world, "oracle", 5, quiet(), fast_planner(), EpisodeConfig(timeout_s=1.2))
        assert short.commands.shape == (12, 2)
        for stem, episode in (("full", out), ("short", short)):
            _, replay_path = emit_traces(episode, tmp_path, stem)
            _, states = replay_trajectory(replay_path)
            assert np.array_equal(states[:, 0], episode.trace["x"])
            assert np.array_equal(states[:, 1], episode.trace["y"])
            assert np.array_equal(states[:, 2], episode.trace["psi"])

    @pytest.mark.parametrize("change, message", [
        pytest.param({"dt": None}, "replay: missing key 'dt'", id="no-dt"),
        pytest.param({"speed": 1.0}, "replay: unknown key 'speed'", id="unknown-key"),
        pytest.param({"dt": 0.0}, r"replay: dt must be finite and > 0, got 0\.0", id="zero-dt"),
        pytest.param({"dt": math.inf}, "replay: dt must be finite and > 0, got inf", id="inf-dt"),
        pytest.param({"commands": [[0.5]]}, r"replay: commands must be a finite \(n, 2\) array",
                     id="one-entry"),
        pytest.param({"commands": [[0.5, 0.1], [0.5]]}, ".*sequence", id="one-short-command"),
        pytest.param({"commands": [[0.5, math.nan]]}, r"replay: commands must be a finite \(n, 2\) array",
                     id="nan-command"),
        pytest.param({"world": {"bounds": [0, 0, 1, 1]}}, "world: missing key 'start'", id="bad-world"),
    ])
    def test_malformed_replay_is_refused_naming_the_file(self, tmp_path, change, message):
        path = tmp_path / "run_replay.json"
        path.write_text(json.dumps(replay_doc(**change)))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}"):
            replay_trajectory(path)

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

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearnav.bench import EpisodeConfig, make_predictor_factory, suite_worlds
from clearnav.data import generate_dataset
from clearnav.dynamics import RobotState
from clearnav.planner import PlannerConfig, SimState, mpc_step
from clearnav.training import TrainConfig
from clearnav.world import (
    BiasField,
    Box,
    Circle,
    NoiseModel,
    SensorConfig,
    World,
    body_to_world,
    estimated_scan,
    load_scenario,
    raycast_scan,
    save_scenario,
    scan_angles,
    scan_ranges,
    sensor_from_dict,
    true_clearance,
    world_from_dict,
    world_to_dict,
)


def per_obstacle_scan(state, world, cfg):
    """Reference for scan_ranges: one intersection per obstacle, folded in world order."""
    angles = scan_angles(cfg)
    world_angles = state.psi + angles
    dirs = np.column_stack([np.cos(world_angles), np.sin(world_angles)])
    origin = state.position

    def slab(xmin, ymin, xmax, ymax):
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
            lo = (np.array([xmin, ymin]) - origin) * inv
            hi = (np.array([xmax, ymax]) - origin) * inv
        lo = np.nan_to_num(lo, nan=-np.inf)
        hi = np.nan_to_num(hi, nan=np.inf)
        return np.minimum(lo, hi).max(axis=1), np.maximum(lo, hi).min(axis=1)

    t = np.full(cfg.n_rays, np.inf)
    for ob in world.obstacles:
        if isinstance(ob, Box):
            tmin, tmax = slab(ob.xmin, ob.ymin, ob.xmax, ob.ymax)
            hits = np.where(tmax >= np.maximum(tmin, 0.0), np.where(tmin >= 0.0, tmin, 0.0), np.inf)
        else:
            oc = origin - np.array([ob.cx, ob.cy])
            b = dirs @ oc
            disc = b * b - (oc @ oc - ob.radius**2)
            ok = disc >= 0.0
            root = np.sqrt(np.maximum(disc, 0.0))
            t1, t2 = -b - root, -b + root
            hits = np.where(ok & (t1 >= 0.0), t1, np.inf)
            hits = np.where(ok & (t1 < 0.0) & (t2 >= 0.0), 0.0, hits)
        t = np.minimum(t, hits)
    _, t_exit = slab(*world.bounds)
    t = np.minimum(t, np.maximum(t_exit, 0.0))
    return angles, np.where(t <= cfg.max_range, t, np.inf)


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestTrueClearance:
    def test_collinear_circle(self, circle_world):
        assert true_clearance(np.array([0.0, 0.0]), circle_world) == pytest.approx(1.0)

    def test_inside_clamps_to_zero(self, circle_world):
        assert true_clearance(np.array([2.0, 0.0]), circle_world) == 0.0

    def test_box_against_boundary_sampling(self, rng):
        # oracle: dense sampling of the box perimeter at 1e-3 m resolution
        box = Box(1.0, -0.5, 2.5, 0.7)
        world = World((box,), (-5, -5, 5, 5), RobotState(-3, 0, 0), (4, 4))
        step = 1e-3
        xs = np.arange(box.xmin, box.xmax + step, step)
        ys = np.arange(box.ymin, box.ymax + step, step)
        perim = np.concatenate(
            [
                np.column_stack([xs, np.full_like(xs, box.ymin)]),
                np.column_stack([xs, np.full_like(xs, box.ymax)]),
                np.column_stack([np.full_like(ys, box.xmin), ys]),
                np.column_stack([np.full_like(ys, box.xmax), ys]),
            ]
        )
        for _ in range(25):
            p = rng.uniform([-4.5, -4.5], [4.5, 4.5])
            got = true_clearance(p, world)
            if box.xmin <= p[0] <= box.xmax and box.ymin <= p[1] <= box.ymax:  # inside
                assert got == 0.0
                continue
            brute = np.hypot(*(perim - p).T).min()
            assert got == pytest.approx(brute, abs=2e-3)

    @given(st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4), st.floats(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_lipschitz(self, x1, y1, x2, y2):
        world = World(
            (Circle(1.0, 1.0, 0.8), Box(-2.0, -2.0, -0.5, -0.4)),
            (-5, -5, 5, 5),
            RobotState(3, 3, 0),
            (4, 4),
        )
        p, q = np.array([x1, y1]), np.array([x2, y2])
        dp, dq = true_clearance(p, world), true_clearance(q, world)
        assert abs(dp - dq) <= np.hypot(*(p - q)) + 1e-9


class TestRaycast:
    def test_central_ray_hits_wall(self, box_world):
        cfg = SensorConfig(n_rays=5, max_range=10.0)
        cloud = raycast_scan(RobotState(0, 0, 0), box_world, cfg)
        center = cloud[np.argmin(np.abs(np.arctan2(cloud[:, 1], cloud[:, 0])))]
        assert center == pytest.approx([3.0, 0.0], abs=1e-12)

    def test_empty_world_far_bounds(self):
        world = World((), (-100, -100, 100, 100), RobotState(0, 0, 0), (1, 0))
        cloud = raycast_scan(world.start, world, SensorConfig(max_range=5.0))
        assert cloud.shape == (0, 2)

    def test_ray_circle_against_ray_marching(self, circle_world):
        # oracle: march the central ray at 1e-4 m steps until entering the circle
        cfg = SensorConfig(n_rays=1, max_range=6.0)
        state = RobotState(0.0, -0.2, 0.1)
        _, ranges = scan_ranges(state, circle_world, cfg)
        circle = circle_world.obstacles[0]
        t = 0.0
        d = np.array([math.cos(state.psi), math.sin(state.psi)])
        while t <= 6.0:
            p = state.position + t * d
            if math.hypot(p[0] - circle.cx, p[1] - circle.cy) <= circle.radius:
                break
            t += 1e-4
        assert ranges[0] == pytest.approx(t, abs=5e-4)

    def test_hits_lie_on_boundaries(self, rng):
        world = World(
            (Circle(2.5, 1.0, 0.7), Box(1.0, -2.5, 2.0, -1.0)),
            (-4, -4, 6, 4),
            RobotState(0, 0, 0),
            (5, 0),
        )
        cfg = SensorConfig(fov=2 * math.pi, n_rays=90, max_range=3.5)
        state = RobotState(-0.5, -0.3, 0.4)
        cloud = raycast_scan(state, world, cfg)
        world_pts = body_to_world(cloud, state)
        for p in world_pts:
            d_obs = true_clearance(p, world)
            xmin, ymin, xmax, ymax = world.bounds
            d_wall = min(p[0] - xmin, xmax - p[0], p[1] - ymin, ymax - p[1])
            assert min(d_obs, abs(d_wall)) < 1e-6


class TestScanRanges:
    """scan_ranges against the per-obstacle reference, bit for bit, and its one-entry cache."""

    SENSORS = (SensorConfig(), SensorConfig(fov=2 * math.pi, n_rays=90, max_range=3.5),
               SensorConfig(n_rays=1, max_range=50.0), SensorConfig(n_rays=7, max_range=50.0))

    def check(self, state, world):
        for cfg in self.SENSORS:
            angles, ranges = scan_ranges(state, world, cfg)
            want_angles, want_ranges = per_obstacle_scan(state, world, cfg)
            assert_same_bits(angles, want_angles)
            assert_same_bits(ranges, want_ranges)

    def test_suite_worlds(self, rng):
        for world in suite_worlds(6, 5):
            for _ in range(30):
                x, y = rng.uniform(world.bounds[:2], world.bounds[2:])
                self.check(RobotState(x, y, rng.uniform(-math.pi, math.pi)), world)

    @pytest.mark.parametrize("psi", [0.0, -0.0, math.pi, 0.5 * math.pi])
    def test_edge_cases(self, psi):
        # the central ray of n_rays = 1 or 7 runs exactly along x at psi = +-0, so it is
        # parallel to every horizontal side; origins on those sides hit the nan branch
        box, circle = Box(1.0, -1.0, 2.0, 1.0), Circle(-2.0, 0.0, 0.5)
        worlds = [
            World((box, circle, Box(-1.0, 2.0, 3.0, 2.5)), (-4, -3, 4, 3), RobotState(0, 0, 0), (3, 2)),
            World((box,), (-4, -3, 4, 3), RobotState(0, 0, 0), (3, 2)),
            World((circle,), (-4, -3, 4, 3), RobotState(0, 0, 0), (3, 2)),
            World((), (-4, -3, 4, 3), RobotState(0, 0, 0), (3, 2)),
        ]
        origins = [(0.0, 0.0), (0.0, 0.5), (0.0, -1.0), (0.0, 1.0), (1.0, -1.0), (2.0, 1.0),
                   (1.5, 0.0), (1.0, 0.0), (-2.0, 0.0), (-2.0, 0.5), (-1.5, 0.0), (0.0, -3.0),
                   (-4.0, 0.0), (4.0, 3.0), (0.0, 2.0)]
        for world in worlds:
            for x, y in origins:
                self.check(RobotState(x, y, psi), world)

    def test_arrays_are_read_only(self, box_world, quiet_sensor):
        angles, ranges = scan_ranges(RobotState(0.0, 0.1, 0.2), box_world, quiet_sensor)
        for a in (angles, ranges):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_one_state_two_worlds(self, circle_world, box_world, quiet_sensor):
        state = RobotState(0.0, 0.1, 0.05)
        for world in (circle_world, box_world, circle_world, box_world):
            _, ranges = scan_ranges(state, world, quiet_sensor)
            assert_same_bits(ranges, per_obstacle_scan(state, world, quiet_sensor)[1])

    def test_dataset_casts_each_snapshot_once(self):
        sensor = SensorConfig(noise=NoiseModel(range_bias_scale=0.1, additive_sigma=0.02))
        scan_ranges.cache_clear()
        ds = generate_dataset(suite_worlds(2, 3), 3, np.random.default_rng(0), sensor,
                              horizon=10, sequences_per_snapshot=4)
        info = scan_ranges.cache_info()
        assert ds.n_snapshots == 6
        assert (info.misses, info.hits) == (6, 6)

    def test_oracle_step_casts_once(self):
        world = suite_worlds(1, 3)[0]
        sensor = SensorConfig(noise=NoiseModel(additive_sigma=0.02))
        cfg = PlannerConfig(iterations=2, samples=32, risk_elites=16, elites=8, risk_draws=10,
                            horizon=10, seed=0)
        factory = make_predictor_factory("oracle", world, sensor, cfg, EpisodeConfig(), None)[0]
        sim = SimState(state=world.start, rng=np.random.default_rng(0), bias=BiasField(sensor.noise, 0))
        scan_ranges.cache_clear()
        mpc_step(sim, world, sensor, factory, world.goal, cfg)
        info = scan_ranges.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestEstimatedScan:
    def test_zero_noise_identical(self, circle_world, quiet_sensor):
        state = RobotState(0, 0.1, 0.05)
        a = raycast_scan(state, circle_world, quiet_sensor)
        b = estimated_scan(state, circle_world, quiet_sensor, np.random.default_rng(0),
                           BiasField(quiet_sensor.noise, 0))
        assert np.array_equal(a, b)

    def test_additive_noise_mean(self):
        # wall at x = 2 via the bounds; tiny fov keeps true ranges within 5e-5 of 2
        world = World((), (-1.0, -3.0, 2.0, 3.0), RobotState(0, 0, 0), (1, 0))
        cfg = SensorConfig(
            fov=0.01, n_rays=10_000, max_range=5.0, noise=NoiseModel(additive_sigma=0.2)
        )
        cloud = estimated_scan(world.start, world, cfg, np.random.default_rng(7), BiasField(cfg.noise, 0))
        ranges = np.hypot(cloud[:, 0], cloud[:, 1])
        assert ranges.mean() == pytest.approx(2.0, abs=0.01)

    def test_full_dropout_empty(self, circle_world):
        cfg = SensorConfig(n_rays=50, noise=NoiseModel(dropout_prob=1.0))
        cloud = estimated_scan(circle_world.start, circle_world, cfg, np.random.default_rng(0),
                               BiasField(cfg.noise, 0))
        assert cloud.shape == (0, 2)

    def test_bias_field_reproducible_and_smooth(self):
        noise = NoiseModel(range_bias_scale=0.3, drift_timescale=10)
        f1 = BiasField(noise, seed=42)
        f2 = BiasField(noise, seed=42)
        angles = np.linspace(-math.pi, math.pi, 400)
        assert np.array_equal(f1.values(angles, 25), f2.values(angles, 25))
        vals = f1.values(angles, 3)
        assert np.abs(vals).max() <= 0.3 + 1e-12
        assert np.abs(np.diff(vals)).max() < 0.05  # smooth across bearing

    def test_bias_field_memo_matches_fresh_fields(self, monkeypatch):
        # out of order, across epochs and back: each value equals a fresh field's
        noise = NoiseModel(range_bias_scale=0.3, drift_timescale=10)
        field = BiasField(noise, seed=42)
        angles = np.linspace(-math.pi, math.pi, 200)
        for t in (25, 3, 40, 3, 61, 0, 94, 29, 30, 31, 200, 5, 9, 10, 11, 25):
            assert np.array_equal(field.values(angles, t), BiasField(noise, seed=42).values(angles, t))
        assert not field._knots(7).flags.writeable
        # the steps of one epoch draw its knots and the next epoch's once
        drawn = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda s: drawn.append(s) or default_rng(s))
        fresh = BiasField(noise, seed=3)
        for t in range(50, 60):
            fresh.values(angles, t)
        assert drawn == [[3, 5], [3, 6]]

    def test_bias_drifts_over_time(self):
        noise = NoiseModel(range_bias_scale=0.3, drift_timescale=5)
        f = BiasField(noise, seed=3)
        angles = np.linspace(-1, 1, 50)
        assert not np.allclose(f.values(angles, 0), f.values(angles, 50))


class TestValidationAndIO:
    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(additive_sigma=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(dropout_prob=1.5)

    def test_sensor_validation(self):
        with pytest.raises(ValueError):
            SensorConfig(fov=0.0)
        with pytest.raises(ValueError):
            SensorConfig(n_rays=0)

    def test_sensor_ray_count_must_be_an_integer(self):
        # a float count passes `n_rays >= 1`, then fails in scan_angles' linspace mid-episode
        for n_rays in (2.5, 60.0, np.float64(60.0), True):
            with pytest.raises(ValueError, match=r"^SensorConfig\.n_rays must be an integer"):
                SensorConfig(n_rays=n_rays)
        assert SensorConfig(n_rays=np.int64(60)).n_rays == 60

    @pytest.mark.parametrize("cls, name", [
        (PlannerConfig, "iterations"), (SensorConfig, "n_rays"), (EpisodeConfig, "exec_horizon"),
        *((TrainConfig, name) for name in ("epochs", "batch_size", "risk_samples", "hidden",
                                           "risk_hidden", "n_sectors")),
    ])
    def test_counts_are_integers_of_at_least_one(self, cls, name):
        for value in (0, -2):
            with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be >= 1, got {value}$"):
                cls(**{name: value})
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{name} must be an integer, got 2\.0$"):
            cls(**{name: 2.0})

    def test_world_validate_rejects_blocked_start(self):
        world = World((Circle(0.0, 0.0, 1.0),), (-5, -5, 5, 5), RobotState(0.5, 0, 0), (4, 4))
        with pytest.raises(ValueError):
            world.validate(0.3)

    def test_scenario_round_trip(self, tmp_path, circle_world):
        sensor = SensorConfig(noise=NoiseModel(range_bias_scale=0.2, dropout_prob=0.1))
        path = tmp_path / "scenario.json"
        save_scenario(path, circle_world, sensor, seed=77)
        world2, sensor2, seed, _ = load_scenario(path)
        assert seed == 77
        assert sensor2 == sensor
        assert world_to_dict(world2) == world_to_dict(circle_world)

    def test_dict_round_trip_box_world(self, box_world):
        assert world_to_dict(world_from_dict(world_to_dict(box_world))) == world_to_dict(box_world)
        cfg = SensorConfig()
        assert sensor_from_dict(asdict(cfg)) == cfg

    @pytest.mark.parametrize("args", [(math.nan, 0.0, 1.0), (0.0, math.inf, 1.0), (0.0, 0.0, math.nan),
                                      (0.0, 0.0, math.inf)])
    def test_circle_rejects_non_finite(self, args):
        # a NaN radius would make every boundary distance max(0.0, nan) = 0.0
        with pytest.raises(ValueError, match=r"Circle\.\w+ must be finite"):
            Circle(*args)

    @pytest.mark.parametrize("args", [(math.nan, 0.0, 1.0, 1.0), (0.0, 0.0, math.inf, 1.0),
                                      (0.0, -math.inf, 1.0, 1.0), (0.0, 0.0, 1.0, math.nan)])
    def test_box_rejects_non_finite(self, args):
        with pytest.raises(ValueError, match=r"Box\.\w+ must be finite"):
            Box(*args)

    @pytest.mark.parametrize("bounds", [(0.0, 0.0, math.inf, 8.0), (-math.inf, 0.0, 10.0, 8.0),
                                        (0.0, 0.0, 10.0, math.nan)])
    def test_world_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="bounds must form a finite nonempty rectangle"):
            World((), bounds, RobotState(1.0, 1.0, 0.0), (2.0, 2.0))

    @pytest.mark.parametrize("max_range", [math.nan, math.inf])
    def test_sensor_rejects_non_finite_max_range(self, max_range):
        with pytest.raises(ValueError, match="max_range"):
            SensorConfig(max_range=max_range)

    @pytest.mark.parametrize("name", ["range_bias_scale", "additive_sigma", "drift_timescale",
                                      "dropout_prob"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_noise_model_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"NoiseModel.{name} must be finite"):
            NoiseModel(**{name: value})


def scenario_reference(world: World, sensor: SensorConfig, seed: int) -> str:
    """The scenario file as the README documents it, spelled out key by key."""
    s, noise = world.start, sensor.noise
    obstacles = [{"type": "circle", "center": [ob.cx, ob.cy], "radius": ob.radius}
                 if isinstance(ob, Circle) else
                 {"type": "box", "min": [ob.xmin, ob.ymin], "max": [ob.xmax, ob.ymax]}
                 for ob in world.obstacles]
    doc = {
        "seed": seed,
        "world": {"bounds": list(world.bounds),
                  "start": {"x": s.x, "y": s.y, "psi": s.psi, "v": s.v, "omega": s.omega},
                  "goal": list(world.goal), "obstacles": obstacles},
        "sensor": {"fov": sensor.fov, "n_rays": sensor.n_rays, "max_range": sensor.max_range,
                   "noise": {"range_bias_scale": noise.range_bias_scale,
                             "additive_sigma": noise.additive_sigma,
                             "drift_timescale": noise.drift_timescale,
                             "dropout_prob": noise.dropout_prob}},
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def scenario_doc(**changes) -> dict:
    """A valid scenario document with `changes` applied at dotted paths; None deletes the key."""
    doc = {
        "seed": 3,
        "world": {"bounds": [0.0, 0.0, 10.0, 8.0],
                  "start": {"x": 1.0, "y": 1.0, "psi": 0.0},
                  "goal": [9.0, 7.0],
                  "obstacles": [{"type": "circle", "center": [5.0, 4.0], "radius": 0.5},
                                {"type": "box", "min": [2.0, 5.0], "max": [3.0, 6.0]}]},
        "sensor": {"n_rays": 60, "noise": {"additive_sigma": 0.02}},
    }
    for path, value in changes.items():
        *parents, key = path.split(".")
        node = doc
        for p in parents:
            node = node[int(p)] if isinstance(node, list) else node[p]
        if value is None:
            del node[key]
        else:
            node[key] = value
    return doc


# each section of a scenario: an unknown key, and a missing key it requires
MALFORMED_SCENARIOS = [
    pytest.param({"sensor.n_ray": 10}, "sensor: unknown key 'n_ray'", id="sensor-unknown"),
    pytest.param({"sensor.noise.sigma": 0.1}, "noise: unknown key 'sigma'", id="noise-unknown"),
    pytest.param({"world.start.vel": 0.5}, "start: unknown key 'vel'", id="start-unknown"),
    pytest.param({"world.start.psi": None}, "start: missing key 'psi'", id="start-missing"),
    pytest.param({"world.obstacles.0.radios": 0.5}, "circle: unknown key 'radios'", id="circle-unknown"),
    pytest.param({"world.obstacles.0.radius": None}, "circle: missing key 'radius'", id="circle-missing"),
    pytest.param({"world.obstacles.1.center": [1.0, 1.0]}, "box: unknown key 'center'",
                 id="box-unknown"),
    pytest.param({"world.obstacles.1.max": None}, "box: missing key 'max'", id="box-missing"),
    pytest.param({"world.walls": []}, "world: unknown key 'walls'", id="world-unknown"),
    pytest.param({"world.goal": None}, "world: missing key 'goal'", id="world-missing"),
    pytest.param({"world": None}, "scenario: missing key 'world'", id="scenario-missing"),
    pytest.param({"world.obstacles": [5]}, "world: obstacles must be a list of objects",
                 id="obstacle-not-object"),
    pytest.param({"world.obstacles": {"type": "circle", "center": [5.0, 4.0], "radius": 0.5}},
                 "world: obstacles must be a list of objects", id="obstacles-not-list"),
    pytest.param({"sensor.n_rays": 2.5}, r"SensorConfig\.n_rays must be an integer, got 2\.5",
                 id="sensor-float-count"),
]


class TestStrictScenario:
    @pytest.mark.parametrize("world", ["empty_world", "circle_world", "box_world"])
    def test_save_writes_the_documented_format(self, tmp_path, request, world):
        world = request.getfixturevalue(world)
        sensor = SensorConfig(noise=NoiseModel(range_bias_scale=0.2, dropout_prob=0.1))
        path = tmp_path / "scenario.json"
        save_scenario(path, world, sensor, seed=77)
        assert path.read_text() == scenario_reference(world, sensor, 77)

    def test_valid_document_loads_with_dataclass_defaults(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc(**{"world.obstacles": None, "note": "kept"})))
        world, sensor, seed, extras = load_scenario(path)
        assert sensor == SensorConfig(n_rays=60, noise=NoiseModel(additive_sigma=0.02))
        assert world.start == RobotState(1.0, 1.0, 0.0) and world.obstacles == ()
        assert (seed, extras) == (3, {"note": "kept"})

    @pytest.mark.parametrize("change, message", MALFORMED_SCENARIOS)
    def test_malformed_section_is_refused(self, tmp_path, change, message):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario_doc(**change)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            load_scenario(path)

    def test_sensor_keys_are_not_dropped(self):
        with pytest.raises(ValueError, match="sensor: unknown key 'n_ray'"):
            sensor_from_dict({"n_ray": 10, "maxrange": 2.0})
        assert sensor_from_dict({"n_rays": 10, "max_range": 2.0}) == SensorConfig(n_rays=10, max_range=2.0)

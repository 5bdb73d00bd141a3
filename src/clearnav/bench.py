"""Episode harness and benchmark: seeded runs, method baselines, metric tables.

Methods
-------
augmented   : learned model trained with the risk-head cross entropy
baseline_nll: learned model trained with NLL only (untrained kernel width)
det         : augmented model's mean with spread forced to 1e-6 (deterministic check)
raw_costmap : collision-checks rollouts directly against the noisy cloud with a
              fixed inflation, emulating a classical costmap stack
oracle      : exact clearance against the true scan (planner upper bound)

Suite worlds are procedurally cluttered boxes/cylinders with a guaranteed
feasible corridor (a flood fill on an inflated occupancy raster), so a stuck
episode reflects planner failure rather than infeasibility.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .dynamics import RobotState, step
from .model import (
    DEFAULT_LAMBDA,
    ClearanceIndex,
    ModelParams,
    PolarFeaturizer,
    load_checkpoint,
    predict_batch,
)
from .planner import PlannerConfig, SimState, mpc_step
from .world import (
    BiasField,
    Box,
    Circle,
    NoiseModel,
    SensorConfig,
    World,
    _check_counts,
    _check_finite,
    _check_keys,
    _read,
    body_to_world,
    raycast_scan,
    true_clearance,
    world_from_dict,
    world_to_dict,
)

METHODS = ("augmented", "baseline_nll", "det", "raw_costmap", "oracle")
# learned method -> the model it plans with (the key of its checkpoint)
_MODEL_OF = {"augmented": "augmented", "baseline_nll": "baseline_nll", "det": "augmented"}


class MissingCheckpointError(ValueError):
    """A learned method lacks the model it plans with; `key` names that model."""

    def __init__(self, method: str, key: str):
        super().__init__(f"method {method!r} needs a {key!r} checkpoint")
        self.key = key


def _check_methods(methods, model_keys) -> None:
    """Reject an unknown or repeated method, or a learned one whose model key is missing."""
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
        if method in methods[:i]:
            raise ValueError(f"method {method!r} is listed twice")
        if method in _MODEL_OF and _MODEL_OF[method] not in model_keys:
            raise MissingCheckpointError(method, _MODEL_OF[method])


# noise calibrated to reproduce the qualitative failure driver: a systematic,
# placement-dependent range offset large enough to defeat direct costmap checks
DESK_NOISE = NoiseModel(
    range_bias_scale=0.22, additive_sigma=0.04, drift_timescale=30, dropout_prob=0.05
)

@dataclass
class EpisodeConfig:
    timeout_s: float = 120.0
    stuck_window_s: float = 10.0
    stuck_displacement: float = 0.1
    goal_tolerance: float = 0.5
    exec_horizon: int = 5
    oracle_sigma: float = 0.05
    det_sigma: float = 1e-6
    costmap_inflation: float = 0.4  # fixed inflation for the raw-costmap baseline

    def __post_init__(self):
        _check_counts(self, "exec_horizon")


@dataclass(eq=False)
class EpisodeOutcome:
    result: str  # one of OUTCOMES
    duration: float  # sim seconds
    trace: dict  # per-step arrays (see TRACE_FIELDS)
    avg_speed: float
    max_speed: float
    min_true_clearance: float
    world: World
    seed: int
    method: str
    commands: np.ndarray  # (steps, 2) executed commands
    dt: float  # sim seconds per command, as the replay steps them


OUTCOMES = ("reached", "collided", "stuck", "timeout")
TRACE_FIELDS = ("t", "x", "y", "psi", "v", "omega", "mu", "sigma", "lam", "risk", "true_clearance")


@dataclass(eq=False)
class BenchmarkReport:
    # method -> {"collision_pct", "stuck_pct", "timeout_pct", "reached_pct", "avg_speed", "max_speed"}
    methods: dict
    outcomes: dict  # method -> list of per-episode summaries
    episodes: int
    seed: int
    config_hash: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    def format_table(self) -> str:
        header = (f"{'method':<14}{'% reached':>11}{'% collisions':>14}{'% stuck':>10}{'% timeout':>12}"
                  f"{'avg speed':>12}{'max speed':>12}")
        lines = [header, "-" * len(header)]
        for name, m in self.methods.items():
            lines.append(
                f"{name:<14}{m['reached_pct']:>11.1f}{m['collision_pct']:>14.1f}{m['stuck_pct']:>10.1f}"
                f"{m['timeout_pct']:>12.1f}{m['avg_speed']:>12.3f}{m['max_speed']:>12.3f}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Predictor factories per method

@dataclass(eq=False)
class LearnedModel:
    params: ModelParams
    featurizer: PolarFeaturizer
    dt: float  # the command step the model was trained at


def model_from_checkpoint(path) -> LearnedModel:
    """Load a learned model; the meta gives its featurizer and step: fov, max_range, n_sectors, dt > 0."""
    params, _, meta = load_checkpoint(path)
    for key, kind in (("fov", float), ("max_range", float), ("n_sectors", int), ("dt", float)):
        if key not in meta:
            raise ValueError(f"{path}: meta_json: missing key {key!r}")
        if not _read(meta[key], kind, f"{path}: meta_json.{key}") > 0:
            raise ValueError(f"{path}: meta_json.{key} must be > 0, got {meta[key]}")
    feat = PolarFeaturizer(fov=meta["fov"], max_range=meta["max_range"], n_sectors=meta["n_sectors"])
    if feat.n_sectors + 2 != params.n_features:
        raise ValueError(
            f"{path}: n_sectors {feat.n_sectors} + 2 does not match the model's "
            f"n_features {params.n_features}"
        )
    return LearnedModel(params, feat, meta["dt"])


def make_predictor_factory(
    method: str,
    world: World,
    sensor: SensorConfig,
    cfg: PlannerConfig,
    ep: EpisodeConfig,
    models: dict[str, LearnedModel] | None,
):
    """(predictor factory, planner config) of a method; the only place a method becomes a predictor.

    Learned methods featurize once per plan call (det forces augmented's spread to
    ep.det_sigma); oracle and raw_costmap take the exact clearance against the true
    scan or the noisy cloud, the latter under a fixed inflation."""
    models = models or {}
    _check_methods([method], models)
    if method in _MODEL_OF:
        model = models[_MODEL_OF[method]]
        feat = model.featurizer  # compared exactly: the model has seen no other inputs
        if (model.params.horizon, model.dt, feat.fov, feat.max_range) != (
                cfg.horizon, cfg.dt, sensor.fov, sensor.max_range):
            raise ValueError(
                f"{method}: model horizon {model.params.horizon} dt {model.dt} fov {feat.fov} "
                f"max_range {feat.max_range} does not match planner horizon {cfg.horizon} "
                f"dt {cfg.dt} and sensor fov {sensor.fov} max_range {sensor.max_range}"
            )

        def learned(scan: np.ndarray, state: RobotState):
            obs = feat.featurize(scan, state)

            def predictor(u_flat: np.ndarray):
                mu, sigma, lam = predict_batch(model.params, obs, u_flat)
                if method == "det":
                    sigma = np.full_like(sigma, ep.det_sigma)
                return mu, sigma, lam

            return predictor

        return learned, cfg

    spread = ep.oracle_sigma if method == "oracle" else ep.det_sigma

    def geometric(scan: np.ndarray, state: RobotState):
        # resolved at call time: a module-level binding here would bypass anything
        # that replaces clearnav.model.worst_case_clearance (perfbench's span tracer)
        from .model import worst_case_clearance

        cloud_world = body_to_world(raycast_scan(state, world, sensor) if method == "oracle" else scan, state)
        # every iteration of the plan call queries this cloud from this state
        index = ClearanceIndex(state, cloud_world)

        def predictor(u_flat: np.ndarray):
            mu = worst_case_clearance(state, u_flat.reshape(-1, cfg.horizon, 2), cloud_world,
                                      cfg.dt, sensor.max_range, index)
            return mu, np.full_like(mu, spread), np.full_like(mu, DEFAULT_LAMBDA)

        return predictor

    return geometric, replace(cfg, d_o=ep.costmap_inflation) if method == "raw_costmap" else cfg


# ---------------------------------------------------------------------------
# Episode runner

def run_episode(
    world: World,
    method: str,
    seed: int,
    sensor: SensorConfig,
    planner_cfg: PlannerConfig,
    episode_cfg: EpisodeConfig | None = None,
    models: dict[str, LearnedModel] | None = None,
) -> EpisodeOutcome:
    """Run the MPC loop to goal / collision / stuck / timeout."""
    ep = episode_cfg or EpisodeConfig()
    # the planning config may carry a method-specific inflation radius; the
    # episode verdict always uses the true robot footprint
    factory, cfg = make_predictor_factory(method, world, sensor, planner_cfg, ep, models)
    d_robot = planner_cfg.d_o
    rng = np.random.default_rng([seed, 7])
    sim = SimState(
        state=world.start,
        rng=rng,
        bias=BiasField(sensor.noise, seed=int(np.random.default_rng([seed, 11]).integers(2**63))),
    )
    goal = np.asarray(world.goal)
    max_steps = int(round(ep.timeout_s / cfg.dt))
    window = int(round(ep.stuck_window_s / cfg.dt))

    # one row of TRACE_FIELDS per state: the start, then each executed state,
    # whose v/omega are the command that produced it (see dynamics.step)
    rows: list[tuple] = []
    result = None
    while result is None:
        executed, res = mpc_step(sim, world, sensor, factory, goal, cfg, ep.exec_horizon)
        for s in executed if rows else [world.start, *executed]:
            clearance = true_clearance((s.x, s.y), world)
            rows.append((len(rows) * cfg.dt, s.x, s.y, s.psi, s.v, s.omega,
                         res.mu, res.sigma, res.lam, res.risk, min(clearance, sensor.max_range)))
            if len(rows) == 1:
                continue  # the start state is recorded, not judged
            if clearance < d_robot:
                result = "collided"
            elif np.hypot(s.x - goal[0], s.y - goal[1]) <= ep.goal_tolerance:
                result = "reached"
            # fields 1 and 2 of a row are x and y; compared with the state `window` commands ago
            elif len(rows) > window and np.hypot(
                s.x - rows[-1 - window][1], s.y - rows[-1 - window][2]
            ) < ep.stuck_displacement:
                result = "stuck"
            elif len(rows) - 1 >= max_steps:
                result = "timeout"
            if result is not None:
                break

    trace = {k: np.asarray(col) for k, col in zip(TRACE_FIELDS, zip(*rows))}
    speeds = trace["v"][1:]
    return EpisodeOutcome(
        result=result,
        duration=speeds.size * cfg.dt,
        trace=trace,
        avg_speed=float(speeds.mean()),
        max_speed=float(speeds.max()),
        min_true_clearance=float(trace["true_clearance"].min()),
        world=world,
        seed=seed,
        method=method,
        commands=np.column_stack([speeds, trace["omega"][1:]]),
        dt=cfg.dt,
    )


# ---------------------------------------------------------------------------
# Procedural suite

@dataclass
class SuiteConfig:
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 10.0, 8.0)
    n_obstacles: tuple[int, int] = (7, 12)  # inclusive range
    box_size: tuple[float, float] = (0.3, 0.9)
    circle_radius: tuple[float, float] = (0.15, 0.45)
    d_o: float = 0.3
    corridor_margin: float = 0.1  # extra inflation the feasibility check requires
    grid_cell: float = 0.1
    start_x: float = 1.2
    goal_x_offset: float = 1.2

    def __post_init__(self):
        ranges = ("n_obstacles", "box_size", "circle_radius")
        for name in ranges:
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValueError(f"SuiteConfig.{name} must be a (low, high) pair, got {pair!r}")
        _check_finite(self)
        _check_counts(self, "n_obstacles", least=0)
        for name in ranges:
            low, high = getattr(self, name)
            if not low <= high:
                raise ValueError(f"SuiteConfig.{name} must have low <= high, got {(low, high)!r}")
        for name in ("box_size", "circle_radius"):
            if not getattr(self, name)[0] > 0:  # the low end, so both
                raise ValueError(f"SuiteConfig.{name} must be > 0, got {getattr(self, name)!r}")
        for name in ("grid_cell", "d_o"):
            if not getattr(self, name) > 0:
                raise ValueError(f"SuiteConfig.{name} must be > 0, got {getattr(self, name)!r}")
        if not self.corridor_margin >= 0:
            raise ValueError(f"SuiteConfig.corridor_margin must be >= 0, got {self.corridor_margin!r}")


def _free_runs(free: np.ndarray) -> tuple[np.ndarray, int]:
    """Label the maximal runs of free cells along the last axis: 1, 2, ... in order, 0 where blocked.

    Returns the labels and the number of runs."""
    starts = free.copy()
    starts[:, 1:] &= ~free[:, :-1]
    labels = np.cumsum(starts).reshape(free.shape)  # flattened in the view's C order
    labels[~free] = 0
    return labels, int(labels.max(initial=0))


def grid_path_exists(world: World, d_inflate: float, cell: float = 0.1) -> bool:
    """Whether a 4-connected path joins start and goal on an occupancy raster inflated by d_inflate.

    A cell is free when its centre lies farther than d_inflate from every
    obstacle and at least d_inflate, rounded up to whole cells, from the arena
    walls. The search is a run flood (a scanline seed fill): the maximal free
    runs along x and along y are labelled once, and each sweep adds every run
    along one axis that holds a reached cell, alternating the axes. It stops
    when the goal's cell is reached, or when a sweep after the first adds no
    cell: the sweep before it left the set closed along the other axis, so the
    set is then the start's whole 4-connected component.
    """
    xmin, ymin, xmax, ymax = world.bounds
    nx = int(math.ceil((xmax - xmin) / cell))
    ny = int(math.ceil((ymax - ymin) / cell))
    xs = xmin + (np.arange(nx) + 0.5) * cell
    ys = ymin + (np.arange(ny) + 0.5) * cell
    free = np.ones((nx, ny), dtype=bool)
    # one (K, nx, ny) mask per obstacle kind, broadcast from 1-D x and y terms: element for
    # element the floats of a meshgrid per obstacle, the squared radii still Python's
    circles = [(c.cx, c.cy, (c.radius + d_inflate) ** 2) for c in world.obstacles if isinstance(c, Circle)]
    boxes = [(b.xmin, b.ymin, b.xmax, b.ymax) for b in world.obstacles if isinstance(b, Box)]
    if circles:
        cx, cy, r2 = np.array(circles).T[:, :, None]
        free &= (((xs - cx) ** 2)[:, :, None] + ((ys - cy) ** 2)[:, None, :] > r2[:, :, None]).all(axis=0)
    if boxes:
        x0, y0, x1, y1 = np.array(boxes).T[:, :, None]
        dx = np.maximum(np.maximum(x0 - xs, 0.0), xs - x1)
        dy = np.maximum(np.maximum(y0 - ys, 0.0), ys - y1)
        free &= ((dx * dx)[:, :, None] + (dy * dy)[:, None, :] > d_inflate**2).all(axis=0)
    # keep off the arena walls too
    wall = int(math.ceil(d_inflate / cell))
    if wall > 0:
        free[:wall, :] = free[-wall:, :] = False
        free[:, :wall] = free[:, -wall:] = False

    # the raster cells of the start and the goal, clamped into the grid
    cells = ((np.array([world.start.position, world.goal]) - (xmin, ymin)) / cell).astype(int)
    start, goal = map(tuple, np.clip(cells, 0, (nx - 1, ny - 1)))
    x_runs, n_x = _free_runs(free.T)
    runs = ((x_runs.T, n_x), _free_runs(free))  # along x, then along y
    reach = np.zeros_like(free)
    reach[start] = free[start]
    size = int(reach[start])
    for sweep in itertools.count():
        labels, n_runs = runs[sweep % 2]
        hit = np.zeros(n_runs + 1, dtype=bool)
        hit[labels[reach]] = True  # a reached cell is free, so label 0 is never hit
        reach = hit[labels]
        if reach[goal]:
            return True
        grown = np.count_nonzero(reach)
        if sweep and grown == size:
            return False
        size = grown


def make_clutter_world(rng: np.random.Generator, suite: SuiteConfig | None = None) -> World:
    """Random cluttered arena with a feasibility-checked start-goal corridor."""
    suite = suite or SuiteConfig()
    xmin, ymin, xmax, ymax = suite.bounds
    for _ in range(200):
        n_obs = int(rng.integers(suite.n_obstacles[0], suite.n_obstacles[1] + 1))
        obstacles: list = []
        for _ in range(n_obs):
            cx = rng.uniform(xmin + 1.8, xmax - 1.8)
            cy = rng.uniform(ymin + 0.6, ymax - 0.6)
            if rng.random() < 0.5:
                w = rng.uniform(*suite.box_size)
                h = rng.uniform(*suite.box_size)
                obstacles.append(Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
            else:
                obstacles.append(Circle(cx, cy, rng.uniform(*suite.circle_radius)))
        sy = rng.uniform(ymin + 1.5, ymax - 1.5)
        gy = rng.uniform(ymin + 1.5, ymax - 1.5)
        start = RobotState(suite.start_x, sy, rng.uniform(-0.5, 0.5))
        goal = (xmax - suite.goal_x_offset, gy)
        world = World(tuple(obstacles), suite.bounds, start, goal)
        clear = suite.d_o + suite.corridor_margin
        if true_clearance((start.x, start.y), world) <= clear or true_clearance(goal, world) <= clear:
            continue
        if grid_path_exists(world, clear, suite.grid_cell):
            return world
    raise RuntimeError("failed to generate a feasible clutter world")


def suite_worlds(n: int, seed: int, suite: SuiteConfig | None = None) -> list[World]:
    return [make_clutter_world(np.random.default_rng([seed, 101, i]), suite) for i in range(n)]


def training_worlds(n: int, seed: int) -> list[World]:
    """The worlds `clearnav gen-data` labels: a stream suite_worlds never draws, so
    no seed labels a world that `clearnav bench` runs."""
    return [make_clutter_world(np.random.default_rng([seed, 103, i])) for i in range(n)]


# ---------------------------------------------------------------------------
# Benchmark

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _one_blas_thread_env():
    """Set the BLAS thread counts to 1 in os.environ for the block, then restore them.

    BLAS reads them once, when numpy loads, so they reach processes spawned inside
    the block; a forked worker keeps the thread count its parent loaded BLAS with."""
    saved = {k: os.environ.get(k) for k in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _episode_job(args, models: dict[str, LearnedModel] | None):
    """Run one benchmark episode and summarize it."""
    world, method, seed, sensor, planner_cfg, episode_cfg = args
    return _summarize(run_episode(world, method, seed, sensor, planner_cfg, episode_cfg, models))


def _summarize(out: EpisodeOutcome) -> dict:
    """The report's record of an episode: its fields but the arrays, the world and the step."""
    return {k: v for k, v in vars(out).items() if k not in ("trace", "world", "commands", "dt")}


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def run_benchmark(
    methods: list[str],
    episodes: int,
    seed: int,
    sensor: SensorConfig,
    planner_cfg: PlannerConfig,
    episode_cfg: EpisodeConfig | None = None,
    workers: int = 1,
    models: dict[str, LearnedModel] | None = None,
) -> BenchmarkReport:
    """Run E seeded episodes per method on a procedurally generated suite.

    Episode e of every method shares world e and the episode seed [seed, e],
    so methods face identical scenarios. Results are deterministic for a given
    (seed, config) regardless of worker count. `models` maps "augmented" and
    "baseline_nll" to the models of the learned methods; with `workers` > 1 the
    episodes run in that many processes spawned with BLAS pinned to one thread,
    and each job carries the models to its worker.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    _check_methods(methods, models or {})
    ep = episode_cfg or EpisodeConfig()
    worlds = suite_worlds(episodes, seed)
    cfg_payload = {
        "methods": sorted(methods),
        "episodes": episodes,
        "seed": seed,
        "sensor": asdict(sensor),
        "planner": asdict(planner_cfg),
        "episode": asdict(ep),
        "suite": asdict(SuiteConfig()),
    }
    jobs = [(world, method, _episode_seed(seed, e), sensor, planner_cfg, ep)
            for method in methods for e, world in enumerate(worlds)]
    job = functools.partial(_episode_job, models=models)
    if workers > 1:
        # spawned workers load numpy afresh with one BLAS thread each, so that
        # `workers` processes do not oversubscribe the cores with BLAS threads
        with _one_blas_thread_env(), ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
        ) as pool:
            results = list(pool.map(job, jobs))
    else:
        results = list(map(job, jobs))
    outcomes: dict[str, list[dict]] = {}
    for res in results:
        outcomes.setdefault(res["method"], []).append(res)

    stats = {}
    for method in methods:
        outs = outcomes[method]
        n = len(outs)
        speeds = [o["avg_speed"] for o in outs]
        stats[method] = {
            "collision_pct": 100.0 * sum(o["result"] == "collided" for o in outs) / n,
            "stuck_pct": 100.0 * sum(o["result"] == "stuck" for o in outs) / n,
            "timeout_pct": 100.0 * sum(o["result"] == "timeout" for o in outs) / n,
            "reached_pct": 100.0 * sum(o["result"] == "reached" for o in outs) / n,
            "avg_speed": float(np.mean(speeds)),
            "max_speed": float(max(o["max_speed"] for o in outs)),
        }
    return BenchmarkReport(
        methods=stats,
        outcomes=outcomes,
        episodes=episodes,
        seed=seed,
        config_hash=_config_hash(cfg_payload),
    )


def _episode_seed(seed: int, episode: int) -> int:
    return int(np.random.default_rng([seed, 211, episode]).integers(2**31))


# ---------------------------------------------------------------------------
# Traces and replay

def emit_traces(outcome: EpisodeOutcome, out_dir, stem: str = "episode") -> tuple[str, str]:
    """Write the per-step CSV trace and a replay JSON; returns both paths."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    n = outcome.trace["t"].shape[0]
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_FIELDS)
        for i in range(n):
            row = [outcome.trace[k][i] for k in TRACE_FIELDS]
            if not all(math.isfinite(v) for v in row):
                raise ValueError(f"non-finite trace value at row {i}")
            w.writerow([repr(float(v)) for v in row])
    replay_path = os.path.join(out_dir, f"{stem}_replay.json")
    doc = {
        "world": world_to_dict(outcome.world),
        "method": outcome.method,
        "seed": outcome.seed,
        "result": outcome.result,
        "dt": float(outcome.dt),
        "commands": outcome.commands.tolist(),
    }
    with open(replay_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    return csv_path, replay_path


def replay_trajectory(replay_path) -> tuple[World, np.ndarray]:
    """Re-simulate the recorded commands; returns (world, states (n+1, 5)). A key or value other
    than emit_traces writes raises ValueError naming the file and the value's path."""
    try:
        with open(replay_path) as f:
            doc = _read(json.load(f), dict, "replay")
        _check_keys("replay", doc, ("world", "method", "seed", "result", "dt", "commands"))
        world, dt = world_from_dict(doc["world"]), _read(doc["dt"], float, "dt")
        commands = _read(doc["commands"], tuple[tuple[float, float], ...], "commands")
        for key, allowed in (("method", METHODS), ("result", OUTCOMES)):
            if _read(doc[key], str, key) not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got {json.dumps(doc[key])}")
        if _read(doc["seed"], int, "seed") < 0:
            raise ValueError(f"seed must be >= 0, got {doc['seed']}")
        if not dt > 0:
            raise ValueError(f"dt must be > 0, got {dt}")
    except ValueError as e:
        raise ValueError(f"{replay_path}: {e}") from None
    s = world.start
    states = [s.as_array()]
    for v, w in commands:
        s = step(s, v, w, dt)
        states.append(s.as_array())
    return world, np.asarray(states)

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
feasible corridor (grid BFS on an inflated occupancy raster), so a stuck
episode reflects planner failure rather than infeasibility.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .dynamics import RobotState, step
from .model import (
    DEFAULT_LAMBDA,
    ModelParams,
    PolarFeaturizer,
    RiskHeadParams,
    load_checkpoint,
    predict_batch,
)
from .planner import PlannerConfig, PlanResult, SimState, mpc_step
from .world import (
    BiasField,
    Box,
    Circle,
    NoiseModel,
    SensorConfig,
    World,
    body_to_world,
    raycast_scan,
    sensor_from_dict,
    sensor_to_dict,
    true_clearance,
    world_from_dict,
    world_to_dict,
)

METHODS = ("augmented", "baseline_nll", "det", "raw_costmap", "oracle")

# noise calibrated to reproduce the qualitative failure driver: a systematic,
# placement-dependent range offset large enough to defeat direct costmap checks
DESK_NOISE = NoiseModel(
    range_bias_scale=0.22, additive_sigma=0.04, drift_timescale=30, dropout_prob=0.05
)

# benchmark planning configuration: small enough for hundreds of episodes,
# strong enough that the full-size default adds nothing on the desk suite
BENCH_PLANNER = PlannerConfig(
    iterations=10,
    samples=192,
    risk_elites=48,
    elites=16,
    risk_draws=30,
    w_risk=2e4,
    w_effort=2.0,
    seed=0,
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


@dataclass(eq=False)
class EpisodeOutcome:
    result: str  # reached | collided | stuck | timeout
    duration: float  # sim seconds
    trace: dict  # per-step arrays (see TRACE_FIELDS)
    avg_speed: float
    max_speed: float
    min_true_clearance: float
    world: World
    seed: int
    method: str
    commands: np.ndarray  # (steps, 2) executed commands


TRACE_FIELDS = ("t", "x", "y", "psi", "v", "omega", "mu", "sigma", "lam", "risk", "true_clearance")


@dataclass(eq=False)
class BenchmarkReport:
    methods: dict  # method -> {"collision_pct", "stuck_pct", "avg_speed", "max_speed"}
    outcomes: dict  # method -> list of per-episode summaries
    episodes: int
    seed: int
    config_hash: str

    def to_dict(self) -> dict:
        return {
            "episodes": self.episodes,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "methods": self.methods,
            "outcomes": self.outcomes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())

    def format_table(self) -> str:
        header = f"{'method':<14}{'% collisions':>14}{'% stuck':>10}{'avg speed':>12}{'max speed':>12}"
        lines = [header, "-" * len(header)]
        for name, m in self.methods.items():
            lines.append(
                f"{name:<14}{m['collision_pct']:>14.1f}{m['stuck_pct']:>10.1f}"
                f"{m['avg_speed']:>12.3f}{m['max_speed']:>12.3f}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Predictor factories per method

@dataclass(eq=False)
class LearnedModel:
    params: ModelParams
    risk_head: RiskHeadParams | None
    featurizer: PolarFeaturizer


def model_from_checkpoint(path) -> LearnedModel:
    """Load a learned model; its featurizer must be fully described by the meta."""
    params, risk_head, meta = load_checkpoint(path)
    missing = [k for k in ("fov", "max_range", "n_sectors") if k not in meta]
    if missing:
        raise ValueError(f"{path}: checkpoint meta lacks featurizer keys {missing}")
    feat = PolarFeaturizer(fov=meta["fov"], max_range=meta["max_range"], n_sectors=meta["n_sectors"])
    if feat.n_sectors + 2 != params.n_features:
        raise ValueError(
            f"{path}: n_sectors {feat.n_sectors} + 2 does not match the model's "
            f"n_features {params.n_features}"
        )
    return LearnedModel(params, risk_head, feat)


def learned_factory(model: LearnedModel, sigma_override: float | None = None):
    """Predictor factory for the learned methods; optional forced spread (det)."""

    def factory(std_cloud: np.ndarray, state: RobotState):
        obs = model.featurizer.featurize(std_cloud, state)

        def predictor(u_flat: np.ndarray):
            mu, sigma, lam = predict_batch(model.params, obs, u_flat)
            if sigma_override is not None:
                sigma = np.full_like(sigma, sigma_override)
            return mu, sigma, lam

        return predictor

    return factory


def _cloud_clearance_predictor(cloud_world: np.ndarray, state: RobotState, sigma: float,
                               lam: float, horizon: int, dt: float, cap: float):
    # resolved at call time: a module-level binding here would bypass anything
    # that replaces clearnav.model.worst_case_clearance (perfbench's span tracer)
    from .model import worst_case_clearance

    def predictor(u_flat: np.ndarray):
        mu = worst_case_clearance(state, u_flat.reshape(-1, horizon, 2), cloud_world, dt, cap)
        return mu, np.full_like(mu, sigma), np.full_like(mu, lam)

    return predictor


def oracle_factory(world: World, sensor: SensorConfig, cfg: PlannerConfig, ep: EpisodeConfig):
    """Exact clearance against a fresh true scan from the current state."""
    def factory(std_cloud: np.ndarray, state: RobotState):
        cloud_world = body_to_world(raycast_scan(state, world, sensor), state)
        return _cloud_clearance_predictor(
            cloud_world, state, ep.oracle_sigma, DEFAULT_LAMBDA,
            cfg.horizon, cfg.dt, sensor.max_range,
        )

    return factory


def costmap_factory(sensor: SensorConfig, cfg: PlannerConfig, ep: EpisodeConfig):
    """Trusts the noisy standardized cloud directly; near-deterministic check."""
    def factory(std_cloud: np.ndarray, state: RobotState):
        cloud_world = body_to_world(std_cloud, state)
        return _cloud_clearance_predictor(
            cloud_world, state, ep.det_sigma, DEFAULT_LAMBDA,
            cfg.horizon, cfg.dt, sensor.max_range,
        )

    return factory


def make_predictor_factory(
    method: str,
    world: World,
    sensor: SensorConfig,
    cfg: PlannerConfig,
    ep: EpisodeConfig,
    models: dict[str, LearnedModel] | None,
):
    models = models or {}
    if method in ("augmented", "baseline_nll", "det"):
        model = models["baseline_nll" if method == "baseline_nll" else "augmented"]
        if model.params.horizon != cfg.horizon:
            raise ValueError(
                f"{method}: model horizon {model.params.horizon} does not match "
                f"planner horizon {cfg.horizon}"
            )
        sigma_override = ep.det_sigma if method == "det" else None
        return learned_factory(model, sigma_override=sigma_override), cfg
    if method == "raw_costmap":
        return costmap_factory(sensor, cfg, ep), replace(cfg, d_o=ep.costmap_inflation)
    if method == "oracle":
        return oracle_factory(world, sensor, cfg, ep), cfg
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


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

    cols = {k: [] for k in TRACE_FIELDS}
    commands: list[tuple[float, float]] = []

    def record(state: RobotState, t_step: int, res: PlanResult):
        cols["t"].append(t_step * cfg.dt)
        cols["x"].append(state.x)
        cols["y"].append(state.y)
        cols["psi"].append(state.psi)
        cols["v"].append(state.v)
        cols["omega"].append(state.omega)
        cols["mu"].append(res.mu)
        cols["sigma"].append(res.sigma)
        cols["lam"].append(res.lam)
        cols["risk"].append(res.risk)
        cols["true_clearance"].append(min(true_clearance(state.position, world), sensor.max_range))

    result = None
    positions = [world.start.position]
    first = True
    while True:
        executed, plan_res = mpc_step(sim, world, sensor, factory, goal, cfg, ep.exec_horizon)
        if first:
            record(world.start, 0, plan_res)
            first = False
        for s in executed:
            t_step = len(commands) + 1
            commands.append((s.v, s.omega))
            positions.append(s.position)
            record(s, t_step, plan_res)
            if true_clearance(s.position, world) < d_robot:
                result = "collided"
                break
            if np.hypot(s.x - goal[0], s.y - goal[1]) <= ep.goal_tolerance:
                result = "reached"
                break
            n = len(positions)
            if n > window:
                disp = np.hypot(*(positions[-1] - positions[-1 - window]))
                if disp < ep.stuck_displacement:
                    result = "stuck"
                    break
            if t_step >= max_steps:
                result = "timeout"
                break
        if result is not None:
            break

    commands_arr = np.asarray(commands).reshape(-1, 2)
    trace = {k: np.asarray(v) for k, v in cols.items()}
    speeds = commands_arr[:, 0] if commands_arr.size else np.zeros(1)
    return EpisodeOutcome(
        result=result,
        duration=len(commands) * cfg.dt,
        trace=trace,
        avg_speed=float(speeds.mean()),
        max_speed=float(speeds.max()),
        min_true_clearance=float(trace["true_clearance"].min()),
        world=world,
        seed=seed,
        method=method,
        commands=commands_arr,
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


def grid_path_exists(world: World, d_inflate: float, cell: float = 0.1) -> bool:
    """BFS on an occupancy raster inflated by d_inflate from start to goal."""
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
    # keep off the arena walls too
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
        if true_clearance(start.position, world) <= clear:
            continue
        if true_clearance(np.asarray(goal), world) <= clear:
            continue
        if grid_path_exists(world, clear, suite.grid_cell):
            return world
    raise RuntimeError("failed to generate a feasible clutter world")


def suite_worlds(n: int, seed: int, suite: SuiteConfig | None = None) -> list[World]:
    return [make_clutter_world(np.random.default_rng([seed, 101, i]), suite) for i in range(n)]


# ---------------------------------------------------------------------------
# Benchmark

def _episode_job(args):
    world_dict, method, seed, sensor_dict, planner_cfg, episode_cfg, model_paths = args
    sensor = sensor_from_dict(sensor_dict)
    world = world_from_dict(world_dict)
    models = {k: model_from_checkpoint(p) for k, p in (model_paths or {}).items()}
    out = run_episode(world, method, seed, sensor, planner_cfg, episode_cfg, models)
    return _summarize(out)


def _summarize(out: EpisodeOutcome) -> dict:
    return {
        "result": out.result,
        "duration": out.duration,
        "avg_speed": out.avg_speed,
        "max_speed": out.max_speed,
        "min_true_clearance": out.min_true_clearance,
        "seed": out.seed,
        "method": out.method,
    }


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def run_benchmark(
    methods: list[str],
    episodes: int,
    seed: int,
    sensor: SensorConfig,
    planner_cfg: PlannerConfig,
    episode_cfg: EpisodeConfig | None = None,
    models: dict[str, LearnedModel] | None = None,
    suite: SuiteConfig | None = None,
    workers: int = 1,
    model_paths: dict[str, str] | None = None,
) -> BenchmarkReport:
    """Run E seeded episodes per method on a procedurally generated suite.

    Episode e of every method shares world e and the episode seed [seed, e],
    so methods face identical scenarios. Results are deterministic for a given
    (seed, config) regardless of worker count. Worker processes load learned
    models from `model_paths`, so workers > 1 with a learned method needs it.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    needs_models = any(m in ("augmented", "baseline_nll", "det") for m in methods)
    if workers > 1 and needs_models and model_paths is None:
        raise ValueError("workers > 1 with a learned method needs model_paths (checkpoint files)")
    ep = episode_cfg or EpisodeConfig()
    worlds = suite_worlds(episodes, seed, suite)
    cfg_payload = {
        "methods": sorted(methods),
        "episodes": episodes,
        "seed": seed,
        "sensor": sensor_to_dict(sensor),
        "planner": asdict(planner_cfg),
        "episode": asdict(ep),
        "suite": asdict(suite or SuiteConfig()),
    }
    outcomes: dict[str, list[dict]] = {}
    jobs = []
    for method in methods:
        for e, world in enumerate(worlds):
            jobs.append((method, e, world))
    if workers > 1:
        arglist = [
            (world_to_dict(w), m, _episode_seed(seed, e), sensor_to_dict(sensor), planner_cfg, ep, model_paths)
            for (m, e, w) in jobs
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_episode_job, arglist))
    else:
        results = [
            _summarize(
                run_episode(w, m, _episode_seed(seed, e), sensor, planner_cfg, ep, models)
            )
            for (m, e, w) in jobs
        ]
    for (method, e, _), res in zip(jobs, results):
        outcomes.setdefault(method, []).append(res)

    stats = {}
    for method in methods:
        outs = outcomes[method]
        n = len(outs)
        speeds = [o["avg_speed"] for o in outs]
        stats[method] = {
            "collision_pct": 100.0 * sum(o["result"] == "collided" for o in outs) / n,
            "stuck_pct": 100.0 * sum(o["result"] in ("stuck", "timeout") for o in outs) / n,
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
        "dt": float(np.diff(outcome.trace["t"]).mean()) if n > 1 else 0.1,
        "commands": outcome.commands.tolist(),
    }
    with open(replay_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    return csv_path, replay_path


def replay_trajectory(replay_path) -> tuple[World, np.ndarray]:
    """Re-simulate the recorded commands; returns (world, states (n+1, 5))."""
    with open(replay_path) as f:
        doc = json.load(f)
    world = world_from_dict(doc["world"])
    dt = float(doc["dt"])
    s = world.start
    states = [s.as_array()]
    for v, w in doc["commands"]:
        s = step(s, v, w, dt)
        states.append(s.as_array())
    return world, np.asarray(states)

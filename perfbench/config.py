"""Every input of the benchmark, spelled out field by field.

Nothing here reads a default from a clearnav dataclass or module constant:
a change to `src/` that would shrink the load cannot reach the benchmark
without changing the configuration hash it records with every result.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict

from clearnav import data, dynamics, model, risk
from clearnav.bench import EpisodeConfig, SuiteConfig
from clearnav.planner import PlannerConfig
from clearnav.training import TrainConfig
from clearnav.world import NoiseModel, SensorConfig

HERE = os.path.dirname(os.path.abspath(__file__))
WEIGHTS_DIR = os.path.join(HERE, "weights")
MANIFEST = os.path.join(WEIGHTS_DIR, "manifest.json")

LEARNED_METHODS = ("augmented", "baseline_nll", "det")
GEOMETRIC_METHODS = ("oracle", "raw_costmap")

# desk sensor: 69 degree camera-like fov with a drifting multiplicative bias
SENSOR = SensorConfig(
    fov=math.radians(69.0),
    n_rays=120,
    max_range=5.0,
    noise=NoiseModel(range_bias_scale=0.22, additive_sigma=0.04, drift_timescale=30, dropout_prob=0.05),
)

# 192 samples x 10 iterations x 30 risk draws over a 50-step horizon: the
# tensor sizes of the baseline profile in ROADMAP.md
PLANNER = PlannerConfig(
    iterations=10,
    samples=192,
    risk_elites=48,
    elites=16,
    risk_draws=30,
    w_state=1.0,
    w_risk=2e4,
    w_effort=2.0,
    smoothing=0.7,
    seed=0,
    horizon=50,
    dt=0.1,
    d_o=0.3,
    var_floor=1e-6,
    init_v=0.5,
    init_var=0.25,
    dirac_variance=1e-5,
    noise_correlation=0.7,
)

# a segment is a short episode: the 1 s timeout ends it after two MPC steps
# of 5 executed commands each, unless it collides or reaches the goal first;
# the stuck window is longer than the timeout, so "stuck" cannot end one
EPISODE = EpisodeConfig(
    timeout_s=1.0,
    stuck_window_s=10.0,
    stuck_displacement=0.1,
    goal_tolerance=0.5,
    exec_horizon=5,
    oracle_sigma=0.05,
    det_sigma=1e-6,
    costmap_inflation=0.4,
)

SUITE = SuiteConfig(
    bounds=(0.0, 0.0, 10.0, 8.0),
    n_obstacles=(7, 12),
    box_size=(0.3, 0.9),
    circle_radius=(0.15, 0.45),
    d_o=0.3,
    corridor_margin=0.1,
    grid_cell=0.1,
    start_x=1.2,
    goal_x_offset=1.2,
)

# plan workloads: worlds in the pool, and the clearance a sampled start pose
# keeps from every obstacle (robot radius plus a margin, so that a segment
# does not begin in contact)
PLAN_WORLDS = 24
START_CLEARANCE = 0.5
PLAN_CASES = 400  # start poses generated; more than any run consumes

# label workload: an item labels LABEL_SNAPSHOTS snapshots of one world from
# a pool of LABEL_WORLDS, LABEL_SEQUENCES command sequences each; LABEL_CHECKED
# of its labels are recomputed by the brute-force reference
LABEL_WORLDS = 24
LABEL_SNAPSHOTS = 10
LABEL_SEQUENCES = 50
LABEL_CHECKED = 2
LABEL_TOLERANCE_M = 1e-6

# train workload: set-up labels TRAIN_WORLDS x TRAIN_SNAPSHOTS snapshots; an
# item trains the augmented model on them for TRAIN_EPOCHS epochs
TRAIN_WORLDS = 6
TRAIN_SNAPSHOTS = 10
TRAIN_EPOCHS = 2

SETUP_REPEATS = 7


def train_config(seed: int, epochs: int) -> TrainConfig:
    return TrainConfig(
        risk_samples=50,
        d_o=0.3,
        learning_rate=2e-3,
        momentum=0.9,
        epochs=epochs,
        batch_size=256,
        nll_weight=1.0,
        ce_weight=1.0,
        sigma_penalty=0.0,
        seed=seed,
        holdout_fraction=0.1,
        hidden=64,
        risk_hidden=16,
        n_sectors=32,
        dirac_variance=1e-5,
        grad_clip=None,
    )


def load_manifest() -> dict:
    with open(MANIFEST) as f:
        return json.load(f)


def program_constants() -> dict:
    """Module constants of clearnav that shape the load; absent ones read None."""
    names = (
        (data, "CLOUD_SIZE"),
        (model, "LAMBDA_FLOOR"),
        (model, "DEFAULT_LAMBDA"),
        (model, "DEFAULT_SECTORS"),
        (model, "DEFAULT_HIDDEN"),
        (risk, "DIRAC_VARIANCE"),
        (dynamics, "V_MIN"),
        (dynamics, "V_MAX"),
        (dynamics, "OMEGA_MAX"),
    )
    return {f"{m.__name__}.{n}": getattr(m, n, None) for m, n in names}


def full_config(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "sensor": asdict(SENSOR),
        "planner": asdict(PLANNER),
        "episode": asdict(EPISODE),
        "suite": asdict(SUITE),
        "train": asdict(train_config(seed, TRAIN_EPOCHS)),
        "plan": {"worlds": PLAN_WORLDS, "start_clearance": START_CLEARANCE, "cases": PLAN_CASES},
        "label": {
            "worlds": LABEL_WORLDS,
            "snapshots": LABEL_SNAPSHOTS,
            "sequences": LABEL_SEQUENCES,
            "checked": LABEL_CHECKED,
            "tolerance_m": LABEL_TOLERANCE_M,
        },
        "train_set": {"worlds": TRAIN_WORLDS, "snapshots": TRAIN_SNAPSHOTS, "epochs": TRAIN_EPOCHS},
        "setup_repeats": SETUP_REPEATS,
        "weights": load_manifest()["sha256"],
        "constants": program_constants(),
    }


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]

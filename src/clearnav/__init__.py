"""Risk-aware 2D navigation on noisy range sensing.

Pipeline: a synthetic world simulator with a biased range sensor feeds a
probabilistic worst-case clearance model; an empirical-MMD risk metric turns
its predictions into collision risk; a sampling-based MPC planner minimizes
goal cost plus risk; a benchmark harness compares training variants.
"""

from .dynamics import RobotState, clip_command_batch, sample_controls
from .world import (
    BiasField,
    Box,
    Circle,
    NoiseModel,
    SensorConfig,
    World,
    estimated_scan,
    load_scenario,
    raycast_scan,
    save_scenario,
    standardize_cloud,
    true_clearance,
)
from .model import (
    ModelParams,
    PolarFeaturizer,
    RiskHeadParams,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    worst_case_clearance,
)
from .risk import (
    draw_dirac_samples,
    mmd_batch,
    residual,
)
from .data import ClearanceDataset, generate_dataset
from .training import (
    TrainConfig,
    TrainingDiverged,
    finite_difference_check,
    loss_and_grad,
    train,
)
from .planner import PlannerConfig, PlanResult, PlanningError, mpc_step, plan
from .bench import (
    DESK_NOISE,
    METHODS,
    BenchmarkReport,
    EpisodeConfig,
    EpisodeOutcome,
    SuiteConfig,
    emit_traces,
    make_clutter_world,
    replay_trajectory,
    run_benchmark,
    run_episode,
)

__version__ = "0.1.0"

"""Sampling-based trajectory optimizer with risk filtering, and the MPC loop.

Each iteration draws a batch of command sequences from a diagonal Gaussian,
queries the clearance model per sequence, scores collision risk via the
empirical MMD, keeps the lowest-risk subset, ranks it by total cost
(state + risk + effort), and refreshes the sampling distribution from
smoothed elite statistics. The best sample ever seen is retained and
returned, which makes the per-call best cost non-increasing by construction
(checked every iteration; a regression raises PlanningError).

Importing this module changes how the host process's malloc returns memory:
on Linux with glibc it calls mallopt(M_TOP_PAD, 64 MiB) once, for the whole
process. A plan call frees a few MB of numpy temporaries per iteration; by
default glibc trims that top of the heap back to the kernel and the next
iteration faults it in again, page by page (~2k minor faults per plan call
of 192 samples x 10 iterations). With the pad, up to 64 MiB of freed heap stays mapped for reuse;
the address space is reserved, not touched, so resident memory grows by
about 1 MB. Where mallopt is missing the import does nothing to malloc.
"""
from __future__ import annotations

import ctypes
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dynamics import RobotState, clip_command_batch, rollout_batch, step
from .risk import draw_dirac_samples, mmd_batch, residual
from .world import BiasField, SensorConfig, World, _check_counts, _check_finite, estimated_scan
from .world import standardize_cloud  # unused here: perfbench/tracer.py traces this binding

_M_TOP_PAD = -2  # glibc <malloc.h>
_TOP_PAD_BYTES = 64 << 20


def _keep_freed_heap_mapped() -> None:
    """Ask glibc to keep _TOP_PAD_BYTES of freed heap top mapped; see the module docstring."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


_keep_freed_heap_mapped()

# predictor: flat command batch (n, 2H) -> (mu, sigma, lam), each (n,)
Predictor = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


class PlanningError(RuntimeError):
    pass


@dataclass
class PlannerConfig:
    iterations: int = 10  # M
    samples: int = 192  # n
    risk_elites: int = 48  # n_c, constraint-elite count
    elites: int = 16  # n_e
    risk_draws: int = 30  # N clearance samples per candidate
    w_state: float = 1.0
    w_risk: float = 2e4
    w_effort: float = 2.0
    smoothing: float = 0.7  # elite blend factor in (0, 1]
    seed: int = 0  # not read: kept only because perfbench pins every field (ROADMAP item 7)
    horizon: int = 50
    dt: float = 0.1
    d_o: float = 0.3
    var_floor: float = 1e-6
    init_v: float = 0.5
    init_var: float = 0.25
    dirac_variance: float = 1e-5
    # cross-time correlation of turn-rate exploration noise: 0 = i.i.d. steps
    # (heading random walk, cannot express a sustained swerve), 1 = constant
    # offset per sequence. Speed noise stays i.i.d. so speed profiles remain
    # flexible. Per-dim marginals stay N(nu_k, var_k).
    noise_correlation: float = 0.7

    def __post_init__(self):
        _check_counts(self, "iterations", "samples", "risk_elites", "elites", "risk_draws", "horizon")
        if not self.samples >= self.risk_elites >= self.elites:
            raise ValueError("need samples >= risk_elites >= elites")
        if min(self.w_state, self.w_risk, self.w_effort) < 0:
            raise ValueError("cost weights must be >= 0")
        if not 0.0 < self.smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if not 0.0 <= self.noise_correlation <= 1.0:
            raise ValueError("noise_correlation must be in [0, 1]")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not self.d_o > 0:
            raise ValueError("robot radius d_o must be > 0")
        for name in ("init_var", "var_floor", "dirac_variance"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        _check_finite(self)


@dataclass
class IterationStats:
    iteration: int
    best_cost: float  # best-ever total cost after this iteration
    mean_risk: float
    min_risk: float


@dataclass(eq=False)
class PlanResult:
    commands: np.ndarray  # (H, 2) best command sequence, columns [v, omega]
    cost: float
    state_cost: float
    risk: float
    effort: float
    mu: float
    sigma: float
    lam: float
    nu: np.ndarray  # final sampling mean, for warm starts
    iterations: list[IterationStats] = field(default_factory=list)


def initial_distribution(cfg: PlannerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Straight-ahead half-speed mean with broad diagonal variance."""
    nu = np.zeros(2 * cfg.horizon)
    nu[0::2] = cfg.init_v
    var = np.full(2 * cfg.horizon, cfg.init_var)
    return nu, var


def shift_warm_start(nu: np.ndarray, steps: int) -> np.ndarray:
    """Advance the mean by `steps` commands, duplicating the final command."""
    cmd = nu.reshape(-1, 2)
    if steps <= 0:
        return nu.copy()
    steps = min(steps, cmd.shape[0] - 1)
    shifted = np.concatenate([cmd[steps:], np.repeat(cmd[-1:], steps, axis=0)])
    return shifted.ravel()


def plan(
    state: RobotState,
    predictor: Predictor,
    goal,
    cfg: PlannerConfig,
    rng: np.random.Generator,
    nu0: np.ndarray | None = None,
) -> PlanResult:
    """Run the full sampling loop and return the best-ever candidate.

    Every candidate is scored for risk; only the risk elites are rolled out and
    costed, since the cost ranking reads nothing else. Candidates with non-finite
    predictions are skipped; if an entire batch is invalid the call raises
    PlanningError.
    """
    goal = np.asarray(goal, dtype=float)
    nu, var = initial_distribution(cfg)
    if nu0 is not None:
        nu = np.asarray(nu0, dtype=float).copy()
    dirac = draw_dirac_samples(rng, cfg.risk_draws, cfg.dirac_variance)

    best = None  # (cost, u_flat, breakdown, (mu, sigma, lam, risk))
    stats: list[IterationStats] = []
    alpha = cfg.noise_correlation
    for m in range(cfg.iterations):
        noise = rng.standard_normal((cfg.samples, 2 * cfg.horizon))
        if alpha > 0.0:
            shared = rng.standard_normal((cfg.samples, 1))
            noise[:, 1::2] = alpha * shared + np.sqrt(1.0 - alpha**2) * noise[:, 1::2]
        u = clip_command_batch(nu + np.sqrt(var) * noise)
        mu, sigma, lam = predictor(u)
        valid = np.isfinite(mu) & np.isfinite(sigma) & np.isfinite(lam) & (sigma > 0) & (lam > 0)
        if not valid.any():
            raise PlanningError(f"all {cfg.samples} samples invalid at iteration {m}")
        if not valid.all():
            u, mu, sigma, lam = u[valid], mu[valid], sigma[valid], lam[valid]

        eps = rng.standard_normal((u.shape[0], cfg.risk_draws))
        d_samp = mu[:, None] + sigma[:, None] * eps
        risk = mmd_batch(residual(d_samp, cfg.d_o), dirac, lam)

        # s_cost and effort are indexed by position in risk_order, the rest by candidate
        n_c = min(cfg.risk_elites, u.shape[0])
        risk_order = np.argsort(risk, kind="stable")[:n_c]
        u_c = u[risk_order]
        poses = rollout_batch(state, u_c.reshape(-1, cfg.horizon, 2), cfg.dt)
        diff = poses[:, :, :2] - goal
        s_cost = (diff * diff).sum(axis=(1, 2))
        effort = (u_c * u_c).sum(axis=1)
        cost = cfg.w_state * s_cost + cfg.w_risk * risk[risk_order] + cfg.w_effort * effort
        n_e = min(cfg.elites, n_c)
        cost_order = np.argsort(cost, kind="stable")[:n_e]
        elite_idx = risk_order[cost_order]

        top_c = cost_order[0]
        top = elite_idx[0]
        top_cost = float(cost[top_c])
        if best is None or top_cost < best[0]:
            best = (
                top_cost,
                u[top].copy(),
                (float(s_cost[top_c]), float(risk[top]), float(effort[top_c])),
                (float(mu[top]), float(sigma[top]), float(lam[top])),
            )

        elite = u[elite_idx]
        nu = (1.0 - cfg.smoothing) * nu + cfg.smoothing * elite.mean(axis=0)
        var = (1.0 - cfg.smoothing) * var + cfg.smoothing * elite.var(axis=0)
        var = np.maximum(var, cfg.var_floor)

        stats.append(
            IterationStats(
                iteration=m,
                best_cost=best[0],
                mean_risk=float(risk.mean()),
                min_risk=float(risk.min()),
            )
        )
        if m and not stats[-1].best_cost <= stats[-2].best_cost:
            raise PlanningError(
                f"best-ever cost regressed at iteration {m}: "
                f"{stats[-2].best_cost} -> {stats[-1].best_cost}"
            )

    total, u_best, (sc, rk, ef), (bmu, bsig, blam) = best
    return PlanResult(
        commands=u_best.reshape(cfg.horizon, 2),
        cost=total,
        state_cost=sc,
        risk=rk,
        effort=ef,
        mu=bmu,
        sigma=bsig,
        lam=blam,
        nu=nu,
        iterations=stats,
    )


# ---------------------------------------------------------------------------
# Receding-horizon stepping

@dataclass(eq=False, kw_only=True)
class SimState:
    """Mutable episode-side state threaded through mpc_step calls."""

    state: RobotState
    rng: np.random.Generator
    t: int = 0  # executed steps so far
    nu: np.ndarray | None = None  # warm start for the next plan call
    bias: BiasField  # the sensor's drifting range bias over the episode


# factory: (body-frame scan cloud, current state) -> Predictor for this plan call
PredictorFactory = Callable[[np.ndarray, RobotState], Predictor]


def mpc_step(
    sim: SimState,
    world: World,
    sensor: SensorConfig,
    predictor_factory: PredictorFactory,
    goal,
    cfg: PlannerConfig,
    exec_horizon: int = 1,
) -> tuple[list[RobotState], PlanResult]:
    """Sense, plan, execute the first exec_horizon commands, shift the warm start.

    Returns the executed states (one per command) and the plan result. sim is
    updated in place.
    """
    cloud = estimated_scan(sim.state, world, sensor, sim.rng, t=sim.t, bias=sim.bias)
    predictor = predictor_factory(cloud, sim.state)
    result = plan(sim.state, predictor, goal, cfg, rng=sim.rng, nu0=sim.nu)

    executed: list[RobotState] = []
    s = sim.state
    for k in range(min(exec_horizon, cfg.horizon)):
        s = step(s, result.commands[k, 0], result.commands[k, 1], cfg.dt)
        executed.append(s)
    sim.state = s
    sim.t += len(executed)
    sim.nu = shift_warm_start(result.nu, len(executed))
    return executed, result

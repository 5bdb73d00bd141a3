"""Probabilistic worst-case clearance predictor.

A fixed polar featurizer turns a standardized body-frame cloud into sector-wise
min-range features; a small tanh MLP maps (features, flattened commands) to a
clearance mean, a positive spread, and a positive kernel width for the risk
metric. Gradients are hand-derived in `training`, so the forward pass here
keeps every nonlinearity smooth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ControlSequence, RobotState, rollout
from .world import SensorConfig, World, body_to_world, raycast_scan

LAMBDA_FLOOR = 1e-3  # kernel width lower bound (m)
DEFAULT_LAMBDA = 0.1  # width used when no learned head is available
DEFAULT_SECTORS = 32
DEFAULT_HIDDEN = 64
CHECKPOINT_VERSION = 1


def softplus(x):
    x = np.asarray(x, dtype=float)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True, eq=False)
class ObservationVector:
    """Sector min-range features in [0, 1] plus the current commanded velocities."""

    sector_ranges: np.ndarray  # (S,)
    v0: float
    omega0: float

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.sector_ranges, [self.v0, self.omega0]])

    def __len__(self) -> int:
        return self.sector_ranges.shape[0] + 2


@dataclass(frozen=True)
class PolarFeaturizer:
    """Deterministic cloud featurizer: min normalized range per angular sector."""

    fov: float
    max_range: float
    n_sectors: int = DEFAULT_SECTORS

    def featurize(self, cloud: np.ndarray, state: RobotState) -> ObservationVector:
        cloud = np.asarray(cloud, dtype=float).reshape(-1, 2)
        feats = np.ones(self.n_sectors)
        if cloud.shape[0]:
            bearing = np.arctan2(cloud[:, 1], cloud[:, 0])
            rng_norm = np.clip(np.hypot(cloud[:, 0], cloud[:, 1]) / self.max_range, 0.0, 1.0)
            idx = np.floor((bearing + self.fov / 2.0) / self.fov * self.n_sectors).astype(int)
            idx = np.clip(idx, 0, self.n_sectors - 1)
            np.minimum.at(feats, idx, rng_norm)
        return ObservationVector(feats, float(state.v), float(state.omega))


def featurize(
    cloud: np.ndarray,
    state: RobotState,
    sensor: SensorConfig,
    n_sectors: int = DEFAULT_SECTORS,
) -> ObservationVector:
    return PolarFeaturizer(sensor.fov, sensor.max_range, n_sectors).featurize(cloud, state)


@dataclass(frozen=True)
class ClearancePrediction:
    """Predicted clearance distribution (mean mu, std sigma) plus kernel width lam."""

    mu: float
    sigma: float
    lam: float


@dataclass(eq=False)
class ModelParams:
    """Weights of the prediction network: 2 tanh hidden layers, 3 linear heads.

    Head rows of w3/b3: 0 = clearance mean, 1 = pre-softplus spread,
    2 = pre-softplus kernel width (floored additively at LAMBDA_FLOOR).
    """

    w1: np.ndarray  # (hidden, n_inputs)
    b1: np.ndarray
    w2: np.ndarray  # (hidden, hidden)
    b2: np.ndarray
    w3: np.ndarray  # (3, hidden)
    b3: np.ndarray
    n_features: int
    horizon: int

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        n_features: int,
        horizon: int,
        hidden: int = DEFAULT_HIDDEN,
    ) -> "ModelParams":
        n_in = n_features + 2 * horizon
        return cls(
            w1=rng.normal(0.0, 1.0 / math.sqrt(n_in), (hidden, n_in)),
            b1=np.zeros(hidden),
            w2=rng.normal(0.0, 1.0 / math.sqrt(hidden), (hidden, hidden)),
            b2=np.zeros(hidden),
            w3=rng.normal(0.0, 1.0 / math.sqrt(hidden), (3, hidden)),
            b3=np.zeros(3),
            n_features=n_features,
            horizon=horizon,
        )

    @property
    def hidden(self) -> int:
        return self.w1.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def with_vector(self, vec: np.ndarray) -> "ModelParams":
        parts = []
        off = 0
        for a in self.arrays():
            parts.append(vec[off : off + a.size].reshape(a.shape).copy())
            off += a.size
        if off != vec.size:
            raise ValueError("parameter vector length mismatch")
        return ModelParams(*parts, n_features=self.n_features, horizon=self.horizon)

    def copy(self) -> "ModelParams":
        return self.with_vector(self.to_vector())


@dataclass(eq=False)
class RiskHeadParams:
    """Weights of the risk classifier: scalar risk -> tanh hidden -> 2 logits."""

    v1: np.ndarray  # (hidden,)
    c1: np.ndarray
    v2: np.ndarray  # (2, hidden)
    c2: np.ndarray

    @classmethod
    def init(cls, rng: np.random.Generator, hidden: int = 16) -> "RiskHeadParams":
        return cls(
            v1=rng.normal(0.0, 1.0, hidden),
            c1=np.zeros(hidden),
            v2=rng.normal(0.0, 1.0 / math.sqrt(hidden), (2, hidden)),
            c2=np.zeros(2),
        )

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.v1, self.c1, self.v2, self.c2)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self.arrays()])

    def with_vector(self, vec: np.ndarray) -> "RiskHeadParams":
        parts = []
        off = 0
        for a in self.arrays():
            parts.append(vec[off : off + a.size].reshape(a.shape).copy())
            off += a.size
        if off != vec.size:
            raise ValueError("parameter vector length mismatch")
        return RiskHeadParams(*parts)


def forward_batch(params: ModelParams, x: np.ndarray, cache: bool = False):
    """Forward pass on inputs (B, n_features + 2H) -> (mu, sigma, lam), each (B,).

    With cache=True also returns intermediates needed for backprop.
    """
    x = np.asarray(x, dtype=float)
    h1 = np.tanh(x @ params.w1.T + params.b1)
    h2 = np.tanh(h1 @ params.w2.T + params.b2)
    g = h2 @ params.w3.T + params.b3
    mu = g[:, 0]
    sraw = g[:, 1]
    lraw = g[:, 2]
    sigma = softplus(sraw)
    lam = LAMBDA_FLOOR + softplus(lraw)
    if cache:
        return mu, sigma, lam, (x, h1, h2, sraw, lraw)
    return mu, sigma, lam


def predict_batch(
    params: ModelParams, obs_vector: np.ndarray, u_flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predict for a batch of flattened command sequences under one observation."""
    u_flat = np.atleast_2d(u_flat)
    x = np.concatenate(
        [np.broadcast_to(obs_vector, (u_flat.shape[0], obs_vector.shape[0])), u_flat], axis=1
    )
    return forward_batch(params, x)


def predict(params: ModelParams, obs: ObservationVector, u: ControlSequence) -> ClearancePrediction:
    """Single-query prediction; rejects non-finite parameters with diagnostics."""
    if u.horizon != params.horizon:
        raise ValueError(f"horizon mismatch: model {params.horizon}, sequence {u.horizon}")
    mu, sigma, lam = predict_batch(params, obs.vector, u.flat()[None, :])
    out = ClearancePrediction(float(mu[0]), float(sigma[0]), float(lam[0]))
    if not (math.isfinite(out.mu) and math.isfinite(out.sigma) and math.isfinite(out.lam)):
        bad = [
            name
            for name, arr in zip(("w1", "b1", "w2", "b2", "w3", "b3"), params.arrays())
            if not np.isfinite(arr).all()
        ]
        detail = f"non-finite parameter arrays: {bad}" if bad else "non-finite inputs"
        raise ValueError(f"prediction produced non-finite output ({out}); {detail}")
    return out


_SEGMENT = 9  # rollout poses per bounding segment
_BLOCK_PAIRS = 2**18  # (pose, cloud point) pairs per row block
_PRUNE_SLACK = 1e-9  # relative; far above the rounding of the pruning bound


def worst_case_clearance(
    initial: RobotState,
    commands: np.ndarray,
    cloud_world: np.ndarray,
    dt: float,
    cap: float,
) -> np.ndarray:
    """Min distance from each rollout to the cloud; `cap` when the cloud is empty.

    commands: (n, H, 2); cloud_world: (P, 2) in the world frame. This is the
    single labeling function shared by dataset generation and oracle queries.
    Non-finite commands, cloud points or rollout poses raise ValueError.

    Exact bound-and-refine over row blocks of at most _BLOCK_PAIRS
    (pose, point) pairs, so memory does not grow with n:

    1. Bound. Each rollout's H+1 poses are cut into segments of _SEGMENT
       poses (the last pose repeats as padding). A segment has a middle pose
       m and a radius r = max |m - pose| over its poses. U, the least
       |m - p| over the rollout's middles and the cloud points p, is the
       distance of a real pair, so it bounds the answer from above.
    2. Prune. By the triangle inequality every pose of a segment is at least
       |m - p| - r from p, so a (segment, point) pair with
       |m - p| > (r + U)(1 + _PRUNE_SLACK) cannot hold the minimum and is
       dropped. The relative slack covers rounding at any coordinate scale.
    3. Refine. For the surviving pairs the squared distance of every pose is
       computed with the per-pair arithmetic of a dense evaluation of all
       (n, H+1, P) pairs: the difference, then an einsum over the coordinate
       axis. The per-rollout minimum is taken before the square root.

    The pair attaining the dense minimum always survives and its squared
    distance is computed identically, so the result equals the dense
    evaluation bit for bit.
    """
    from .dynamics import rollout_batch  # local import keeps module load light

    commands = np.asarray(commands, dtype=float)
    if commands.ndim != 3 or commands.shape[2] != 2:
        raise ValueError(f"commands must have shape (n, H, 2), got {commands.shape}")
    if not np.isfinite(commands).all():
        raise ValueError("commands contain non-finite values")
    cloud_world = np.asarray(cloud_world, dtype=float).reshape(-1, 2)
    if not np.isfinite(cloud_world).all():
        raise ValueError("cloud_world contains non-finite points")
    n = commands.shape[0]
    n_points = cloud_world.shape[0]
    if n_points == 0:
        return np.full(n, cap)
    xy = rollout_batch(initial, commands, dt)[:, :, :2]
    if not np.isfinite(xy).all():
        raise ValueError("rollout poses are non-finite; check the initial state")

    px, py = cloud_world.T
    n_seg = -(-xy.shape[1] // _SEGMENT)
    pad = n_seg * _SEGMENT - xy.shape[1]
    rows = max(1, _BLOCK_PAIRS // (n_seg * _SEGMENT * n_points))
    out = np.empty(n)
    for lo in range(0, n, rows):
        block = xy[lo : lo + rows]
        nb = block.shape[0]
        if pad:
            block = np.concatenate([block, np.repeat(block[:, -1:], pad, axis=1)], axis=1)
        seg = block.reshape(nb * n_seg, _SEGMENT, 2)
        mid = seg[:, _SEGMENT // 2]
        radius = np.sqrt(((seg - mid[:, None]) ** 2).sum(axis=2).max(axis=1))
        dx = mid[:, :1] - px
        dy = mid[:, 1:] - py
        d2_mid = dx * dx + dy * dy  # (nb * n_seg, P)
        upper = np.sqrt(d2_mid.reshape(nb, -1).min(axis=1))
        reach = (radius.reshape(nb, n_seg) + upper[:, None]) * (1.0 + _PRUNE_SLACK)
        keep = d2_mid <= (reach * reach).reshape(-1, 1)
        s, p = np.divmod(np.flatnonzero(keep), n_points)
        diff = seg[s]
        diff[:, :, 0] -= px[p, None]
        diff[:, :, 1] -= py[p, None]
        d2 = np.einsum("kjc,kjc->kj", diff, diff)
        # survivors come in row order, and every row keeps the pair behind U
        kept = keep.reshape(nb, -1).sum(axis=1)
        starts = np.concatenate([[0], np.cumsum(kept[:-1])]) * _SEGMENT
        out[lo : lo + nb] = np.minimum.reduceat(d2.ravel(), starts)
    return np.sqrt(out)


def oracle_predict(
    world: World,
    state: RobotState,
    u: ControlSequence,
    sigma_fixed: float,
    sensor: SensorConfig | None = None,
    lam: float = DEFAULT_LAMBDA,
) -> ClearancePrediction:
    """Ground-truth stand-in: exact worst-case clearance against the true scan.

    Scans the world noise-free from `state`, then evaluates the same labeling
    function the dataset generator uses. sigma_fixed and lam pass through.
    """
    sensor = sensor or SensorConfig()
    cloud_world = body_to_world(raycast_scan(state, world, sensor), state)
    mu = worst_case_clearance(state, u.commands[None, :, :], cloud_world, u.dt, sensor.max_range)
    return ClearancePrediction(float(mu[0]), float(sigma_fixed), float(lam))


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(
    path,
    params: ModelParams,
    risk_head: RiskHeadParams | None,
    meta: dict | None = None,
) -> None:
    """Write a versioned npz checkpoint with architecture metadata embedded."""
    payload = {
        "version": np.array(CHECKPOINT_VERSION),
        "n_features": np.array(params.n_features),
        "horizon": np.array(params.horizon),
        "hidden": np.array(params.hidden),
    }
    for name, arr in zip(("w1", "b1", "w2", "b2", "w3", "b3"), params.arrays()):
        payload[name] = arr
    if risk_head is not None:
        for name, arr in zip(("rh_v1", "rh_c1", "rh_v2", "rh_c2"), risk_head.arrays()):
            payload[name] = arr
    if meta:
        import json

        payload["meta_json"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **payload)


def load_checkpoint(path) -> tuple[ModelParams, RiskHeadParams | None, dict]:
    """Load (params, risk_head, meta) from an npz checkpoint; validates the version."""
    with np.load(path) as z:
        version = int(z["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        params = ModelParams(
            w1=z["w1"], b1=z["b1"], w2=z["w2"], b2=z["b2"], w3=z["w3"], b3=z["b3"],
            n_features=int(z["n_features"]),
            horizon=int(z["horizon"]),
        )
        risk_head = None
        if "rh_v1" in z:
            risk_head = RiskHeadParams(v1=z["rh_v1"], c1=z["rh_c1"], v2=z["rh_v2"], c2=z["rh_c2"])
        meta = {}
        if "meta_json" in z:
            import json

            meta = json.loads(z["meta_json"].tobytes().decode())
    return params, risk_head, meta

"""Probabilistic worst-case clearance predictor.

A fixed polar featurizer turns a standardized body-frame cloud into sector-wise
min-range features; a small tanh MLP maps (features, flattened commands) to a
clearance mean, a positive spread, and a positive kernel width for the risk
metric. Gradients are hand-derived in `training`, so the forward pass here
keeps every nonlinearity smooth.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import RobotState

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


@dataclass(frozen=True)
class PolarFeaturizer:
    """Deterministic cloud featurizer: min normalized range per angular sector."""

    fov: float
    max_range: float
    n_sectors: int = DEFAULT_SECTORS

    def featurize(self, cloud: np.ndarray, state: RobotState) -> np.ndarray:
        """(S + 2,) observation: sector min-ranges in [0, 1], then the commanded v, omega."""
        cloud = np.asarray(cloud, dtype=float).reshape(-1, 2)
        feats = np.ones(self.n_sectors)
        if cloud.shape[0]:
            bearing = np.arctan2(cloud[:, 1], cloud[:, 0])
            rng_norm = np.clip(np.hypot(cloud[:, 0], cloud[:, 1]) / self.max_range, 0.0, 1.0)
            idx = np.floor((bearing + self.fov / 2.0) / self.fov * self.n_sectors).astype(int)
            idx = np.clip(idx, 0, self.n_sectors - 1)
            np.minimum.at(feats, idx, rng_norm)
        return np.concatenate([feats, [float(state.v), float(state.omega)]])


def _model_shapes(n_features: int, horizon: int, hidden: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of w1, b1, w2, b2, w3, b3."""
    n_in = n_features + 2 * horizon
    return ((hidden, n_in), (hidden,), (hidden, hidden), (hidden,), (3, hidden), (3,))


def _risk_head_shapes(hidden: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of v1, c1, v2, c2."""
    return ((hidden,), (hidden,), (2, hidden), (2,))


class _FlatParams:
    """Parameters held in one flat vector; each named array is a view into it.

    A float64 vector is used as given, not copied: updating `vector` in place
    updates every named array, and writing into a named array writes into
    `vector`.
    """

    names: tuple[str, ...] = ()

    def __init__(self, vector: np.ndarray, shapes: tuple[tuple[int, ...], ...]):
        vector = np.asarray(vector, dtype=float)
        size = sum(math.prod(shape) for shape in shapes)
        if vector.shape != (size,):
            raise ValueError(f"parameter vector has shape {vector.shape}, expected ({size},)")
        self.vector = vector
        off = 0
        for name, shape in zip(self.names, shapes):
            n = math.prod(shape)
            setattr(self, name, vector[off : off + n].reshape(shape))
            off += n


class ModelParams(_FlatParams):
    """Weights of the prediction network: 2 tanh hidden layers, 3 linear heads.

    Head rows of w3/b3: 0 = clearance mean, 1 = pre-softplus spread,
    2 = pre-softplus kernel width (floored additively at LAMBDA_FLOOR).
    """

    names = ("w1", "b1", "w2", "b2", "w3", "b3")

    def __init__(self, vector: np.ndarray, n_features: int, horizon: int, hidden: int):
        self.n_features = n_features
        self.horizon = horizon
        self.hidden = hidden
        super().__init__(vector, _model_shapes(n_features, horizon, hidden))

    def zeros_like(self) -> "ModelParams":
        return ModelParams(np.zeros_like(self.vector), self.n_features, self.horizon, self.hidden)

    @classmethod
    def init(
        cls,
        rng: np.random.Generator,
        n_features: int,
        horizon: int,
        hidden: int = DEFAULT_HIDDEN,
    ) -> "ModelParams":
        n_in = n_features + 2 * horizon
        parts = (
            rng.normal(0.0, 1.0 / math.sqrt(n_in), (hidden, n_in)),
            np.zeros(hidden),
            rng.normal(0.0, 1.0 / math.sqrt(hidden), (hidden, hidden)),
            np.zeros(hidden),
            rng.normal(0.0, 1.0 / math.sqrt(hidden), (3, hidden)),
            np.zeros(3),
        )
        return cls(np.concatenate([p.ravel() for p in parts]), n_features, horizon, hidden)


class RiskHeadParams(_FlatParams):
    """Weights of the risk classifier: scalar risk -> tanh hidden -> 2 logits."""

    names = ("v1", "c1", "v2", "c2")

    def __init__(self, vector: np.ndarray, hidden: int):
        self.hidden = hidden
        super().__init__(vector, _risk_head_shapes(hidden))

    def zeros_like(self) -> "RiskHeadParams":
        return RiskHeadParams(np.zeros_like(self.vector), self.hidden)

    @classmethod
    def init(cls, rng: np.random.Generator, hidden: int = 16) -> "RiskHeadParams":
        parts = (
            rng.normal(0.0, 1.0, hidden),
            np.zeros(hidden),
            rng.normal(0.0, 1.0 / math.sqrt(hidden), (2, hidden)),
            np.zeros(2),
        )
        return cls(np.concatenate([p.ravel() for p in parts]), hidden)


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
    # resolved at call time: a module-level binding here would bypass anything
    # that replaces clearnav.dynamics.rollout_batch (perfbench's span tracer)
    from .dynamics import rollout_batch

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
    for name in params.names:
        payload[name] = getattr(params, name)
    if risk_head is not None:
        for name in risk_head.names:
            payload["rh_" + name] = getattr(risk_head, name)
    if meta:
        payload["meta_json"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **payload)


def _checked_vector(path, z, keys, shapes, source: str) -> np.ndarray:
    """Concatenate the stored arrays after checking each shape and that every value is finite."""
    parts = []
    for key, shape in zip(keys, shapes):
        arr = z[key]
        if arr.shape != shape:
            raise ValueError(f"{path}: array {key} has shape {arr.shape}, but {source} need {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: array {key} contains non-finite values")
        parts.append(arr.ravel())
    return np.concatenate(parts)


def load_checkpoint(path) -> tuple[ModelParams, RiskHeadParams | None, dict]:
    """Load (params, risk_head, meta) from an npz checkpoint.

    Rejects an unknown version, arrays whose shapes disagree with the stored
    n_features / horizon / hidden (or, for the risk head, with the size of
    rh_v1), and non-finite weights, naming the file and the array.
    """
    with np.load(path) as z:
        version = int(z["version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        n_features, horizon, hidden = int(z["n_features"]), int(z["horizon"]), int(z["hidden"])
        source = f"n_features={n_features}, horizon={horizon}, hidden={hidden}"
        vector = _checked_vector(
            path, z, ModelParams.names, _model_shapes(n_features, horizon, hidden), source
        )
        params = ModelParams(vector, n_features, horizon, hidden)
        risk_head = None
        if "rh_v1" in z:
            k = z["rh_v1"].size
            keys = ["rh_" + name for name in RiskHeadParams.names]
            source = f"risk-head hidden={k} (the size of rh_v1)"
            vector = _checked_vector(path, z, keys, _risk_head_shapes(k), source)
            risk_head = RiskHeadParams(vector, k)
        meta = json.loads(z["meta_json"].tobytes().decode()) if "meta_json" in z else {}
    return params, risk_head, meta

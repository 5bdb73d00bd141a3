"""Probabilistic worst-case clearance predictor.

A fixed polar featurizer turns a body-frame scan cloud into sector-wise
min-range features; a small tanh MLP maps (features, flattened commands) to a
clearance mean, a positive spread, and a positive kernel width for the risk
metric. Gradients are hand-derived in `training`, so the forward pass here
keeps every nonlinearity smooth.

`worst_case_clearance` is the exact clearance of rollouts against a cloud,
equal bit for bit to the dense all-pairs evaluation. It answers through the
cell grid of a `ClearanceIndex` of its start state and cloud, whose cells are
filled the first time a query lands in them. A caller that queries one cloud
from one start several times (the geometric planners, once per plan
iteration) builds the index once and passes it to every query; a caller that
queries a cloud once (dataset labelling) passes none, and the call builds
its own.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import RobotState
from .world import _read, read_npz

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


class _FlatParams:
    """Parameters held in one flat vector; each named array is a view into it.

    A float64 vector is used as given, not copied: updating `vector` in place
    updates every named array, and writing into a named array writes into
    `vector`. Pickling keeps the views: the pickle holds `vector` and the
    header, and unpickling rebuilds the named arrays from the new vector.
    """

    axes: dict[str, tuple] = {}  # the named axes of each array, as world.read_npz takes them
    header: tuple[str, ...] = ()  # the attributes that __init__ takes after `vector`, in order

    def __init__(self, vector: np.ndarray, **lengths: int):
        """`lengths` gives the length of every named axis."""
        vector = np.asarray(vector, dtype=float)
        shapes = [tuple(lengths.get(axis, axis) for axis in axes) for axes in self.axes.values()]
        size = sum(math.prod(shape) for shape in shapes)
        if vector.shape != (size,):
            raise ValueError(f"parameter vector has shape {vector.shape}, expected ({size},)")
        self.vector = vector
        off = 0
        for name, shape in zip(self.axes, shapes):
            n = math.prod(shape)
            setattr(self, name, vector[off : off + n].reshape(shape))
            off += n

    def __reduce__(self):
        return type(self), (self.vector, *(getattr(self, k) for k in self.header))

    def zeros_like(self):
        """Parameters of the same header with every weight 0."""
        return type(self)(np.zeros_like(self.vector), *(getattr(self, k) for k in self.header))


class ModelParams(_FlatParams):
    """Weights of the prediction network: 2 tanh hidden layers, 3 linear heads.

    Head rows of w3/b3: 0 = clearance mean, 1 = pre-softplus spread,
    2 = pre-softplus kernel width (floored additively at LAMBDA_FLOOR).
    """

    # "inputs" is n_features + 2 * horizon
    axes = {"w1": ("hidden", "inputs"), "b1": ("hidden",), "w2": ("hidden", "hidden"),
            "b2": ("hidden",), "w3": (3, "hidden"), "b3": (3,)}
    names = tuple(axes)
    header = ("n_features", "horizon", "hidden")

    def __init__(self, vector: np.ndarray, n_features: int, horizon: int, hidden: int):
        self.n_features = n_features
        self.horizon = horizon
        self.hidden = hidden
        super().__init__(vector, hidden=hidden, inputs=n_features + 2 * horizon)

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

    axes = {"v1": ("risk_hidden",), "c1": ("risk_hidden",), "v2": (2, "risk_hidden"), "c2": (2,)}
    names = tuple(axes)
    header = ("hidden",)

    def __init__(self, vector: np.ndarray, hidden: int):
        self.hidden = hidden
        super().__init__(vector, risk_hidden=hidden)

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


_PRUNE_SLACK = 1e-9  # relative; far above the rounding of the pruning bound
# Index cell side (m). Measured on 120 captured label queries (50 rollouts x
# 51 poses, one query per cloud) and 48 captured plan-geometric plan calls
# (build plus 10 queries of 192 rollouts x 51 poses, <= 120 points), as CPU
# time against 0.05 m within each of 21-31 interleaved reps (2-vCPU Xeon VM,
# BLAS on one thread): 0.0625 m labels -10%, plans +2%; 0.075 m labels -20%,
# plans +7%; 0.1 m labels -10%, plans +9%; 0.04 m labels +14%, plans -3%;
# 0.03 m labels +42%, plans -7%. No other size is faster on both.
_CELL = 0.05
# The grid's reach from the start (m); poses past it are compared with every
# point. It also bounds the grid when d0 is large, as for a cloud 1e3 m away.
# Measured as above: 3 and 5 m within 5% on both, 6.4 m labels +7%, 2 m plans
# +11%.
_GRID_REACH = 4.0
# Each cell's bounds hold for the cell grown by this share of its side: the
# cell that floor() assigns a pose to can miss it by a rounding error.
_CELL_WIDEN = 1e-9
# (cell or pose, point) pairs per block of a query's cell fill and of its
# refine. Measured as above: 2**14 -4% to -5% on both (faster in 14-15 of 21
# reps), 2**13, 2**16 and 2**17 within 2%, 2**18 plans +13%.
_INDEX_BLOCK_PAIRS = 2**15


class ClearanceIndex:
    """Cell grid over one cloud, for worst_case_clearance queries from one start.

    Every rollout begins at the start, so d0, the start's distance to its
    nearest cloud point, bounds every query's answer from above. The grid
    covers every place within d0 of the cloud, cut to _GRID_REACH around the
    start, in square cells of side _CELL. A cell holds a lower bound on the
    squared distance from any place in it to the cloud, and the coordinates
    of its nearest point. Cells are filled the first time a query's pose
    lands in them, so a query pays only for the cells its rollouts visit and
    a later query reuses them. Two more cells take the poses outside the
    grid: one for places farther than d0 from every point, which never hold
    a row's minimum, and one for the rest (past a cut grid), whose bound is 0.

    One index serves every query from one start against one cloud: a plan
    call builds one and queries it once per iteration. It refuses queries
    from another start position or for another cloud, because d0 is then no
    bound.
    """

    def __init__(self, initial: RobotState, cloud_world: np.ndarray):
        cloud = np.array(cloud_world, dtype=float).reshape(-1, 2)
        if not np.isfinite(cloud).all():
            raise ValueError("cloud_world contains non-finite points")
        start = np.array([initial.x, initial.y], dtype=float)
        if not np.isfinite(start).all():
            raise ValueError("the initial state is non-finite")
        cloud.flags.writeable = False
        self.initial = initial
        self.cloud = cloud
        if cloud.shape[0] == 0:
            return
        self.px, self.py = cloud.T.copy()
        diff = start - cloud
        self.d0_sq = np.einsum("pc,pc->p", diff, diff).min()
        limit = self.d0_sq * (1.0 + _PRUNE_SLACK)
        widen = _CELL * _CELL_WIDEN
        # a place outside [near_lo, near_hi] is farther than d0 from every point
        reach = math.sqrt(limit) + widen
        self.near_lo = cloud.min(axis=0) - reach
        self.near_hi = cloud.max(axis=0) + reach
        self.origin = np.maximum(self.near_lo, start - _GRID_REACH)
        top = np.minimum(self.near_hi, start + _GRID_REACH)
        self.shape = np.maximum(np.ceil((top - self.origin) / _CELL), 1).astype(np.intp)
        nx, ny = self.shape

        def gaps(origin, n, p):
            """(n, P) squared gaps along one axis between each widened cell and each point."""
            lo = (origin + np.arange(n) * _CELL - widen)[:, None]
            hi = (origin + np.arange(1, n + 1) * _CELL + widen)[:, None]
            gap = np.maximum(np.maximum(lo - p, p - hi), 0.0)
            return gap * gap

        self.gx = gaps(self.origin[0], nx, self.px)
        self.gy = gaps(self.origin[1], ny, self.py)
        # past the grid: a cell for places farther than d0 from every point, and
        # one for the rest, whose poses are always refined; any point serves
        # either as a real pair, so as an upper bound
        self.far, self.beyond = nx * ny, nx * ny + 1
        self.bound = np.empty(nx * ny + 2)
        self.qx = np.empty(nx * ny + 2)
        self.qy = np.empty(nx * ny + 2)
        self.filled = np.zeros(nx * ny + 2, dtype=bool)
        self.bound[-2:] = np.inf, 0.0
        self.qx[-2:], self.qy[-2:] = self.px[0], self.py[0]
        self.filled[-2:] = True

    def check(self, initial: RobotState, cloud_world: np.ndarray) -> None:
        """Raise ValueError unless the query comes from the start position and is for
        the cloud this index was built from."""
        if (initial.x, initial.y) != (self.initial.x, self.initial.y):
            raise ValueError(f"index built for initial state {self.initial}, "
                             f"queried with {initial}")
        if cloud_world.shape != self.cloud.shape or not np.array_equal(cloud_world, self.cloud):
            raise ValueError("cloud_world is not the cloud the index was built from")

    def _fill(self, cell: np.ndarray) -> None:
        """Fill the cells among `cell` that no earlier query filled: each one's least
        squared distance to the cloud, and its nearest point, in blocks of at most
        _INDEX_BLOCK_PAIRS (cell, point) pairs."""
        visit = np.zeros_like(self.filled)
        visit[cell[~self.filled[cell]]] = True
        new = np.flatnonzero(visit)
        ny = self.shape[1]
        rows = max(1, _INDEX_BLOCK_PAIRS // self.px.shape[0])
        for lo in range(0, new.shape[0], rows):
            block = new[lo : lo + rows]
            d2 = self.gx[block // ny] + self.gy[block % ny]  # (cells, P)
            nearest = d2.argmin(axis=1)
            self.bound[block] = d2[np.arange(block.shape[0]), nearest]
            self.qx[block], self.qy[block] = self.px[nearest], self.py[nearest]
        self.filled[new] = True

    def min_sq(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Least squared distance from each row's poses, x and y each (n, K), to the cloud.

        The cells the poses land in are filled first. A row's bound is the
        least squared distance of its poses to their cells' nearest points, or
        d0^2: each is a real pair. Poses whose cell bound exceeds the row's
        bound are dropped, and the rest are compared with every cloud point,
        in blocks of at most _INDEX_BLOCK_PAIRS pairs. The pose behind the
        row's answer is never dropped, so each row keeps at least one.
        """
        (x0, y0), (nx, ny) = self.origin, self.shape
        gx = np.floor((x - x0) / _CELL)
        gy = np.floor((y - y0) / _CELL)
        inside = (gx >= 0) & (gx < nx) & (gy >= 0) & (gy < ny)
        (lo_x, lo_y), (hi_x, hi_y) = self.near_lo, self.near_hi
        near = (x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)
        cell = np.where(inside, gx * ny + gy, np.where(near, self.beyond, self.far)).astype(np.intp)
        self._fill(cell)
        dx = x - self.qx[cell]
        dy = y - self.qy[cell]
        upper = np.minimum((dx * dx + dy * dy).min(axis=1), self.d0_sq)
        keep = self.bound[cell] <= (upper * (1.0 + _PRUNE_SLACK))[:, None]
        r, k = np.nonzero(keep)
        kx, ky = x[r, k], y[r, k]
        d2 = np.empty(r.shape[0])
        # points run down axis 0, so every operation and the minimum run along poses
        px, py = self.px[:, None], self.py[:, None]
        cols = max(1, _INDEX_BLOCK_PAIRS // px.shape[0])
        for lo in range(0, r.shape[0], cols):
            # the per-pair arithmetic of the dense evaluation, dx*dx + dy*dy, in place
            dx = kx[lo : lo + cols] - px
            dy = ky[lo : lo + cols] - py
            dx *= dx
            dy *= dy
            dx += dy
            d2[lo : lo + cols] = dx.min(axis=0)
        out = np.full(x.shape[0], np.inf)
        np.minimum.at(out, r, d2)
        return out


def worst_case_clearance(
    initial: RobotState,
    commands: np.ndarray,
    cloud_world: np.ndarray,
    dt: float,
    cap: float,
    index: ClearanceIndex | None = None,
) -> np.ndarray:
    """Min distance from each rollout to the cloud; `cap` when the cloud is empty.

    commands: (n, H, 2); cloud_world: (P, 2) in the world frame. This is the
    single labeling function shared by dataset generation and oracle queries.
    Non-finite commands, cloud points, start or rollout poses raise ValueError.

    The rollouts are queried through `index`, a ClearanceIndex of this initial
    state and cloud (an index of another state or cloud raises ValueError);
    without one, an index is built for this call. The pose and point behind
    the dense all-pairs minimum always survive the pruning, and their squared
    distance is computed with the dense evaluation's per-pair arithmetic, so
    the result equals the dense evaluation bit for bit.
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
    if index is None:
        index = ClearanceIndex(initial, cloud_world)
    else:
        index.check(initial, cloud_world)
    if cloud_world.shape[0] == 0:
        return np.full(commands.shape[0], cap)
    xy = rollout_batch(initial, commands, dt)[:, :, :2]
    if not np.isfinite(xy).all():
        raise ValueError("rollout poses are non-finite; check the initial state")
    x, y = np.ascontiguousarray(xy[:, :, 0]), np.ascontiguousarray(xy[:, :, 1])
    return np.sqrt(index.min_sq(x, y))


# ---------------------------------------------------------------------------
# Checkpoints

def save_checkpoint(
    path,
    params: ModelParams,
    risk_head: RiskHeadParams | None,
    meta: dict | None = None,
) -> None:
    """Write a versioned npz checkpoint with architecture metadata embedded."""
    payload = {"version": np.array(CHECKPOINT_VERSION), "n_features": np.array(params.n_features),
               "horizon": np.array(params.horizon), "hidden": np.array(params.hidden),
               **{name: getattr(params, name) for name in params.names}}
    if risk_head is not None:
        payload.update({"rh_" + name: getattr(risk_head, name) for name in risk_head.names})
    if meta:
        payload["meta_json"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **payload)


# the arrays of a checkpoint, by their named axes; the risk head and the meta are optional
_CHECKPOINT_AXES = {"n_features": (), "horizon": (), "hidden": (), **ModelParams.axes,
                    **{"rh_" + name: axes for name, axes in RiskHeadParams.axes.items()},
                    "meta_json": ("meta_bytes",)}


def load_checkpoint(path) -> tuple[ModelParams, RiskHeadParams | None, dict]:
    """Load (params, risk_head, meta) from an npz checkpoint, read by world.read_npz; a non-integer
    header (n_features, horizon, hidden) or one that disagrees with w1's shape, a risk head of some
    of its four arrays, or a meta_json not a JSON object raises ValueError naming the file and array."""
    risk_keys = ["rh_" + name for name in RiskHeadParams.names]
    z = read_npz(path, "checkpoint", CHECKPOINT_VERSION, _CHECKPOINT_AXES, [*risk_keys, "meta_json"])
    for key in ("n_features", "horizon", "hidden"):
        if z[key].dtype.kind not in "iu":
            raise ValueError(f"{path}: array {key} must hold an integer, got {z[key]}")
    n_features, horizon, hidden = (int(z[k]) for k in ("n_features", "horizon", "hidden"))
    need = (hidden, n_features + 2 * horizon)
    if z["w1"].shape != need:  # w1 sets the hidden width of every other array
        raise ValueError(f"{path}: array w1 has shape {z['w1'].shape}, but n_features={n_features}, "
                         f"horizon={horizon}, hidden={hidden} need {need}")
    has_head = [k in z for k in risk_keys]
    if any(has_head) and not all(has_head):  # the risk head is all four arrays or none
        raise ValueError(f"{path}: arrays: missing key {risk_keys[has_head.index(False)]!r}")
    params = ModelParams(np.concatenate([z[k].ravel() for k in ModelParams.names]),
                         n_features, horizon, hidden)
    risk_head = (RiskHeadParams(np.concatenate([z[k].ravel() for k in risk_keys]), z["rh_v1"].size)
                 if all(has_head) else None)
    try:
        meta = json.loads(z["meta_json"].tobytes().decode()) if "meta_json" in z else {}
    except ValueError:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: array meta_json does not hold JSON") from None
    return params, risk_head, _read(meta, dict, f"{path}: meta_json")

"""Probabilistic worst-case clearance predictor.

A fixed polar featurizer turns a body-frame scan cloud into sector-wise
min-range features; a small tanh MLP maps (features, flattened commands) to a
clearance mean, a positive spread, and a positive kernel width for the risk
metric. Gradients are hand-derived in `training`, so the forward pass here
keeps every nonlinearity smooth.

`worst_case_clearance` is the exact clearance of rollouts against a cloud,
equal bit for bit to the dense all-pairs evaluation. Given a
`ClearanceIndex` of its start state and cloud, it answers through the index's
cell grid, with the same result. A caller that queries one cloud from one
start several times (the geometric planners, once per plan iteration) builds
the index once; a caller that queries a cloud once (dataset labelling) does
not, since the build costs about as much as one unindexed query.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import RobotState
from .world import read_npz

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
    `vector`.
    """

    axes: dict[str, tuple] = {}  # the named axes of each array, as world.read_npz takes them

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


class ModelParams(_FlatParams):
    """Weights of the prediction network: 2 tanh hidden layers, 3 linear heads.

    Head rows of w3/b3: 0 = clearance mean, 1 = pre-softplus spread,
    2 = pre-softplus kernel width (floored additively at LAMBDA_FLOOR).
    """

    # "inputs" is n_features + 2 * horizon
    axes = {"w1": ("hidden", "inputs"), "b1": ("hidden",), "w2": ("hidden", "hidden"),
            "b2": ("hidden",), "w3": (3, "hidden"), "b3": (3,)}
    names = tuple(axes)

    def __init__(self, vector: np.ndarray, n_features: int, horizon: int, hidden: int):
        self.n_features = n_features
        self.horizon = horizon
        self.hidden = hidden
        super().__init__(vector, hidden=hidden, inputs=n_features + 2 * horizon)

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

    axes = {"v1": ("risk_hidden",), "c1": ("risk_hidden",), "v2": (2, "risk_hidden"), "c2": (2,)}
    names = tuple(axes)

    def __init__(self, vector: np.ndarray, hidden: int):
        self.hidden = hidden
        super().__init__(vector, risk_hidden=hidden)

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
# Index cell side (m). Measured as build plus 10 queries on 96 captured
# plan-geometric plan calls (192 rollouts x 51 poses, <= 120 points; 37.3 ms
# unindexed): 0.05 and 0.0625 m fastest at 18.6 ms; 0.04, 0.075 and 0.1 m
# within 4%; 0.03 m +13%, where the build costs more than it saves; 0.15 m
# +21%, where each cell keeps more candidates.
_CELL = 0.05
# The grid's reach from the start (m); poses past it are compared with every
# point. Measured as above: 4 m fastest; 3 m +5% (more poses past the grid),
# 5 m +8% and 6.4 m +11% (cells few rollouts visit), 2 m +55%.
_GRID_REACH = 4.0
# Each cell's bounds hold for the cell grown by this share of its side: the
# cell that floor() assigns a pose to can miss it by a rounding error.
_CELL_WIDEN = 1e-9
# (place, candidate) pairs per block of an indexed query; blocks of 2**18
# pairs, past the L2 cache, ran 30% slower
_INDEX_BLOCK_PAIRS = 2**15


class ClearanceIndex:
    """Cell grid over one cloud, for repeated worst_case_clearance queries from one start.

    Every rollout begins at the start, so d0, the start's distance to its
    nearest cloud point, bounds every query's answer from above. The grid
    covers every place within d0 of the cloud, cut to _GRID_REACH around the
    start, in square cells of side _CELL. Each cell holds a lower bound on
    the squared distance from any place in it to the cloud, and its nearest
    point. A cell whose bound is at most d0^2 also holds its candidates, the
    points that can be nearest to a place in it. Two more cells take the
    poses outside the grid: one for places farther than d0 from every point,
    which never hold a row's minimum, and one for the rest (past a cut
    grid), whose candidates are all points.

    Build one when a cloud and start state serve several queries, as in a
    plan call, which queries once per iteration: the build costs about one
    unindexed query, and each query then costs a third to a half of one.
    For a single query, call worst_case_clearance without an index. The
    index refuses queries from another start position or for another cloud,
    because d0 is then no bound.
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
        n_points = cloud.shape[0]
        if n_points == 0:
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
            """(n, P) squared gaps along one axis between each widened cell and each point:
            to the cell's nearest face, and to its farthest face."""
            lo = (origin + np.arange(n) * _CELL - widen)[:, None]
            hi = (origin + np.arange(1, n + 1) * _CELL + widen)[:, None]
            near = np.maximum(np.maximum(lo - p, p - hi), 0.0)
            far = np.maximum(p - lo, hi - p)
            return near * near, far * far

        gx, fx = gaps(self.origin[0], nx, self.px)
        gy, fy = gaps(self.origin[1], ny, self.py)
        point_type = np.min_scalar_type(n_points - 1)  # candidates are stored as point numbers
        bounds, nearests, counts, cands = [], [], [], []
        cols = max(1, _INDEX_BLOCK_PAIRS // (ny * n_points))
        for i in range(0, nx, cols):
            d2 = (gx[i : i + cols, None] + gy[None]).reshape(-1, n_points)  # (cells, P)
            cell = np.arange(d2.shape[0])
            nearest = d2.argmin(axis=1)
            bounds.append(d2[cell, nearest])
            nearests.append(nearest)
            # every place in a cell lies within sqrt(upper) of the cell's nearest point
            upper = fx[i + cell // ny, nearest] + fy[cell % ny, nearest]
            keep = d2 <= (np.minimum(upper, self.d0_sq) * (1.0 + _PRUNE_SLACK))[:, None]
            counts.append(np.count_nonzero(keep, axis=1))
            cands.append((np.flatnonzero(keep) % n_points).astype(point_type))
        # past the grid: a cell for places farther than d0 from every point, and
        # one for the rest, whose candidates are all points; any point serves
        # either as a real pair, so as an upper bound
        self.far, self.beyond = nx * ny, nx * ny + 1
        bounds.append([np.inf, 0.0])
        nearests.append([0, 0])
        counts.append([0, n_points])
        cands.append(np.arange(n_points, dtype=point_type))
        self.bound = np.concatenate(bounds)
        nearest = np.concatenate(nearests)
        self.qx, self.qy = self.px[nearest], self.py[nearest]
        self.count = np.concatenate(counts)
        self.first = np.concatenate([[0], np.cumsum(self.count[:-1])])  # of each cell's candidates
        self.cand = np.concatenate(cands)

    def check(self, initial: RobotState, cloud_world: np.ndarray) -> None:
        """Raise ValueError unless the query comes from the start position and is for
        the cloud this index was built from."""
        if (initial.x, initial.y) != (self.initial.x, self.initial.y):
            raise ValueError(f"index built for initial state {self.initial}, "
                             f"queried with {initial}")
        if cloud_world.shape != self.cloud.shape or not np.array_equal(cloud_world, self.cloud):
            raise ValueError("cloud_world is not the cloud the index was built from")

    def min_sq(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Least squared distance from each row's poses, x and y each (n, K), to the cloud.

        A row's bound is the least squared distance of its poses to their
        cells' nearest points, or d0^2: each is a real pair. Poses whose cell
        bound exceeds the row's bound are dropped, and the rest are refined
        against their cell's candidates. The pose behind the row's answer is
        never dropped, so each row keeps at least one.
        """
        (x0, y0), (nx, ny) = self.origin, self.shape
        gx = np.floor((x - x0) / _CELL)
        gy = np.floor((y - y0) / _CELL)
        inside = (gx >= 0) & (gx < nx) & (gy >= 0) & (gy < ny)
        (lo_x, lo_y), (hi_x, hi_y) = self.near_lo, self.near_hi
        near = (x >= lo_x) & (x <= hi_x) & (y >= lo_y) & (y <= hi_y)
        cell = np.where(inside, gx * ny + gy, np.where(near, self.beyond, self.far)).astype(np.intp)
        dx = x - self.qx[cell]
        dy = y - self.qy[cell]
        upper = np.minimum((dx * dx + dy * dy).min(axis=1), self.d0_sq)
        keep = self.bound[cell] <= (upper * (1.0 + _PRUNE_SLACK))[:, None]
        r, k = np.nonzero(keep)
        out = np.full(x.shape[0], np.inf)
        np.minimum.at(out, r, self._nearest_sq(x[r, k], y[r, k], cell[r, k]))
        return out

    def _nearest_sq(self, x: np.ndarray, y: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Least squared distance from each place (x, y) to its cell's candidates,
        in blocks of at most _INDEX_BLOCK_PAIRS pairs; every cell given has a candidate."""
        out = np.empty(x.shape[0])
        if not x.shape[0]:
            return out
        first = self.first[cells]
        last = first + self.count[cells] - 1
        width = int((last - first).max()) + 1
        # slots run down axis 0, so every operation and the minimum run along places;
        # a cell with fewer candidates repeats its last one, which leaves the minimum alone
        slots = np.arange(width)[:, None]
        cols = max(1, _INDEX_BLOCK_PAIRS // width)
        for lo in range(0, x.shape[0], cols):
            hi = lo + cols
            p = self.cand[np.minimum(first[lo:hi] + slots, last[lo:hi])]
            # the per-pair arithmetic of the dense evaluation
            dx = x[lo:hi] - self.px[p]
            dy = y[lo:hi] - self.py[p]
            out[lo:hi] = (dx * dx + dy * dy).min(axis=0)
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
    Non-finite commands, cloud points or rollout poses raise ValueError.

    With an `index` (a ClearanceIndex of this initial state and cloud), the
    rollouts are queried through its grid; an index of another state or cloud
    raises ValueError. Without one, an exact bound-and-refine runs over row
    blocks of at most _BLOCK_PAIRS (pose, point) pairs, so memory does not
    grow with n:

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

    The pair attaining the dense minimum always survives either path and its
    squared distance is computed identically, so the result equals the dense
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
    if index is not None:
        index.check(initial, cloud_world)
    elif not np.isfinite(cloud_world).all():
        raise ValueError("cloud_world contains non-finite points")
    n = commands.shape[0]
    n_points = cloud_world.shape[0]
    if n_points == 0:
        return np.full(n, cap)
    xy = rollout_batch(initial, commands, dt)[:, :, :2]
    if not np.isfinite(xy).all():
        raise ValueError("rollout poses are non-finite; check the initial state")
    if index is not None:
        x, y = np.ascontiguousarray(xy[:, :, 0]), np.ascontiguousarray(xy[:, :, 1])
        return np.sqrt(index.min_sq(x, y))

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
        meta = None
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: array meta_json does not hold a JSON object")
    return params, risk_head, meta

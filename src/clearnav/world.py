"""Synthetic 2D worlds: geometry oracles, simulated range scanner, sensor noise.

Worlds are axis-aligned rectangles populated with circular and box obstacles.
Scans are expressed in the robot body frame (x forward, y left), matching the
egocentric inputs the rest of the stack consumes.

scan_ranges memoises one entry: the last (state, world, sensor) it cast and
the ranges it found. Its key is immutable: the frozen RobotState and
SensorConfig by value, the frozen World by identity (the cache holds a
reference, so the id cannot be reused). The arrays it returns are read-only
and shared by every caller of that pose, so the noisy scan and the noise-free
reference of one pose cost one ray cast.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
import zipfile
import zlib
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .dynamics import RobotState

_BIAS_KNOTS = 12  # knots of the bias field around the full circle of bearings


def _check_finite(obj) -> None:
    for f in fields(obj):
        if not math.isfinite(getattr(obj, f.name)):
            raise ValueError(f"{type(obj).__name__}.{f.name} must be finite")


def _check_counts(obj, *names) -> None:
    """Refuse a field of obj among `names` that is not an integer (a bool or 2.0 included) or is < 1."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{type(obj).__name__}.{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{type(obj).__name__}.{name} must be >= 1, got {value!r}")


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        _check_finite(self)
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")

    def boundary_distance(self, p: np.ndarray) -> float:
        """Distance from p to the boundary; 0 if p is inside."""
        return max(0.0, math.hypot(p[0] - self.cx, p[1] - self.cy) - self.radius)


@dataclass(frozen=True)
class Box:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        _check_finite(self)
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("box min corner must be strictly below max corner")

    def boundary_distance(self, p: np.ndarray) -> float:
        dx = max(self.xmin - p[0], 0.0, p[0] - self.xmax)
        dy = max(self.ymin - p[1], 0.0, p[1] - self.ymax)
        return math.hypot(dx, dy)


Obstacle = Circle | Box


def _slab_interval(origin, dirs, lo, hi):
    """Entry/exit parameters of rays against axis-aligned rectangles.

    lo, hi: (K, 2) min and max corners; returns the (K, R) entry and exit
    parameters of the R unit rays dirs (R, 2) from origin.
    """
    near, far = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in (0, 1):
            inv = 1.0 / dirs[:, axis]
            t_lo = (lo[:, axis] - origin[axis])[:, None] * inv
            t_hi = (hi[:, axis] - origin[axis])[:, None] * inv
            # rays parallel to a slab: +-inf from the division sorts correctly,
            # except 0 * inf -> nan when the origin lies exactly on a slab plane
            np.copyto(t_lo, -np.inf, where=np.isnan(t_lo))
            np.copyto(t_hi, np.inf, where=np.isnan(t_hi))
            near.append(np.minimum(t_lo, t_hi))
            far.append(np.maximum(t_lo, t_hi))
    return np.maximum(*near), np.minimum(*far)


def _circle_hits(origin, dirs, circles):
    """(C, R) first-intersection distances of the unit rays dirs (R, 2) from origin
    with each circle; inf where a ray misses, 0 where it starts inside."""
    oc = [origin - np.array([c.cx, c.cy]) for c in circles]
    b = np.stack([dirs @ v for v in oc])  # one matvec per circle: a batched matmul rounds differently
    c0 = np.array([v @ v - c.radius**2 for v, c in zip(oc, circles)])[:, None]
    disc = b * b - c0
    ok = disc >= 0.0
    root = np.sqrt(np.maximum(disc, 0.0))
    t1 = -b - root
    t2 = -b + root
    t = np.where(ok & (t1 >= 0.0), t1, np.inf)
    return np.where(ok & (t1 < 0.0) & (t2 >= 0.0), 0.0, t)


@dataclass(frozen=True)
class NoiseModel:
    """Range-sensor corruption emulating systematic depth-estimation error.

    range_bias_scale: amplitude of a smooth multiplicative bias over bearing,
    resampled (and interpolated) every drift_timescale steps, so the offset is
    placement- and time-dependent rather than white.
    """

    range_bias_scale: float = 0.0
    additive_sigma: float = 0.0
    drift_timescale: int = 30
    dropout_prob: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if self.additive_sigma < 0:
            raise ValueError("additive_sigma must be >= 0")
        if not 0.0 <= self.dropout_prob <= 1.0:
            raise ValueError("dropout_prob must be in [0, 1]")
        if self.drift_timescale < 1:
            raise ValueError("drift_timescale must be >= 1")


@dataclass(frozen=True)
class SensorConfig:
    fov: float = math.radians(69.0)  # forward camera-like horizontal field of view
    n_rays: int = 120
    max_range: float = 5.0
    noise: NoiseModel = field(default_factory=NoiseModel)

    def __post_init__(self):
        if not 0.0 < self.fov <= 2 * math.pi:
            raise ValueError("fov must be in (0, 2*pi]")
        _check_counts(self, "n_rays")
        if not (math.isfinite(self.max_range) and self.max_range > 0):
            raise ValueError("max_range must be positive and finite")


@dataclass(frozen=True, eq=False)
class World:
    obstacles: tuple[Obstacle, ...]
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    start: RobotState
    goal: tuple[float, float]

    def __post_init__(self):
        xmin, ymin, xmax, ymax = self.bounds
        if not (all(map(math.isfinite, self.bounds)) and xmin < xmax and ymin < ymax):
            raise ValueError("bounds must form a finite nonempty rectangle")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "bounds", tuple(self.bounds))
        object.__setattr__(self, "goal", (float(self.goal[0]), float(self.goal[1])))

    def in_bounds(self, p: np.ndarray) -> bool:
        xmin, ymin, xmax, ymax = self.bounds
        return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax

    def validate(self, robot_radius: float) -> None:
        """Check start and goal sit inside bounds and clear of inflated obstacles."""
        for name, p in (("start", self.start.position), ("goal", np.asarray(self.goal))):
            if not self.in_bounds(p):
                raise ValueError(f"{name} lies outside world bounds")
            d = true_clearance(p, self)
            if d < robot_radius:
                raise ValueError(f"{name} is within robot radius of an obstacle (d={d:.3f})")


def true_clearance(point: np.ndarray, world: World) -> float:
    """Minimum distance from point to any obstacle boundary; 0 inside an obstacle."""
    point = np.asarray(point, dtype=float)
    if not world.obstacles:
        return math.inf
    return min(ob.boundary_distance(point) for ob in world.obstacles)


def scan_angles(cfg: SensorConfig) -> np.ndarray:
    """Body-frame ray bearings uniformly spanning the field of view."""
    if cfg.n_rays == 1:
        return np.zeros(1)
    return np.linspace(-cfg.fov / 2.0, cfg.fov / 2.0, cfg.n_rays)


@functools.lru_cache(maxsize=1)
def scan_ranges(state: RobotState, world: World, cfg: SensorConfig) -> tuple[np.ndarray, np.ndarray]:
    """Raw polar scan: (body bearings, ranges), inf where nothing within max_range.

    Bound walls count as hit surfaces (the arena is enclosed). Every box and the
    arena share one slab pass, every circle one quadratic pass. Cached for the
    last pose; both arrays are read-only.
    """
    angles = scan_angles(cfg)
    world_angles = state.psi + angles
    dirs = np.column_stack([np.cos(world_angles), np.sin(world_angles)])
    origin = state.position
    boxes = [ob for ob in world.obstacles if isinstance(ob, Box)]
    xmin, ymin, xmax, ymax = world.bounds
    lo = np.array([(b.xmin, b.ymin) for b in boxes] + [(xmin, ymin)], dtype=float)
    hi = np.array([(b.xmax, b.ymax) for b in boxes] + [(xmax, ymax)], dtype=float)
    t_near, t_far = _slab_interval(origin, dirs, lo, hi)  # last row: the arena
    hit = t_far[:-1] >= np.maximum(t_near[:-1], 0.0)
    entry = np.where(t_near[:-1] >= 0.0, t_near[:-1], 0.0)  # origin inside -> 0
    t = np.where(hit, entry, np.inf).min(axis=0, initial=np.inf)
    circles = [ob for ob in world.obstacles if isinstance(ob, Circle)]
    if circles:
        t = np.minimum(t, _circle_hits(origin, dirs, circles).min(axis=0))
    t = np.minimum(t, np.maximum(t_far[-1], 0.0))
    t = np.where(t <= cfg.max_range, t, np.inf)
    angles.flags.writeable = False
    t.flags.writeable = False
    return angles, t


def _polar_to_points(angles: np.ndarray, ranges: np.ndarray) -> np.ndarray:
    return np.column_stack([ranges * np.cos(angles), ranges * np.sin(angles)])


def raycast_scan(state: RobotState, world: World, cfg: SensorConfig) -> np.ndarray:
    """Noise-free scan as body-frame hit points (m, 2); misses omitted."""
    angles, ranges = scan_ranges(state, world, cfg)
    hit = np.isfinite(ranges)
    return _polar_to_points(angles[hit], ranges[hit])


class BiasField:
    """Smooth multiplicative range-bias over world bearing, drifting in time.

    Knot values for drift epoch e are drawn from a generator seeded with
    (seed, e), so any epoch is reproducible regardless of query order. Between
    epochs the field is blended linearly; across bearing the knots are
    cosine-interpolated on a periodic grid. The knots of the epochs last
    asked for are kept, read-only, so the steps of one epoch draw them once.
    """

    def __init__(self, noise: NoiseModel, seed: int):
        self.noise = noise
        self.seed = int(seed)
        self._kept: dict[int, np.ndarray] = {}

    def _knots(self, epoch: int) -> np.ndarray:
        knots = self._kept.get(epoch)
        if knots is None:
            rng = np.random.default_rng([self.seed, int(epoch)])
            knots = rng.uniform(-1.0, 1.0, _BIAS_KNOTS) * self.noise.range_bias_scale
            knots.flags.writeable = False
            # values() reads epochs e and e + 1, so only the neighbours stay useful
            self._kept = {e: k for e, k in self._kept.items() if abs(e - epoch) == 1}
            self._kept[epoch] = knots
        return knots

    def _interp(self, knots: np.ndarray, world_angles: np.ndarray) -> np.ndarray:
        pos = (np.mod(world_angles, 2 * math.pi)) / (2 * math.pi) * _BIAS_KNOTS
        i0 = np.floor(pos).astype(int) % _BIAS_KNOTS
        i1 = (i0 + 1) % _BIAS_KNOTS
        frac = pos - np.floor(pos)
        w = 0.5 * (1.0 - np.cos(math.pi * frac))
        return (1.0 - w) * knots[i0] + w * knots[i1]

    def values(self, world_angles: np.ndarray, t: int) -> np.ndarray:
        ts = self.noise.drift_timescale
        epoch, frac = divmod(int(t), ts)
        a = self._interp(self._knots(epoch), world_angles)
        b = self._interp(self._knots(epoch + 1), world_angles)
        alpha = frac / ts
        return (1.0 - alpha) * a + alpha * b


def estimated_scan(
    state: RobotState,
    world: World,
    cfg: SensorConfig,
    rng: np.random.Generator,
    bias: BiasField,
    t: int = 0,
) -> np.ndarray:
    """Noisy scan: per hit ray, range -> range*(1 + b(theta, t)) + eta, then dropout.

    b is the smooth angular bias field `bias`, shared across an episode so that
    it drifts rather than redraws; eta ~ N(0, additive_sigma^2). Results are
    clamped to [1e-9, max_range], so a zero NoiseModel reproduces raycast_scan
    exactly from any pose inside the arena and outside the obstacles.
    """
    noise = cfg.noise
    angles, ranges = scan_ranges(state, world, cfg)
    hit = np.isfinite(ranges)
    angles, ranges = angles[hit], ranges[hit]
    if noise.range_bias_scale > 0.0:
        ranges = ranges * (1.0 + bias.values(state.psi + angles, t))
    if noise.additive_sigma > 0.0:
        ranges = ranges + rng.normal(0.0, noise.additive_sigma, ranges.shape)
    if noise.dropout_prob > 0.0:
        keep = rng.random(ranges.shape) >= noise.dropout_prob
        angles, ranges = angles[keep], ranges[keep]
    ranges = np.clip(ranges, 1e-9, cfg.max_range)
    return _polar_to_points(angles, ranges)


def standardize_cloud(cloud):  # uncalled; kept while perfbench/tracer.py traces this name
    return cloud


def body_to_world(points: np.ndarray, state: RobotState) -> np.ndarray:
    """Transform body-frame points (n, 2) to the world frame."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    c, s = math.cos(state.psi), math.sin(state.psi)
    x = state.x + c * points[:, 0] - s * points[:, 1]
    y = state.y + s * points[:, 0] + c * points[:, 1]
    return np.column_stack([x, y])


# ---------------------------------------------------------------------------
# Strict file reading: JSON scenarios (schema documented in README) and npz archives

def _check_keys(section: str, d: dict, known, required=None) -> None:
    """Refuse a key of d outside `known`, or a missing key of `required` (all of
    `known` when not given), with a ValueError naming the section and the key."""
    for key in d:
        if key not in known:
            raise ValueError(f"{section}: unknown key {key!r}")
    for key in known if required is None else required:
        if key not in d:
            raise ValueError(f"{section}: missing key {key!r}")


def _from_dict(cls, d: dict, section: str, **read):
    """Dataclass cls from the mapping d of its fields, each passed through its
    function in `read` if it has one. A key cls does not define, or a missing
    field without a default, raises ValueError naming the section."""
    fs = fields(cls)
    required = [f.name for f in fs if f.default is MISSING and f.default_factory is MISSING]
    _check_keys(section, d, [f.name for f in fs], required)
    return cls(**{k: read[k](v) if k in read else v for k, v in d.items()})


def read_npz(path, kind: str, version: int, axes: dict, optional=(), advice: str = "") -> dict:
    """The arrays of the npz archive at `path` but `version`, by name, read strictly: a scalar
    `version` equal to `version` (else the error names `kind`, then `advice`), and exactly the
    arrays of `axes`, those in `optional` allowed to be left out, each numeric, finite and of
    its axes' lengths (an int is fixed; a str names an axis, whose length the first array of
    `axes` that has it sets). Anything else, a file that is not an npz archive included,
    raises ValueError naming the file and the array."""
    arrays = None
    try:
        z = np.load(path, allow_pickle=False)
        if isinstance(z, np.lib.npyio.NpzFile):  # else a .npy file: one bare array
            with z:
                arrays = {name: z[name] for name in z.files}
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error):
        pass  # text (numpy takes it for a pickle), an empty or a truncated file
    if arrays is None:
        raise ValueError(f"{path}: not a readable npz archive")
    found = arrays.pop("version", None)
    if found is None:
        raise ValueError(f"{path}: arrays: missing key 'version'")
    if found.shape != () or found.item() != version:
        raise ValueError(f"{path}: {kind} version {found}, expected {version}{advice}")
    _check_keys(f"{path}: arrays", arrays, axes, [name for name in axes if name not in optional])
    arrays = {name: arrays[name] for name in axes if name in arrays}  # in the order of `axes`
    lengths: dict[str, int] = {}
    for name, arr in arrays.items():
        shape = axes[name]
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"{path}: array {name} has dtype {arr.dtype}, not a number type")
        if arr.ndim == len(shape):  # the first array that has a named axis sets its length
            lengths = {axis: n for axis, n in zip(shape, arr.shape) if isinstance(axis, str)} | lengths
        expected = tuple(lengths.get(axis, axis) for axis in shape)  # an unset axis keeps its name
        if arr.shape != expected:
            raise ValueError(f"{path}: array {name} has shape {arr.shape}, expected {expected}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: array {name} contains non-finite values")
    return arrays


def obstacle_to_dict(ob: Obstacle) -> dict:
    if isinstance(ob, Circle):
        return {"type": "circle", "center": [ob.cx, ob.cy], "radius": ob.radius}
    return {"type": "box", "min": [ob.xmin, ob.ymin], "max": [ob.xmax, ob.ymax]}


def obstacle_from_dict(d: dict) -> Obstacle:
    kind = d.get("type")
    if kind == "circle":
        _check_keys("circle", d, ("type", "center", "radius"))
        return Circle(*d["center"], d["radius"])
    if kind == "box":
        _check_keys("box", d, ("type", "min", "max"))
        (xmin, ymin), (xmax, ymax) = d["min"], d["max"]
        return Box(xmin, ymin, xmax, ymax)
    raise ValueError(f"unknown obstacle type {kind!r}")


def world_to_dict(world: World) -> dict:
    return {
        "bounds": list(world.bounds),
        "start": asdict(world.start),
        "goal": list(world.goal),
        "obstacles": [obstacle_to_dict(ob) for ob in world.obstacles],
    }


def _obstacles_from_list(obs) -> list[Obstacle]:
    if not isinstance(obs, list) or not all(isinstance(d, dict) for d in obs):
        raise ValueError("world: obstacles must be a list of objects")
    return [obstacle_from_dict(d) for d in obs]


def world_from_dict(d: dict) -> World:
    return _from_dict(World, {"obstacles": [], **d}, "world",  # obstacles may be left out
                      obstacles=_obstacles_from_list,
                      start=lambda s: _from_dict(RobotState, s, "start"))


def sensor_from_dict(d: dict) -> SensorConfig:
    return _from_dict(SensorConfig, d, "sensor", noise=lambda n: _from_dict(NoiseModel, n, "noise"))


def save_scenario(path, world: World, sensor: SensorConfig, seed: int, extra: dict | None = None) -> None:
    doc = {"seed": int(seed), "world": world_to_dict(world), "sensor": asdict(sensor)}
    if extra:
        doc.update(extra)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def load_scenario(path) -> tuple[World, SensorConfig, int, dict]:
    """Load (world, sensor, seed, extras) from a scenario JSON file."""
    with open(path) as f:
        doc = json.load(f)
    if "world" not in doc:
        raise ValueError("scenario: missing key 'world'")
    world = world_from_dict(doc["world"])
    sensor = sensor_from_dict(doc.get("sensor", {}))
    extras = {k: v for k, v in doc.items() if k not in ("world", "sensor", "seed")}
    return world, sensor, int(doc.get("seed", 0)), extras

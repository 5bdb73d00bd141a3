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

true_clearance and the World checks run on Python floats: numpy's per-scalar
dispatch costs several times their few operations, and the values are the same.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
import typing
import zipfile
import zlib
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .dynamics import RobotState

_BIAS_KNOTS = 12  # knots of the bias field around the full circle of bearings
_FLOAT_MAX = 1.7976931348623157e308  # the largest finite float64
MAX_RAYS = 2**16  # rays per scan: far past any sensor, and a scan's arrays stay small


def _items(value) -> tuple:
    """A tuple field's elements, or a scalar field as a one-element tuple."""
    return value if isinstance(value, tuple) else (value,)


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _check_finite(obj) -> None:
    """Refuse a field of obj, or an element of a tuple field, that is not finite."""
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        if not (all(map(math.isfinite, value)) if isinstance(value, tuple) else math.isfinite(value)):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite")


def _is_vector(value, n: int) -> bool:
    """Whether np.shape(value) == (n,), answered without numpy for a tuple or list of floats or ints."""
    plain = type(value) in (tuple, list) and {float, int}.issuperset(map(type, value))
    return len(value) == n if plain else np.shape(value) == (n,)


def _check_counts(obj, *names, least: int = 1) -> None:
    """Refuse a field of obj among `names` that is not an integer (a bool or 2.0 included) or is
    < least; a tuple field is checked element by element."""
    for name in names:
        value = getattr(obj, name)
        for item in _items(value):
            if isinstance(item, bool) or not isinstance(item, numbers.Integral):
                kind = "integers" if isinstance(value, tuple) else "an integer"
                raise ValueError(f"{type(obj).__name__}.{name} must be {kind}, got {value!r}")
            if item < least:
                raise ValueError(f"{type(obj).__name__}.{name} must be >= {least}, got {value!r}")


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        _check_finite(self)
        if self.radius <= 0:
            raise ValueError("circle radius must be positive")


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
        _check_counts(self, "drift_timescale")


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
        if self.n_rays > MAX_RAYS:
            raise ValueError(f"n_rays must be <= {MAX_RAYS}, got {self.n_rays}")
        if not (math.isfinite(self.max_range) and self.max_range > 0):
            raise ValueError("max_range must be positive and finite")


@dataclass(frozen=True, eq=False)
class World:
    obstacles: tuple[Obstacle, ...]
    bounds: tuple[float, float, float, float]  # xmin, ymin, xmax, ymax
    start: RobotState
    goal: tuple[float, float]

    def __post_init__(self):
        if not _is_vector(self.bounds, 4):
            raise ValueError(f"World.bounds must be four numbers, got {self.bounds!r}")
        xmin, ymin, xmax, ymax = self.bounds
        if not (all(map(math.isfinite, self.bounds)) and xmin < xmax and ymin < ymax):
            raise ValueError("bounds must form a finite nonempty rectangle")
        _check_finite(self.start)
        if not _is_vector(self.goal, 2) or not all(map(math.isfinite, self.goal)):
            raise ValueError(f"World.goal must be two finite numbers, got {self.goal!r}")
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


def true_clearance(point, world: World) -> float:
    """Minimum distance from point (x, y) to any obstacle boundary; 0 inside an obstacle."""
    if not world.obstacles:
        return math.inf
    x, y = float(point[0]), float(point[1])
    return min(max(0.0, math.hypot(x - ob.cx, y - ob.cy) - ob.radius) if isinstance(ob, Circle) else
               math.hypot(max(ob.xmin - x, 0.0, x - ob.xmax), max(ob.ymin - y, 0.0, y - ob.ymax))
               for ob in world.obstacles)


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


def _read(value, kind, path: str):
    """The JSON value read as `kind`: float (a finite number; an int stays an int), int (not a bool),
    str, dict, a dataclass (an object of its fields), Obstacle, tuple[X, Y] or tuple[X, ...] (a list of
    that length or of any, read into a tuple). Else a ValueError starting with `path`, the value's place."""
    if kind is float:  # an int past the largest float is no finite number either
        ok = isinstance(value, float) and math.isfinite(value) or type(value) is int and abs(value) <= _FLOAT_MAX
        need = "a finite number"
    elif kind is int:
        ok, need = type(value) is int, "an integer"
    elif kind is str or kind is dict:
        ok, need = isinstance(value, kind), "a string" if kind is str else "an object"
    elif kind == Obstacle:
        return obstacle_from_dict(value, path)
    elif is_dataclass(kind):
        return _from_dict(kind, value, path)
    else:  # tuple[X, Y] or tuple[X, ...]
        items = typing.get_args(kind)
        many = items[-1] is Ellipsis
        if isinstance(value, list) and (many or len(value) == len(items)):
            return tuple(_read(v, items[0 if many else i], f"{path}[{i}]") for i, v in enumerate(value))
        ok, need = False, "a list" if many else f"a list of {len(items)}"
    if not ok:
        raise ValueError(f"{path} must be {need}, got {json.dumps(value)}")
    return value


def _from_dict(cls, d, path: str, document: str = ""):
    """Dataclass cls from the JSON object d at `path`, or the whole `document` at path "", each field
    read by _read as its annotation says; a field left out takes its default. Errors name the object."""
    where = path or document
    d = _read(d, dict, where)
    fs = fields(cls)
    required = [f.name for f in fs if f.default is MISSING and f.default_factory is MISSING]
    _check_keys(where, d, [f.name for f in fs], required)
    kinds = typing.get_type_hints(cls)
    values = {k: _read(v, kinds[k], f"{path}.{k}" if path else k) for k, v in d.items()}
    try:
        return cls(**values)
    except ValueError as e:  # a range rule of cls
        raise ValueError(f"{where}: {e}") from None


def read_npz(path, kind: str, version: int, axes: dict, optional=(), advice: str = "") -> dict:
    """The arrays of the npz archive at `path` but `version`, by name, read strictly: a scalar
    `version` equal to `version` (else the error names `kind`, then `advice`), and exactly the
    arrays of `axes`, those in `optional` allowed to be left out, each numeric, finite and of
    its axes' lengths (an int is fixed; a str names an axis, whose length the first array of
    `axes` that has it sets). Anything else, a file that is not an npz archive included,
    raises ValueError naming the file and the array, and any array that set a length it breaks."""
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
    setter: dict[str, str] = {}  # axis -> the array that set its length
    for name, arr in arrays.items():
        shape = axes[name]
        if arr.dtype.kind not in "iuf":
            raise ValueError(f"{path}: array {name} has dtype {arr.dtype}, not a number type")
        if arr.ndim == len(shape):  # the first array that has a named axis sets its length
            for axis, n in zip(shape, arr.shape):
                if isinstance(axis, str) and axis not in lengths:
                    lengths[axis], setter[axis] = n, name
        expected = tuple(lengths.get(axis, axis) for axis in shape)  # an unset axis keeps its name
        if arr.shape != expected:
            blame = "".join(f"; array {setter[axis]} sets {axis} to {lengths[axis]}"
                            for axis, n in zip(shape, arr.shape) if axis in setter and lengths[axis] != n)
            raise ValueError(f"{path}: array {name} has shape {arr.shape}, expected {expected}{blame}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: array {name} contains non-finite values")
    return arrays


def obstacle_to_dict(ob: Obstacle) -> dict:
    if isinstance(ob, Circle):
        return {"type": "circle", "center": [ob.cx, ob.cy], "radius": ob.radius}
    return {"type": "box", "min": [ob.xmin, ob.ymin], "max": [ob.xmax, ob.ymax]}


def obstacle_from_dict(d, path: str) -> Obstacle:
    """The obstacle the JSON object d at `path` (e.g. "world.obstacles[0]") describes."""
    d = _read(d, dict, path)
    _check_keys(path, d, ("type", "center", "radius", "min", "max"), ("type",))
    if d["type"] == "circle":
        _check_keys(path, d, ("type", "center", "radius"))
        cx, cy = _read(d["center"], tuple[float, float], f"{path}.center")
        return _from_dict(Circle, {"cx": cx, "cy": cy, "radius": d["radius"]}, path)
    if d["type"] == "box":
        _check_keys(path, d, ("type", "min", "max"))
        lo, hi = (_read(d[k], tuple[float, float], f"{path}.{k}") for k in ("min", "max"))
        return _from_dict(Box, dict(zip(("xmin", "ymin", "xmax", "ymax"), lo + hi)), path)
    raise ValueError(f'{path}.type must be "circle" or "box", got {json.dumps(d["type"])}')


def world_to_dict(world: World) -> dict:
    return {
        "bounds": list(world.bounds),
        "start": asdict(world.start),
        "goal": list(world.goal),
        "obstacles": [obstacle_to_dict(ob) for ob in world.obstacles],
    }


def world_from_dict(d) -> World:
    """The World the JSON object d describes; its obstacles may be left out."""
    return _from_dict(World, {"obstacles": [], **_read(d, dict, "world")}, "world")


def save_scenario(path, world: World, sensor: SensorConfig, seed: int) -> None:
    doc = {"seed": int(seed), "world": world_to_dict(world), "sensor": asdict(sensor)}
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def load_scenario(path) -> tuple[World, SensorConfig, int]:
    """Load (world, sensor, seed) from a scenario JSON file; sensor and seed may be left out."""
    with open(path) as f:
        doc = _read(json.load(f), dict, "scenario")
    _check_keys("scenario", doc, ("seed", "world", "sensor"), ("world",))
    seed = _read(doc.get("seed", 0), int, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return world_from_dict(doc["world"]), _read(doc.get("sensor", {}), SensorConfig, "sensor"), seed

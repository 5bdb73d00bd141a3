"""The benchmark's workloads: inputs generated from a seed, one timed operation at a time.

Each workload has `setup(seed)`, which builds every input (the part `setup_s`
times), and `run(state, i)`, which performs item i and returns an `Item`:
the wall time of the calls into clearnav, the operations they completed, and
the problems the output checks found. Checks run outside the timed calls.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from clearnav import bench, data, training

from . import checks, config


@dataclass
class Item:
    wall: float  # seconds spent in the timed calls
    ops: int  # operations completed (MPC steps, labelled samples, sample-epochs)
    checked: int  # outputs checked (segments, datasets, training runs)
    failed: int = 0  # checked outputs that failed a check
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)  # behaviour of this item, for the record


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def label_dataset(worlds, snapshots_per_world: int, rng, seed: int):
    """data.generate_dataset with the benchmark's sensor, horizon and sequence count."""
    return data.generate_dataset(
        worlds, snapshots_per_world, rng, config.SENSOR,
        d_o=config.PLANNER.d_o, horizon=config.PLANNER.horizon, dt=config.PLANNER.dt,
        sequences_per_snapshot=config.LABEL_SEQUENCES, seed=seed,
    )


def sha256_of(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def load_models() -> dict:
    """The stored weights, refused when a file's sha256 differs from the manifest."""
    models = {}
    for name, expected in sorted(config.load_manifest()["sha256"].items()):
        path = os.path.join(config.WEIGHTS_DIR, name)
        actual = sha256_of(path)
        if actual != expected:
            raise ValueError(f"{path}: sha256 {actual} does not match the manifest ({expected})")
        models[os.path.splitext(name)[0]] = bench.model_from_checkpoint(path)
    return models


class PlanWorkload:
    """Short closed-loop episode segments from seeded start poses, one per method.

    An item is one start pose run once with every method of the workload; its
    latency sample is the summed segment wall time over the summed plan calls,
    so each sample weighs the methods equally and the percentiles do not
    straddle the gap between a cheap and a costly method.
    """

    op = "MPC step"
    sample = "one start pose x every method"
    table_items = 3

    def __init__(self, methods: tuple[str, ...]):
        self.methods = methods

    def setup(self, seed: int) -> dict:
        needs_models = any(m in config.LEARNED_METHODS for m in self.methods)
        models = load_models() if needs_models else {}
        worlds = bench.suite_worlds(config.PLAN_WORLDS, seed, config.SUITE)
        rng = np.random.default_rng([seed, 5])
        cases = []
        for i in range(config.PLAN_CASES):
            world = worlds[i % len(worlds)]
            pose = data.sample_free_pose(world, rng, config.START_CLEARANCE)
            if pose is None:
                raise RuntimeError(f"no free start pose in world {i % len(worlds)}")
            cases.append((replace(world, start=pose), int(rng.integers(2**31))))
        return {"models": models, "cases": cases}

    def run(self, state: dict, i: int) -> Item:
        world, episode_seed = state["cases"][i % len(state["cases"])]
        item = Item(wall=0.0, ops=0, checked=0)
        for method in self.methods:
            t0 = perf_counter()
            out = bench.run_episode(world, method, episode_seed, config.SENSOR, config.PLANNER,
                                    config.EPISODE, state["models"])
            item.wall += perf_counter() - t0
            # each mpc_step executes exec_horizon commands; only the last may stop early
            item.ops += -(-len(out.commands) // config.EPISODE.exec_horizon)
            item.checked += 1
            problems = checks.check_segment(out)
            item.failed += bool(problems)
            item.problems += [f"{method}: {p}" for p in problems]
            item.info[method] = {
                "result": out.result,
                "digest": _digest(out.commands, *(out.trace[k] for k in ("mu", "sigma", "lam", "risk"))),
            }
        return item

    def table(self, items: list[Item]) -> dict:
        """Outcome counts per method over the first table_items items, plus a digest."""
        head = items[: self.table_items]
        counts = {m: {o: 0 for o in checks.OUTCOMES} for m in self.methods}
        for it in head:
            for m, v in it.info.items():
                counts[m][v["result"]] += 1
        return {"items": len(head), "outcomes": counts, "digest": _json_digest([it.info for it in head])}


class LabelWorkload:
    """Dataset generation: snapshots of one seeded suite world per item, every sequence labelled."""

    op = "labelled sample"
    sample = "one generate_dataset call"
    table_items = 3

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "worlds": bench.suite_worlds(config.LABEL_WORLDS, seed, config.SUITE)}

    def run(self, state: dict, i: int) -> Item:
        world = state["worlds"][i % len(state["worlds"])]
        rng = np.random.default_rng([state["seed"], 3, i])
        t0 = perf_counter()
        ds = label_dataset([world], config.LABEL_SNAPSHOTS, rng, seed=i)
        wall = perf_counter() - t0
        pick = np.random.default_rng([state["seed"], 4, i]).choice(
            len(ds), size=config.LABEL_CHECKED, replace=False)
        problems = checks.check_labels(ds, [world], config.LABEL_SNAPSHOTS, config.SENSOR, pick,
                                       config.LABEL_TOLERANCE_M)
        info = {"samples": len(ds), "safe_share": float(ds.safe.mean()),
                "digest": _digest(ds.clearance, ds.controls)}
        return Item(wall=wall, ops=len(ds), checked=1, failed=int(bool(problems)), problems=problems,
                    info=info)

    def table(self, items: list[Item]) -> dict:
        head = items[: self.table_items]
        return {"items": len(head), "datasets": [it.info for it in head],
                "digest": _json_digest([it.info for it in head])}


class TrainWorkload:
    """Augmented-mode training runs on one dataset labelled at set-up."""

    op = "training sample-epoch"
    sample = "one train call"
    table_items = 1

    def setup(self, seed: int) -> dict:
        worlds = bench.suite_worlds(config.TRAIN_WORLDS, seed, config.SUITE)
        ds = label_dataset(worlds, config.TRAIN_SNAPSHOTS, np.random.default_rng([seed, 6]), seed)
        return {"seed": seed, "dataset": ds}

    def run(self, state: dict, i: int) -> Item:
        cfg = config.train_config(int(np.random.default_rng([state["seed"], 7, i]).integers(2**31)),
                                  config.TRAIN_EPOCHS)
        t0 = perf_counter()
        result = training.train(state["dataset"], cfg, "augmented")
        wall = perf_counter() - t0
        n_train = len(state["dataset"]) - result.holdout_index.size
        last = result.log.rows[-1]
        info = {
            "holdout_accuracy": last.holdout_accuracy,
            "median_sigma": last.median_sigma,
            "digest": _digest([[r.nll, r.ce, r.holdout_accuracy, r.median_sigma] for r in result.log.rows]),
        }
        problems = checks.check_training(result)
        return Item(wall=wall, ops=n_train * cfg.epochs, checked=1, failed=int(bool(problems)),
                    problems=problems, info=info)

    def table(self, items: list[Item]) -> dict:
        head = items[: self.table_items]
        return {"items": len(head), "runs": [it.info for it in head]}


WORKLOADS = {
    "plan-learned": PlanWorkload(config.LEARNED_METHODS),
    "plan-geometric": PlanWorkload(config.GEOMETRIC_METHODS),
    "label": LabelWorkload(),
    "train": TrainWorkload(),
}

"""Command-line harness: dataset generation, training, episodes, benchmarks."""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bench import (
    DESK_NOISE,
    METHODS,
    EpisodeConfig,
    LearnedModel,
    MissingCheckpointError,
    _check_methods,
    emit_traces,
    model_from_checkpoint,
    replay_trajectory,
    run_benchmark,
    run_episode,
    training_worlds,
)
from .data import ClearanceDataset, generate_dataset
from .model import save_checkpoint
from .planner import PlannerConfig
from .training import TrainConfig, train
from .world import NoiseModel, SensorConfig, _from_dict, load_scenario


def _default_sensor(noisy: bool = True) -> SensorConfig:
    return SensorConfig(noise=DESK_NOISE if noisy else NoiseModel())


def _or_exit(path, call, *args):
    """call(*args); a ValueError or OSError from it exits with one line naming `path` once."""
    try:
        return call(*args)
    except OSError as e:
        raise SystemExit(f"{path}: {e.strerror or e}") from None
    except ValueError as e:
        message = str(e)
        raise SystemExit(message if message.startswith(f"{path}: ") else f"{path}: {message}") from None


def count(text: str) -> int:
    """argparse type of a count: an integer >= 1. argparse names it in the error for text that
    int() does not read (`invalid count value: '1.5'`), and `radius` likewise."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def seed(text: str) -> int:
    """argparse type of a seed: an integer >= 0, as np.random.default_rng takes it."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


def radius(text: str) -> float:
    """argparse type of a radius: a finite number > 0."""
    r = float(text)
    if not 0 < r < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return r


def _check_out(path) -> None:
    """Refuse, before any work, an output file whose directory does not exist."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"directory {parent} does not exist")


def _planner_from_json(path) -> PlannerConfig:
    if path is None:
        return PlannerConfig()
    with open(path) as f:
        return _from_dict(PlannerConfig, json.load(f), "", "planner config")


def cmd_gen_data(args) -> int:
    _or_exit(args.out, _check_out, args.out)
    rng = np.random.default_rng(args.seed)
    sensor = _default_sensor()
    dataset = generate_dataset(
        training_worlds(args.worlds, args.seed),
        args.snapshots_per_world,
        rng,
        sensor,
        d_o=args.d_o,
        seed=args.seed,
    )
    dataset.save(args.out)
    print(f"wrote {len(dataset)} samples ({dataset.n_snapshots} snapshots) to {args.out}")
    return 0


def cmd_train(args) -> int:
    _or_exit(args.out, _check_out, args.out)
    dataset = _or_exit(args.data, ClearanceDataset.load, args.data)
    cfg = TrainConfig(seed=args.seed, epochs=args.epochs, d_o=dataset.d_o)
    result = train(dataset, cfg, args.mode)
    save_checkpoint(args.out, result.params, result.risk_head, result.meta)
    log_path = os.path.splitext(args.out)[0] + "_log.csv"
    result.log.to_csv(log_path)
    last = result.log.rows[-1]
    print(
        f"trained {args.mode} for {cfg.epochs} epochs: "
        f"nll={last.nll:.4f} ce={last.ce:.4f} holdout_acc={last.holdout_accuracy:.3f} "
        f"median_sigma={last.median_sigma:.4f}"
    )
    print(f"checkpoint: {args.out}  log: {log_path}")
    return 0


# model key -> the flag that gives its checkpoint
_CHECKPOINT_FLAGS = {"augmented": "--checkpoint", "baseline_nll": "--baseline-checkpoint"}


def _models(args, methods: list[str]) -> dict[str, LearnedModel]:
    """The model loaded from each checkpoint given; exits on an unknown or repeated method,
    on a learned one whose checkpoint flag is missing, or on a checkpoint that does not load."""
    paths = {key: path for key, flag in _CHECKPOINT_FLAGS.items()
             if (path := getattr(args, flag.lstrip("-").replace("-", "_")))}
    try:
        _check_methods(methods, paths)
    except MissingCheckpointError as e:
        raise SystemExit(f"{e}: give it with {_CHECKPOINT_FLAGS[e.key]}") from None
    except ValueError as e:
        raise SystemExit(str(e)) from None
    return {key: _or_exit(path, model_from_checkpoint, path) for key, path in paths.items()}


def cmd_episode(args) -> int:
    world, sensor, seed = _or_exit(args.scenario, load_scenario, args.scenario)
    if args.seed is not None:
        seed = args.seed
    cfg = _or_exit(args.planner_config, _planner_from_json, args.planner_config)
    _or_exit(args.scenario, world.validate, cfg.d_o)
    models = _models(args, [args.method])
    out = run_episode(world, args.method, seed, sensor, cfg, EpisodeConfig(), models)
    csv_path, replay_path = emit_traces(out, args.out, stem=f"{args.method}")
    print(
        f"{args.method}: {out.result} in {out.duration:.1f}s, "
        f"avg v={out.avg_speed:.2f} m/s, min clearance={out.min_true_clearance:.3f} m"
    )
    print(f"trace: {csv_path}\nreplay: {replay_path}")
    return 0


def cmd_bench(args) -> int:
    methods = args.methods.split(",")
    models = _models(args, methods)
    sensor = _default_sensor(noisy=not args.no_noise)
    report = run_benchmark(
        methods,
        args.episodes,
        args.seed,
        sensor,
        _or_exit(args.planner_config, _planner_from_json, args.planner_config),
        EpisodeConfig(),
        workers=args.workers,
        models=models,
    )
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "report.json")
    report.save(path)
    print(report.format_table())
    print(f"report: {path}")
    return 0


def cmd_replay(args) -> int:
    world, states = _or_exit(args.replay, replay_trajectory, args.replay)
    end = states[-1]
    print(f"replayed {states.shape[0] - 1} steps; final pose ({end[0]:.3f}, {end[1]:.3f}, {end[2]:.3f})")
    if args.out:
        np.savetxt(args.out, states, delimiter=",", header="x,y,psi,v,omega", comments="")
        print(f"states: {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="clearnav", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a labeled clearance dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--worlds", type=count, default=40)
    g.add_argument("--snapshots-per-world", type=count, default=10)
    g.add_argument("--d-o", type=radius, default=PlannerConfig.d_o)
    g.add_argument("--seed", type=seed, default=0)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train the clearance model")
    t.add_argument("--data", required=True)
    t.add_argument("--mode", choices=("augmented", "baseline"), default="augmented")
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=count, default=TrainConfig.epochs)
    t.add_argument("--seed", type=seed, default=TrainConfig.seed)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("episode", help="run one scenario episode and emit traces")
    e.add_argument("--scenario", required=True, help="scenario JSON (world + sensor + seed)")
    e.add_argument("--method", choices=METHODS, default="oracle")
    e.add_argument("--checkpoint", help="augmented-model checkpoint (npz)")
    e.add_argument("--baseline-checkpoint", help="baseline-model checkpoint (npz)")
    e.add_argument("--planner-config", help="PlannerConfig overrides (JSON)")
    e.add_argument("--seed", type=seed)
    e.add_argument("--out", default="traces")
    e.set_defaults(func=cmd_episode)

    b = sub.add_parser("bench", help="run the seeded benchmark suite")
    b.add_argument("--methods", default="oracle,raw_costmap")
    b.add_argument("--episodes", type=count, default=10)
    b.add_argument("--seed", type=seed, default=0)
    b.add_argument("--checkpoint", help="augmented-model checkpoint (npz)")
    b.add_argument("--baseline-checkpoint", help="baseline-model checkpoint (npz)")
    b.add_argument("--planner-config", help="PlannerConfig overrides (JSON)")
    b.add_argument("--no-noise", action="store_true", help="disable sensor noise")
    b.add_argument("--workers", type=count, default=1)
    b.add_argument("--out", default="bench_out")
    b.set_defaults(func=cmd_bench)

    r = sub.add_parser("replay", help="re-simulate a recorded episode")
    r.add_argument("--replay", required=True, help="replay JSON from emit-traces")
    r.add_argument("--out", help="optional CSV of re-simulated states")
    r.set_defaults(func=cmd_replay)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

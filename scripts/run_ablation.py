#!/usr/bin/env python3
"""End-to-end ablation experiment: dataset -> two models -> benchmark table.

Reproduces the full pipeline at desk scale:
  1. generate a labeled clearance dataset from procedural clutter worlds,
  2. train the augmented (risk-supervised) and baseline (NLL-only) models,
  3. run the seeded benchmark over all methods and print the metric table.

Usage:
  python scripts/run_ablation.py --out runs/ablation --episodes 60
  python scripts/run_ablation.py --out /tmp/quick --episodes 6 --epochs 10 --samples 4000
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from clearnav.bench import (
    BENCH_PLANNER,
    DESK_NOISE,
    EpisodeConfig,
    SuiteConfig,
    model_from_checkpoint,
    run_benchmark,
    suite_worlds,
)
from clearnav.cli import count, seed
from clearnav.data import ClearanceDataset, generate_dataset
from clearnav.model import save_checkpoint
from clearnav.training import TrainConfig, train
from clearnav.world import SensorConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/ablation")
    ap.add_argument("--episodes", type=count, default=60)
    ap.add_argument("--epochs", type=count, default=80)
    ap.add_argument("--samples", type=count, default=22000)
    ap.add_argument("--seed", type=seed, default=0)
    ap.add_argument("--workers", type=count, default=2)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    sensor = SensorConfig(noise=DESK_NOISE)
    data_path = os.path.join(args.out, "dataset.npz")
    if os.path.exists(data_path):
        dataset = ClearanceDataset.load(data_path)
        print(f"reusing dataset: {len(dataset)} samples")
    else:
        t0 = time.time()
        n_worlds = max(args.samples // 550, 1)
        worlds = suite_worlds(n_worlds, seed=args.seed + 900, suite=SuiteConfig())
        dataset = generate_dataset(
            worlds, 11, np.random.default_rng(args.seed + 1), sensor, seed=args.seed + 1
        )
        dataset.save(data_path)
        print(f"dataset: {len(dataset)} samples in {time.time()-t0:.0f}s")

    paths = {}
    for mode, name in (("augmented", "augmented"), ("baseline", "baseline_nll")):
        ckpt = os.path.join(args.out, f"{mode}.npz")
        paths[name] = ckpt
        if os.path.exists(ckpt):
            print(f"reusing checkpoint {ckpt}")
            continue
        t0 = time.time()
        cfg = TrainConfig(epochs=args.epochs, learning_rate=2e-3, seed=args.seed)
        result = train(dataset, cfg, mode)
        save_checkpoint(ckpt, result.params, result.risk_head, result.meta)
        result.log.to_csv(os.path.join(args.out, f"{mode}_log.csv"))
        last = result.log.rows[-1]
        print(
            f"{mode}: {time.time()-t0:.0f}s acc={last.holdout_accuracy:.3f} "
            f"median_sigma={last.median_sigma:.4f}"
        )

    t0 = time.time()
    report = run_benchmark(
        ["augmented", "baseline_nll", "det", "raw_costmap", "oracle"],
        args.episodes,
        args.seed + 77,
        sensor,
        BENCH_PLANNER,
        EpisodeConfig(),
        workers=args.workers,
        models={name: model_from_checkpoint(path) for name, path in paths.items()},
    )
    report.save(os.path.join(args.out, "report.json"))
    print(f"benchmark: {time.time()-t0:.0f}s")
    print(report.format_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())

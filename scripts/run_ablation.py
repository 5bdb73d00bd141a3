#!/usr/bin/env python3
"""End-to-end ablation experiment: dataset -> two models -> benchmark table.

Reproduces the full pipeline at desk scale:
  1. generate a labeled clearance dataset from procedural clutter worlds,
  2. train the augmented (risk-supervised) and baseline (NLL-only) models
     with `clearnav train`,
  3. run the seeded benchmark over all methods with `clearnav bench` and print
     the metric table.
A dataset or checkpoint already in --out is reused.

Usage:
  python scripts/run_ablation.py --out runs/ablation --episodes 60
  python scripts/run_ablation.py --out /tmp/quick --episodes 6 --epochs 10 --samples 4000
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from clearnav import cli
from clearnav.bench import DESK_NOISE, SuiteConfig, suite_worlds
from clearnav.data import generate_dataset
from clearnav.world import SensorConfig


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/ablation")
    ap.add_argument("--episodes", type=cli.count, default=60)
    ap.add_argument("--epochs", type=cli.count, default=80)
    ap.add_argument("--samples", type=cli.count, default=22000)
    ap.add_argument("--seed", type=cli.seed, default=0)
    ap.add_argument("--workers", type=cli.count, default=2)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    data_path = os.path.join(args.out, "dataset.npz")
    if os.path.exists(data_path):
        print(f"reusing dataset {data_path}")
    else:
        # a library call, not `clearnav gen-data`: the dataset, and so the report,
        # rests on these seeds (suite seed + 900, random stream + 1)
        t0 = time.time()
        n_worlds = max(args.samples // 550, 1)
        worlds = suite_worlds(n_worlds, seed=args.seed + 900, suite=SuiteConfig())
        dataset = generate_dataset(
            worlds, 11, np.random.default_rng(args.seed + 1), SensorConfig(noise=DESK_NOISE),
            seed=args.seed + 1,
        )
        dataset.save(data_path)
        print(f"dataset: {len(dataset)} samples in {time.time()-t0:.0f}s")

    checkpoints = {}
    for mode in ("augmented", "baseline"):
        checkpoints[mode] = ckpt = os.path.join(args.out, f"{mode}.npz")
        if os.path.exists(ckpt):
            print(f"reusing checkpoint {ckpt}")
            continue
        t0 = time.time()
        cli.main(["train", "--data", data_path, "--mode", mode, "--out", ckpt,
                  "--epochs", str(args.epochs), "--seed", str(args.seed)])
        print(f"{mode}: {time.time()-t0:.0f}s")

    t0 = time.time()
    cli.main(["bench", "--methods", "augmented,baseline_nll,det,raw_costmap,oracle",
              "--episodes", str(args.episodes), "--seed", str(args.seed + 77),
              "--checkpoint", checkpoints["augmented"], "--baseline-checkpoint", checkpoints["baseline"],
              "--workers", str(args.workers), "--out", args.out])
    print(f"benchmark: {time.time()-t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

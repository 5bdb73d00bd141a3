#!/usr/bin/env python3
"""Build the stored model weights the learned-method workload plans with.

Run once, from the root of the repository:

    python3 perfbench/make_weights.py

It labels a fixed-seed dataset (40 suite worlds x 11 snapshots x 50 command
sequences = 22,000 samples), trains the augmented and the NLL-only model on
it for 40 epochs each, and writes both checkpoints plus a manifest with their
sha256 to perfbench/weights/. The benchmark loads these files and refuses
them if a hash differs. Stored weights keep the planning inputs fixed while
training numerics change; random-init weights would misstate the MMD traffic
(far fewer violation samples sit exactly at zero).
"""
from __future__ import annotations

import json
import os
import time

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

from clearnav.bench import suite_worlds  # noqa: E402
from clearnav.model import save_checkpoint  # noqa: E402
from clearnav.training import train  # noqa: E402
from perfbench import config  # noqa: E402
from perfbench.workloads import label_dataset, sha256_of  # noqa: E402

SEED = 7387
WORLDS = 40
SNAPSHOTS = 11
EPOCHS = 40
MODES = (("augmented", "augmented"), ("baseline", "baseline_nll"))


def main() -> int:
    t0 = time.perf_counter()
    worlds = suite_worlds(WORLDS, SEED, config.SUITE)
    dataset = label_dataset(worlds, SNAPSHOTS, np.random.default_rng([SEED, 1]), SEED)
    print(f"dataset: {len(dataset)} samples in {time.perf_counter() - t0:.1f} s")
    os.makedirs(config.WEIGHTS_DIR, exist_ok=True)
    hashes, summary = {}, {}
    for mode, name in MODES:
        t0 = time.perf_counter()
        result = train(dataset, config.train_config(SEED, EPOCHS), mode)
        path = os.path.join(config.WEIGHTS_DIR, f"{name}.npz")
        save_checkpoint(path, result.params, result.risk_head, result.meta)
        hashes[f"{name}.npz"] = sha256_of(path)
        last = result.log.rows[-1]
        summary[name] = {
            "holdout_accuracy": last.holdout_accuracy,
            "median_sigma": last.median_sigma,
        }
        print(f"{name}: {time.perf_counter() - t0:.1f} s, holdout accuracy "
              f"{last.holdout_accuracy:.3f}, median sigma {last.median_sigma:.4f}")
    manifest = {
        "generator": "perfbench/make_weights.py",
        "seed": SEED,
        "samples": len(dataset),
        "worlds": WORLDS,
        "snapshots_per_world": SNAPSHOTS,
        "sequences_per_snapshot": config.LABEL_SEQUENCES,
        "epochs": EPOCHS,
        "final": summary,
        "sha256": hashes,
    }
    with open(config.MANIFEST, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

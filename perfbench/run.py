#!/usr/bin/env python3
"""clearnav benchmark: MPC step latency by planning method, and label/train throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan-learned --seed 1 --seconds 25 --trace 0

Workloads (inputs are generated from --seed; BLAS runs on one thread):

  plan-learned    short episode segments with augmented, baseline_nll and det
                  (stored weights): the MLP and risk.mmd_batch do the work
  plan-geometric  the same segments with oracle and raw_costmap:
                  model.worst_case_clearance does the work
  label           data.generate_dataset: clearance labelling of fresh snapshots
  train           training.train in augmented mode: mmd_batch_grad and backprop

With --trace 0 the run measures for --seconds and reports end-to-end metrics:
set-up time (median of set-ups repeated through the run), wall ms per operation (median and
p90 over samples), operations per second, and peak resident memory. With
--trace 1 it runs the workload untraced for half the time, then the same
items again with every layer wrapped in a span, and reports per-layer
metrics plus the tracing overhead. Every output is checked; a failed check
makes the exit code 1. The last line of standard output is the JSON result;
a fuller record (environment, configuration hash, behaviour table) is
written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

from perfbench import config, tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Item  # noqa: E402

RESULTS_DIR = os.path.join(config.HERE, "results")


def run_item(workload, state, i: int) -> Item:
    try:
        return workload.run(state, i)
    except Exception as exc:  # a raising operation is a failed one; keep measuring
        return Item(wall=0.0, ops=0, checked=1, failed=1, problems=[f"{type(exc).__name__}: {exc}"])


def timed_setup(workload, seed: int, times: list[float]):
    gc.collect()
    t0 = perf_counter()
    state = workload.setup(seed)
    times.append(perf_counter() - t0)
    return state


def run_for(workload, state, seconds: float, resetup=None) -> list[Item]:
    """Run items 0, 1, ... for `seconds`, and at least table_items of them.

    Given `resetup`, it is called at even intervals until set-up has run
    SETUP_REPEATS times in all (the first before this call), so the median
    set-up time samples the machine across the run, not in one burst before it.
    """
    items, setups = [], 1
    gc.collect()
    t_start = perf_counter()
    while len(items) < workload.table_items or perf_counter() < t_start + seconds:
        if resetup and setups < config.SETUP_REPEATS and \
                perf_counter() >= t_start + setups * seconds / config.SETUP_REPEATS:
            resetup()
            setups += 1
        items.append(run_item(workload, state, len(items)))
    for _ in range(setups, config.SETUP_REPEATS if resetup else 0):
        resetup()
    return items


def end_to_end(items: list, setup_times: list[float]) -> tuple[dict, dict]:
    """Metric values and, per metric, the count of samples behind it."""
    good = [it for it in items if not it.problems and it.ops > 0]
    per_op_ms = np.array([it.wall / it.ops * 1e3 for it in good]) if good else np.array([np.nan])
    wall = sum(it.wall for it in good)
    ops = sum(it.ops for it in good)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_ms_p50": float(np.percentile(per_op_ms, 50)),
        "op_ms_p90": float(np.percentile(per_op_ms, 90)),
        "ops_per_s": ops / wall if wall > 0 else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setup_times), "op_ms_p50": len(good), "op_ms_p90": len(good),
              "ops_per_s": ops}
    return values, counts


UNITS = {"setup_s": "s", "op_ms_p50": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB",
         "trace.overhead_pct": "%"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("ms") or stat.startswith("ms_"):
        return "ms"
    if stat in ("zero_share", "valid_frac"):
        return "frac"
    if stat == "temp_mb":
        return "MB"
    return "count"


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.THREAD_VARS},
        "git_describe": "unavailable",
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    # the ceiling keeps git from searching above the checkout when it is not a repository
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(bootstrap.ROOT))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"], cwd=bootstrap.ROOT,
                              env=git_env, capture_output=True, text=True, timeout=20)
        if proc.returncode == 0:
            env["git_describe"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    workload = WORKLOADS[args.workload]
    cfg = config.full_config(args.workload, args.seed)
    setup_times: list[float] = []
    state = timed_setup(workload, args.seed, setup_times)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "config_hash": config.config_hash(cfg), "environment": environment()}
    if args.trace:
        items = run_for(workload, state, args.seconds / 2)
        tr = tracer.Tracer()
        gc.collect()
        with tracer.installed(tr) as missing:
            traced = [run_item(workload, state, i) for i in range(len(items))]
        base = sum(it.wall for it in items)
        metrics = tracer.per_layer_metrics(tr)
        metrics["trace.overhead_pct"] = (sum(it.wall for it in traced) - base) / base * 100.0 if base else 0.0
        counts = {}
        for i, (plain, spanned) in enumerate(zip(items, traced)):
            if plain.info != spanned.info:
                spanned.failed += 1
                spanned.problems.append(f"item {i}: traced output differs from the untraced run")
        record["unpatched"] = missing
        record["traffic"] = tracer.traffic(tr)
        items = items + traced
    else:
        items = run_for(workload, state, args.seconds,
                        resetup=lambda: timed_setup(workload, args.seed, setup_times))
        metrics, counts = end_to_end(items, setup_times)
        record["setup_times_s"] = setup_times

    usage = resource.getrusage(resource.RUSAGE_SELF)
    record["rusage"] = {"user_s": usage.ru_utime, "sys_s": usage.ru_stime, "minor_faults": usage.ru_minflt}
    attempted = sum(it.checked for it in items)
    failed = sum(it.failed for it in items)
    problems = [p for it in items for p in it.problems]
    record.update(
        op=workload.op,
        sample=workload.sample,
        items=len(items),
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        problems=problems[:20],
        behaviour=workload.table(items),
        metrics={k: {"value": v, "unit": unit_of(k),
                     **({"samples": counts[k]} if k in counts else {})} for k, v in metrics.items()},
        config=cfg,
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out_path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump(record, f, indent=2, sort_keys=True)
        f.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} config={record['config_hash']} "
          f"git={record['environment']['git_describe']}")
    print(f"  operation: {workload.op}; latency sample: {workload.sample}")
    for name, m in record["metrics"].items():
        n = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{n}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ({failed}/{attempted} outputs checked)")
    for p in problems[:20]:
        print(f"  FAILED: {p}")
    if record.get("unpatched"):
        print(f"  not traced (binding not found): {', '.join(record['unpatched'])}")
    print(f"  behaviour: {json.dumps(record['behaviour'], sort_keys=True)}")
    print(f"  record: {os.path.relpath(out_path, bootstrap.ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

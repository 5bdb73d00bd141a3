"""Span tracing from outside the program, for the benchmark's traced run.

`installed(tracer)` replaces, for the duration of a `with` block, the module
attribute through which each caller in clearnav resolves a layer (for example
`clearnav.planner.mmd_batch`, which `plan` calls) with a wrapper that records
a span: name, start, end and the index of the enclosing span. Spans stay in
memory until the run ends. Counters record the work each call was given
(rows, kernel evaluations, clearance pairs) where it happens.
"""
from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from .checks import OUTCOMES

STATS = ("calls", "ms_p50", "ms_p90", "total_ms", "self_ms")


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self.samples: defaultdict[str, list] = defaultdict(list)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """A callable that runs fn inside a span; count(tracer, args, kwargs, out) tallies work."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self, args, kwargs, out)
            return out

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, median and p90 duration, total and self time (ms)."""
        durations: defaultdict[str, list] = defaultdict(list)
        self_ms: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            durations[name].append(end - start)
            self_ms[name] += own * 1e3
        out = {}
        for name, d in durations.items():
            ms = np.asarray(d) * 1e3
            out[name] = {
                "calls": float(ms.size),
                "ms_p50": float(np.percentile(ms, 50)),
                "ms_p90": float(np.percentile(ms, 90)),
                "total_ms": float(ms.sum()),
                "self_ms": self_ms[name],
            }
        return out


# ---------------------------------------------------------------------------
# Counters: what each traced call was asked to do

def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_mmd(prefix):
    def count(t, args, kwargs, out):
        hbar = np.asarray(_arg(args, kwargs, 0, "hbar"))
        b, n = hbar.reshape(-1, hbar.shape[-1]).shape
        t.counts[prefix + ".kernel_evals"] += 3.0 * b * n * n
        t.counts[prefix + ".zero_samples"] += float(np.count_nonzero(hbar == 0.0))
        t.counts[prefix + ".samples"] += float(hbar.size)

    return count


def _count_clearance(t, args, kwargs, out):
    commands = np.asarray(_arg(args, kwargs, 1, "commands"))
    cloud = np.asarray(_arg(args, kwargs, 2, "cloud_world")).reshape(-1, 2)
    n, h = commands.shape[0], commands.shape[1]
    p = cloud.shape[0]
    pairs = n * (h + 1) * p
    t.counts["model.worst_case_clearance.pairs"] += float(pairs)
    t.maxima["model.worst_case_clearance.temp_mb"] = max(
        t.maxima["model.worst_case_clearance.temp_mb"], pairs * 2 * 8 / 2**20
    )
    t.samples["cloud_points.worst_case_clearance"].append(p)


def _count_predict(t, args, kwargs, out):
    t.counts["model.predict_batch.rows"] += float(np.atleast_2d(_arg(args, kwargs, 2, "u_flat")).shape[0])


def _count_rollout(t, args, kwargs, out):
    t.counts["dynamics.rollout_batch.rows"] += float(np.shape(_arg(args, kwargs, 1, "commands"))[0])


def _count_standardize(t, args, kwargs, out):
    t.samples["cloud_points.scan"].append(np.asarray(_arg(args, kwargs, 0, "cloud")).reshape(-1, 2).shape[0])


def _count_episode(t, args, kwargs, out):
    t.counts["bench.run_episode.outcome." + out.result] += 1.0


def _wrap_plan(t: Tracer, fn):
    """planner.plan, with its predictor wrapped to count finite predictions."""

    def predictor_counter(predictor):
        def counted(u_flat):
            mu, sigma, lam = predictor(u_flat)
            finite = np.isfinite(mu) & np.isfinite(sigma) & np.isfinite(lam)
            t.counts["planner.plan.valid"] += float(np.count_nonzero(finite))
            t.counts["planner.plan.candidates"] += float(np.size(mu))
            return mu, sigma, lam

        return counted

    def plan(state, predictor, *args, **kwargs):
        return fn(state, predictor_counter(predictor), *args, **kwargs)

    return t.wrap("planner.plan", plan)


def _wrap_count_only(t: Tracer, name: str, fn):
    def counted(*args, **kwargs):
        t.counts[name] += 1.0
        return fn(*args, **kwargs)

    return counted


# (module, attribute, span name, counter); one entry per caller-side binding
SPANS = (
    ("clearnav.planner", "mmd_batch", "risk.mmd_batch", _count_mmd("risk.mmd_batch")),
    ("clearnav.training", "mmd_batch_grad", "risk.mmd_batch_grad", _count_mmd("risk.mmd_batch_grad")),
    ("clearnav.model", "worst_case_clearance", "model.worst_case_clearance", _count_clearance),
    ("clearnav.data", "worst_case_clearance", "model.worst_case_clearance", _count_clearance),
    ("clearnav.bench", "predict_batch", "model.predict_batch", _count_predict),
    ("clearnav.model.PolarFeaturizer", "featurize", "model.PolarFeaturizer.featurize", None),
    ("clearnav.dynamics", "rollout_batch", "dynamics.rollout_batch", _count_rollout),
    ("clearnav.planner", "rollout_batch", "dynamics.rollout_batch", _count_rollout),
    ("clearnav.bench", "mpc_step", "planner.mpc_step", None),
    ("clearnav.planner", "estimated_scan", "world.estimated_scan", None),
    ("clearnav.data", "estimated_scan", "world.estimated_scan", None),
    ("clearnav.bench", "raycast_scan", "world.raycast_scan", None),
    ("clearnav.data", "raycast_scan", "world.raycast_scan", None),
    ("clearnav.planner", "standardize_cloud", "world.standardize_cloud", _count_standardize),
    ("clearnav.data", "standardize_cloud", "world.standardize_cloud", _count_standardize),
    ("clearnav.bench", "run_episode", "bench.run_episode", _count_episode),
    ("clearnav.data", "generate_dataset", "data.generate_dataset", None),
    ("clearnav.data", "sample_free_pose", "data.sample_free_pose", None),
    ("clearnav.training", "loss_and_grad", "training.loss_and_grad", None),
    ("clearnav.training", "evaluate", "training.evaluate", None),
    ("clearnav.training", "build_inputs", "training.build_inputs", None),
    ("clearnav.training", "train", "training.train", None),
)
PLAN_SPAN = ("clearnav.planner", "plan", "planner.plan")
COUNT_ONLY = (
    ("clearnav.bench", "true_clearance", "world.true_clearance.calls"),
    ("clearnav.data", "true_clearance", "world.true_clearance.calls"),
)
SPAN_NAMES = tuple(dict.fromkeys([s[2] for s in SPANS] + [PLAN_SPAN[2]]))


def _resolve(path: str):
    """Import a module, or a class inside one ("pkg.module.Class")."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(mod), attr)


@contextmanager
def installed(tracer: Tracer):
    """Patch every traced binding for the block; yields the bindings not found."""
    patches, missing = [], []
    targets = [(m, a, lambda fn, n=n, c=c: tracer.wrap(n, fn, c)) for m, a, n, c in SPANS]
    targets.append((PLAN_SPAN[0], PLAN_SPAN[1], lambda fn: _wrap_plan(tracer, fn)))
    targets += [(m, a, lambda fn, n=n: _wrap_count_only(tracer, n, fn)) for m, a, n in COUNT_ONLY]
    try:
        for owner_path, attr, make in targets:
            owner = _resolve(owner_path)
            original = owner.__dict__.get(attr)
            if original is None:
                missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, make(original))
            patches.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flatten spans and counters into `<module>.<function>.<stat>` values.

    Layers the workload never called read 0.
    """
    stats = tracer.layer_stats()
    out = {}
    for name in SPAN_NAMES:
        s = stats.get(name, {})
        for stat in STATS:
            out[f"{name}.{stat}"] = s.get(stat, 0.0)
    c, m = tracer.counts, tracer.maxima
    out["risk.mmd_batch.kernel_evals"] = c["risk.mmd_batch.kernel_evals"]
    out["risk.mmd_batch_grad.kernel_evals"] = c["risk.mmd_batch_grad.kernel_evals"]
    for prefix in ("risk.mmd_batch", "risk.mmd_batch_grad"):
        n = c[prefix + ".samples"]
        out[prefix + ".zero_share"] = c[prefix + ".zero_samples"] / n if n else 0.0
    out["model.worst_case_clearance.pairs"] = c["model.worst_case_clearance.pairs"]
    out["model.worst_case_clearance.temp_mb"] = m["model.worst_case_clearance.temp_mb"]
    out["model.predict_batch.rows"] = c["model.predict_batch.rows"]
    out["dynamics.rollout_batch.rows"] = c["dynamics.rollout_batch.rows"]
    cand = c["planner.plan.candidates"]
    out["planner.plan.valid_frac"] = c["planner.plan.valid"] / cand if cand else 0.0
    out["world.true_clearance.calls"] = c["world.true_clearance.calls"]
    for outcome in OUTCOMES:
        out[f"bench.run_episode.outcome.{outcome}"] = c[f"bench.run_episode.outcome.{outcome}"]
    return out


def traffic(tracer: Tracer) -> dict:
    """Input properties the layer timings depend on, for the informational record."""
    out = {}
    for key, values in tracer.samples.items():
        v = np.asarray(values, dtype=float)
        out[key] = {"n": int(v.size), "min": float(v.min()), "p50": float(np.median(v)), "max": float(v.max())}
    for prefix in ("risk.mmd_batch", "risk.mmd_batch_grad"):
        n = tracer.counts[prefix + ".samples"]
        if n:
            out[prefix + ".zero_share"] = tracer.counts[prefix + ".zero_samples"] / n
    return out

"""Tests of the benchmark's own code: output checks, tracing, and its refusal to run without sources.

Run from the root of the repository: python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from clearnav import bench, data, dynamics, model, planner
from clearnav.dynamics import RobotState
from clearnav.world import Box, Circle, World
from perfbench import checks, config, tracer, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def small_world() -> World:
    return World((Circle(4.0, 4.0, 0.5), Box(6.0, 2.0, 6.5, 3.0)), (0.0, 0.0, 10.0, 8.0),
                 RobotState(1.5, 4.0, 0.0), (8.8, 4.0))


def fast_planner() -> planner.PlannerConfig:
    return planner.PlannerConfig(iterations=3, samples=32, risk_elites=16, elites=4, risk_draws=10, seed=0)


def good_outcome():
    return SimpleNamespace(
        result="timeout",
        commands=np.array([[0.5, 0.2], [1.0, -1.0], [0.0, 1.0]]),
        trace={"mu": np.array([0.4, 0.5]), "sigma": np.array([0.1, 0.2]), "lam": np.array([0.1, 0.1])},
    )


class TestSegmentCheck:
    def test_accepts_valid_segment(self):
        assert checks.check_segment(good_outcome()) == []

    @pytest.mark.parametrize("row, col, value", [(0, 0, 1.5), (1, 0, -0.01), (2, 1, -1.2), (0, 1, np.nan)])
    def test_catches_bad_command(self, row, col, value):
        out = good_outcome()
        out.commands[row, col] = value
        assert checks.check_segment(out)

    @pytest.mark.parametrize("key, value", [("sigma", 0.0), ("lam", -1.0), ("mu", np.inf)])
    def test_catches_bad_planner_view(self, key, value):
        out = good_outcome()
        out.trace[key][0] = value
        assert checks.check_segment(out)

    def test_catches_unknown_result(self):
        out = good_outcome()
        out.result = "lost"
        assert checks.check_segment(out)


class TestLabelCheck:
    @pytest.fixture(scope="class")
    def labelled(self):
        world = small_world()
        ds = data.generate_dataset([world], 2, np.random.default_rng(3), config.SENSOR,
                                   d_o=0.3, horizon=20, dt=0.1, sequences_per_snapshot=6)
        return ds, [world]

    def check(self, ds, worlds):
        return checks.check_labels(ds, worlds, 2, config.SENSOR, range(len(ds)), config.LABEL_TOLERANCE_M)

    def test_reference_agrees_with_labels(self, labelled):
        ds, worlds = labelled
        assert self.check(ds, worlds) == []

    def test_catches_corrupted_label(self, labelled):
        ds, worlds = labelled
        saved = ds.clearance.copy()
        try:
            ds.clearance[4] += 1e-3
            problems = self.check(ds, worlds)
        finally:
            ds.clearance[:] = saved
        assert len(problems) == 1 and problems[0].startswith("label 4:")

    def test_reference_matches_program_on_random_input(self):
        rng = np.random.default_rng(0)
        state = RobotState(1.0, -2.0, 0.7)
        cmd = np.column_stack([rng.uniform(0, 1, 15), rng.uniform(-1, 1, 15)])
        cloud = rng.uniform(-3, 3, (40, 2))
        got = model.worst_case_clearance(state, cmd[None], cloud, 0.1, 5.0)[0]
        assert abs(got - checks.reference_clearance(state, cmd, cloud, 0.1, 5.0)) < 1e-12
        assert checks.reference_clearance(state, cmd, np.empty((0, 2)), 0.1, 5.0) == 5.0


def test_training_check_catches_nonfinite_loss():
    row = SimpleNamespace(epoch=0, nll=1.0, ce=float("nan"), holdout_accuracy=0.5, mean_sigma=0.1,
                          median_sigma=0.1)
    assert checks.check_training(SimpleNamespace(log=SimpleNamespace(rows=[row])))
    row.ce = 0.3
    assert checks.check_training(SimpleNamespace(log=SimpleNamespace(rows=[row]))) == []


class TestTracing:
    def run_traced(self, method: str):
        tr = tracer.Tracer()
        originals = (planner.plan, bench.mpc_step, dynamics.rollout_batch, model.PolarFeaturizer.featurize)
        models = workloads.load_models() if method == "augmented" else {}
        ep = bench.EpisodeConfig(timeout_s=1.0)
        with tracer.installed(tr) as missing:
            out = bench.run_episode(small_world(), method, 5, config.SENSOR, fast_planner(), ep, models)
        assert missing == []
        assert (planner.plan, bench.mpc_step, dynamics.rollout_batch,
                model.PolarFeaturizer.featurize) == originals
        return tr, out

    @pytest.mark.parametrize("method", ["oracle", "augmented"])
    def test_spans_nest_and_self_time_is_nonnegative(self, method):
        tr, out = self.run_traced(method)
        assert len(tr.spans) > 10
        for name, start, end, parent in tr.spans:
            assert start <= end
            if parent >= 0:
                _, p_start, p_end, _ = tr.spans[parent]
                assert p_start <= start and end <= p_end, name
        assert min(tr.self_times()) >= 0.0
        stats = tr.layer_stats()
        assert all(s["self_ms"] >= 0.0 and s["self_ms"] <= s["total_ms"] for s in stats.values())
        assert stats["bench.run_episode"]["calls"] == 1
        assert stats["planner.mpc_step"]["calls"] == stats["planner.plan"]["calls"] == 2

    def test_clearance_rollouts_nest_under_clearance(self):
        tr, _ = self.run_traced("oracle")
        names = [s[0] for s in tr.spans]
        nested = [s for s in tr.spans if s[0] == "dynamics.rollout_batch" and s[3] >= 0]
        assert any(names[s[3]] == "model.worst_case_clearance" for s in nested)
        m = tracer.per_layer_metrics(tr)
        assert m["model.worst_case_clearance.calls"] == 6  # 2 plan calls x 3 iterations
        assert m["planner.plan.valid_frac"] == 1.0
        assert m["bench.run_episode.outcome.timeout"] + m["bench.run_episode.outcome.collided"] + \
            m["bench.run_episode.outcome.reached"] == 1
        assert m["risk.mmd_batch.kernel_evals"] == 6 * 3 * 32 * 10 * 10


def test_stored_weights_refused_on_hash_mismatch(tmp_path, monkeypatch):
    for name in os.listdir(config.WEIGHTS_DIR):
        shutil.copy(os.path.join(config.WEIGHTS_DIR, name), tmp_path / name)
    assert set(workloads.load_models()) == {"augmented", "baseline_nll"}
    blob = bytearray((tmp_path / "augmented.npz").read_bytes())
    blob[-1] ^= 1
    (tmp_path / "augmented.npz").write_bytes(bytes(blob))
    monkeypatch.setattr(config, "WEIGHTS_DIR", str(tmp_path))
    with pytest.raises(ValueError, match="sha256"):
        workloads.load_models()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)[section]}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "label", "--seed", "4",
                           "--seconds", "1", "--trace", str(trace)], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "label", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "no clearnav sources" in proc.stderr

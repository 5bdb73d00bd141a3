from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO = os.path.join(ROOT, "scripts", "single_obstacle_demo.py")
ABLATION = os.path.join(ROOT, "scripts", "run_ablation.py")
WEIGHTS = os.path.join(ROOT, "perfbench", "weights", "augmented.npz")
BASELINE_WEIGHTS = os.path.join(ROOT, "perfbench", "weights", "baseline_nll.npz")


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args, code, last_line", [
    (["--method", "nonsense"], 2, "clearnav episode: error: argument --method: invalid choice: 'nonsense' ("),
    (["--method", "baseline_nll"], 1,
     "method 'baseline_nll' needs a 'baseline_nll' checkpoint: give it with --baseline-checkpoint"),
    (["--seed", "-1"], 2, "clearnav episode: error: argument --seed: expected an integer >= 0, got '-1'"),
], ids=["unknown-method", "no-baseline-checkpoint", "negative-seed"])
def test_demo_refuses_a_bad_flag_in_one_line(tmp_path, args, code, last_line):
    proc = run(DEMO, "--checkpoint", WEIGHTS, "--out", str(tmp_path), *args)
    assert proc.returncode == code and "Traceback" not in proc.stderr
    assert proc.stderr.endswith("\n") and proc.stderr.splitlines()[-1].startswith(last_line)
    assert not (tmp_path / "augmented.csv").exists()


def test_demo_refuses_a_missing_checkpoint_in_one_line(tmp_path):
    missing = tmp_path / "missing.npz"
    proc = run(DEMO, "--checkpoint", str(missing), "--out", str(tmp_path))
    assert proc.returncode == 1 and proc.stderr == f"{missing}: No such file or directory\n"


def test_ablation_refuses_zero_workers_in_one_line(tmp_path):
    proc = run(ABLATION, "--out", str(tmp_path / "ablation"), "--workers", "0")
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    last_line = "run_ablation.py: error: argument --workers: expected an integer >= 1, got '0'"
    assert proc.stderr.endswith(f"{last_line}\n")
    assert not (tmp_path / "ablation").exists()


@pytest.mark.parametrize("method, args", [
    ("augmented", ["--checkpoint", WEIGHTS]),
    ("baseline_nll", ["--method", "baseline_nll", "--baseline-checkpoint", BASELINE_WEIGHTS]),
], ids=["augmented", "baseline_nll"])
def test_demo_writes_the_trace_and_the_replay(tmp_path, method, args):
    # every flag but --method and --out goes to `clearnav episode` as it is
    proc = run(DEMO, "--out", str(tmp_path), *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"{method}: ")
    with open(tmp_path / f"{method}.csv") as f:
        assert f.readline() == "t,x,y,psi,v,omega,mu,sigma,lam,risk,true_clearance\n"
    with open(tmp_path / f"{method}_replay.json") as f:
        replay = json.load(f)
    assert replay["method"] == method and replay["seed"] == 7

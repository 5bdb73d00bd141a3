from __future__ import annotations

import json
import os

import numpy as np
import pytest

from clearnav.cli import main
from clearnav.data import ClearanceDataset
from clearnav.dynamics import RobotState
from clearnav.world import Circle, NoiseModel, SensorConfig, World, save_scenario


@pytest.fixture
def scenario_file(tmp_path, circle_world):
    path = tmp_path / "scenario.json"
    save_scenario(path, circle_world, SensorConfig(noise=NoiseModel()), seed=4)
    return str(path)


@pytest.fixture
def planner_file(tmp_path):
    path = tmp_path / "planner.json"
    cfg = dict(iterations=5, samples=64, risk_elites=16, elites=6, risk_draws=15, seed=0)
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_data_and_train(tmp_path):
    data_path = str(tmp_path / "tiny.npz")
    rc = main(
        ["gen-data", "--out", data_path, "--worlds", "2", "--snapshots-per-world", "3", "--seed", "1"]
    )
    assert rc == 0 and os.path.exists(data_path)
    ds = ClearanceDataset.load(data_path)
    assert len(ds) == 300  # 2 worlds * 3 snapshots * 50 sequences

    ckpt = str(tmp_path / "model.npz")
    rc = main(["train", "--data", data_path, "--mode", "baseline", "--out", ckpt, "--epochs", "2"])
    assert rc == 0 and os.path.exists(ckpt)
    assert os.path.exists(str(tmp_path / "model_log.csv"))


def test_episode_and_replay(tmp_path, scenario_file, planner_file):
    out_dir = str(tmp_path / "traces")
    rc = main(
        [
            "episode", "--scenario", scenario_file, "--method", "oracle",
            "--planner-config", planner_file, "--out", out_dir,
        ]
    )
    assert rc == 0
    replay = os.path.join(out_dir, "oracle_replay.json")
    assert os.path.exists(os.path.join(out_dir, "oracle.csv"))
    assert os.path.exists(replay)

    states_csv = str(tmp_path / "states.csv")
    rc = main(["replay", "--replay", replay, "--out", states_csv])
    assert rc == 0 and os.path.exists(states_csv)


def test_episode_rejects_blocked_start(tmp_path, planner_file):
    # start 0.1 m from an obstacle, inside the 0.3 m robot radius
    world = World((Circle(1.0, 0.0, 0.9),), (-5.0, -5.0, 5.0, 5.0), RobotState(0, 0, 0), (4.0, 0.0))
    path = tmp_path / "blocked.json"
    save_scenario(path, world, SensorConfig(noise=NoiseModel()), seed=0)
    out_dir = tmp_path / "traces"
    with pytest.raises(SystemExit, match=r"blocked\.json: start is within robot radius"):
        main(["episode", "--scenario", str(path), "--planner-config", planner_file, "--out", str(out_dir)])
    assert not out_dir.exists()


def test_bench_command(tmp_path, planner_file):
    out_dir = str(tmp_path / "bench")
    rc = main(
        [
            "bench", "--methods", "oracle", "--episodes", "2", "--seed", "3",
            "--planner-config", planner_file, "--no-noise", "--out", out_dir,
        ]
    )
    assert rc == 0
    with open(os.path.join(out_dir, "report.json")) as f:
        report = json.load(f)
    assert report["episodes"] == 2
    assert "oracle" in report["methods"]


def test_bench_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "--methods", "bogus", "--episodes", "1", "--out", str(tmp_path)])

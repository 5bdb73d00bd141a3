from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import clearnav.cli
from clearnav.bench import model_from_checkpoint, suite_worlds
from clearnav.cli import main
from clearnav.data import ClearanceDataset
from clearnav.dynamics import RobotState
from clearnav.model import ModelParams, save_checkpoint
from clearnav.world import Circle, NoiseModel, SensorConfig, World, save_scenario, world_to_dict

from test_bench import META, replay_doc
from test_world import MALFORMED_SCENARIOS, scenario_doc


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


def test_train_on_a_refused_dataset_exits_with_the_loaders_message(tmp_path):
    path = tmp_path / "old.npz"
    np.savez(path, version=np.array(1))
    # the loader's message names the file once; the command adds nothing to it
    with pytest.raises(SystemExit, match=rf"^{path}: dataset version 1, expected 3; "
                                         "regenerate it with clearnav gen-data$"):
        main(["train", "--data", str(path), "--out", str(tmp_path / "model.npz"), "--epochs", "1"])
    assert not (tmp_path / "model.npz").exists()


def test_gen_data_labels_no_world_of_the_benchmark_suite(tmp_path, monkeypatch):
    labelled = []

    def record(worlds, *args, **kwargs):
        labelled.extend(worlds)
        raise SystemExit(0)

    monkeypatch.setattr(clearnav.cli, "generate_dataset", record)
    with pytest.raises(SystemExit):
        main(["gen-data", "--out", str(tmp_path / "d.npz"), "--worlds", "12", "--snapshots-per-world", "1"])
    # `clearnav bench` with the same seed runs the suite's first worlds
    suite = {json.dumps(world_to_dict(w)) for w in suite_worlds(12, 0)}
    assert len(labelled) == 12 and suite.isdisjoint(json.dumps(world_to_dict(w)) for w in labelled)


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_missing_out_directory_exits_before_the_work(tmp_path, monkeypatch, command):
    def work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(clearnav.cli, "generate_dataset", work)
    monkeypatch.setattr(clearnav.cli, "train", work)
    out = tmp_path / "missing" / "out.npz"
    # the dataset does not exist either: the output path is checked first
    args = {"gen-data": ["gen-data", "--worlds", "1", "--snapshots-per-world", "1"],
            "train": ["train", "--data", str(tmp_path / "data.npz"), "--epochs", "1"]}[command]
    with pytest.raises(SystemExit, match=rf"^{re.escape(str(out))}: directory "
                                         rf"{re.escape(str(out.parent))} does not exist$"):
        main(args + ["--out", str(out)])


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


@pytest.mark.parametrize("command, flag, value, expected", [
    ("bench", "--episodes", "0", "an integer >= 1"),
    ("bench", "--workers", "0", "an integer >= 1"),
    ("bench", "--workers", "-3", "an integer >= 1"),
    ("gen-data", "--worlds", "0", "an integer >= 1"),
    ("gen-data", "--snapshots-per-world", "0", "an integer >= 1"),
    ("gen-data", "--d-o", "0", "a finite number > 0"),
    ("gen-data", "--d-o", "-1", "a finite number > 0"),
    ("gen-data", "--d-o", "nan", "a finite number > 0"),
    ("gen-data", "--d-o", "inf", "a finite number > 0"),
    ("train", "--epochs", "0", "an integer >= 1"),
    ("gen-data", "--seed", "-1", "an integer >= 0"),
    ("train", "--seed", "-1", "an integer >= 0"),
    ("episode", "--seed", "-1", "an integer >= 0"),
    ("bench", "--seed", "-1", "an integer >= 0"),
    # a choice (expected None): the library mode that only a sigma_penalty > 0, which no flag
    # sets, tells from baseline
    ("train", "--mode", "nll_sigma_penalty", None),
])
def test_bad_count_or_radius_is_one_usage_error_naming_the_flag(tmp_path, capsys, planner_file,
                                                                scenario_file, command, flag, value,
                                                                expected):
    out = tmp_path / "out"
    # valid small values first, so that a flag let through does little work
    args = {"bench": ["--methods", "oracle", "--episodes", "1", "--planner-config", planner_file],
            "gen-data": ["--worlds", "1", "--snapshots-per-world", "1"],
            "train": ["--data", str(tmp_path / "data.npz")],
            "episode": ["--scenario", scenario_file, "--planner-config", planner_file]}[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *args, "--out", str(out), flag, value])
    assert exit_info.value.code == 2 and not out.exists()
    err = capsys.readouterr().err
    prefix = f"clearnav {command}: error: argument {flag}: "
    if expected is None:  # argparse lists the choices differently across Python versions
        assert err.endswith("\n") and err.splitlines()[-1].startswith(f"{prefix}invalid choice: {value!r} (")
    else:
        assert err.endswith(f"{prefix}expected {expected}, got {value!r}\n")
    assert "Traceback" not in err


def test_bench_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit):
        main(["bench", "--methods", "bogus", "--episodes", "1", "--out", str(tmp_path)])


def test_bench_rejects_repeated_method(tmp_path):
    with pytest.raises(SystemExit, match="'oracle' is listed twice"):
        main(["bench", "--methods", "oracle,oracle", "--episodes", "1", "--out", str(tmp_path)])


@pytest.mark.parametrize("method, flag", [("det", "--checkpoint"), ("augmented", "--checkpoint"),
                                          ("baseline_nll", "--baseline-checkpoint")])
def test_learned_method_without_checkpoint_names_the_flag(tmp_path, scenario_file, method, flag):
    out_dir = tmp_path / "traces"
    with pytest.raises(SystemExit, match=f"method {method!r} needs .* give it with {flag}$"):
        main(["episode", "--scenario", scenario_file, "--method", method, "--out", str(out_dir)])
    with pytest.raises(SystemExit, match=f"method {method!r} needs .* give it with {flag}$"):
        main(["bench", "--methods", f"oracle,{method}", "--episodes", "1", "--out", str(tmp_path)])
    assert not out_dir.exists()


@pytest.mark.parametrize("arrays, message", [
    pytest.param({"hidden": np.array(64)}, "arrays: missing key 'version'", id="no-version"),
    pytest.param({"version": np.array(9)}, "checkpoint version 9, expected 1", id="version-9"),
])
@pytest.mark.parametrize("command", ["episode", "bench"])
def test_refused_checkpoint_exits_with_the_loaders_line(tmp_path, scenario_file, planner_file, command,
                                                       arrays, message):
    path = tmp_path / "model.npz"
    np.savez(path, **arrays)
    args = (["episode", "--scenario", scenario_file, "--method", "augmented"] if command == "episode"
            else ["bench", "--methods", "oracle,augmented", "--episodes", "1"])
    with pytest.raises(SystemExit, match=rf"^{re.escape(str(path))}: {message}$"):
        main(args + ["--checkpoint", str(path), "--planner-config", planner_file,
                     "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_bench_reads_each_checkpoint_once(tmp_path, monkeypatch, planner_file):
    # each checkpoint is deleted once read: a second read, in this process or a worker, fails
    paths = {}
    for name in ("augmented", "baseline_nll"):
        paths[name] = tmp_path / f"{name}.npz"
        save_checkpoint(paths[name], ModelParams.init(np.random.default_rng(0), 34, 50, 8), None, META)
    loads = []

    def load_and_delete(path):
        loads.append(path)
        model = model_from_checkpoint(path)
        os.remove(path)
        return model

    monkeypatch.setattr(clearnav.cli, "model_from_checkpoint", load_and_delete)
    out_dir = tmp_path / "bench"
    rc = main(["bench", "--methods", "augmented,baseline_nll,det", "--episodes", "1", "--workers", "2",
               "--checkpoint", str(paths["augmented"]), "--baseline-checkpoint", str(paths["baseline_nll"]),
               "--planner-config", planner_file, "--out", str(out_dir)])
    assert rc == 0 and sorted(loads) == sorted(map(str, paths.values()))
    with open(out_dir / "report.json") as f:
        assert len(json.load(f)["outcomes"]) == 3


@pytest.mark.parametrize("change, message", MALFORMED_SCENARIOS)
def test_episode_exits_naming_the_scenario_and_the_key(tmp_path, planner_file, change, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario_doc(**change)))
    out_dir = tmp_path / "traces"
    with pytest.raises(SystemExit, match=rf"^.*bad\.json: {message}$"):
        main(["episode", "--scenario", str(path), "--planner-config", planner_file, "--out", str(out_dir)])
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["episode", "bench"])
def test_planner_config_unknown_key_exits_naming_the_file(tmp_path, scenario_file, command):
    path = tmp_path / "planner.json"
    path.write_text(json.dumps({"iteration": 5}))
    args = (["episode", "--scenario", scenario_file] if command == "episode"
            else ["bench", "--methods", "oracle", "--episodes", "1"])
    with pytest.raises(SystemExit, match=r"planner\.json: planner config: unknown key 'iteration'$"):
        main(args + ["--planner-config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["episode", "bench"])
def test_planner_config_non_finite_value_exits_naming_the_file(tmp_path, scenario_file, command):
    # json reads NaN: refused when the config is read, not mid-plan
    path = tmp_path / "planner.json"
    path.write_text('{"w_risk": NaN}')
    args = (["episode", "--scenario", scenario_file] if command == "episode"
            else ["bench", "--methods", "oracle", "--episodes", "1"])
    with pytest.raises(SystemExit, match=r"planner\.json: PlannerConfig\.w_risk must be finite$"):
        main(args + ["--planner-config", str(path), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def write_unreadable(path, kind: str) -> None:
    """Put at `path` a file that is not a readable npz archive: text, a .npy array, the
    first 200 bytes of an archive, or (kind "missing") nothing."""
    if kind == "text":
        path.write_text("hello\n")
    elif kind == "npy":
        with open(path, "wb") as f:
            np.save(f, np.zeros(3))
    elif kind == "truncated":
        np.savez(path, version=np.array(1), w1=np.zeros(64))
        path.write_bytes(path.read_bytes()[:200])


@pytest.mark.parametrize("kind", ["text", "npy", "truncated", "missing"])
@pytest.mark.parametrize("command", ["train", "episode", "bench"])
def test_unreadable_file_exits_in_one_line_naming_it(tmp_path, scenario_file, planner_file, command, kind):
    path = tmp_path / "bad.npz"
    write_unreadable(path, kind)
    reason = "No such file or directory" if kind == "missing" else "not a readable npz archive"
    args = {"train": ["train", "--data", str(path), "--epochs", "1"],
            "episode": ["episode", "--scenario", scenario_file, "--method", "augmented",
                        "--checkpoint", str(path), "--planner-config", planner_file],
            "bench": ["bench", "--methods", "oracle,augmented", "--episodes", "1",
                      "--checkpoint", str(path), "--planner-config", planner_file]}[command]
    with pytest.raises(SystemExit, match=rf"^{re.escape(str(path))}: {reason}$"):
        main(args + ["--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_console_refusal_is_one_stderr_line(tmp_path):
    path = tmp_path / "notzip.npz"
    write_unreadable(path, "text")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "clearnav.cli", "train", "--data", str(path),
                           "--out", str(tmp_path / "model.npz")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"{path}: not a readable npz archive\n"


@pytest.mark.parametrize("change, message", [
    pytest.param({"dt": None}, "replay: missing key 'dt'", id="no-dt"),
    pytest.param({"commands": [[0.5]]}, r"replay: commands must be a finite \(n, 2\) array", id="one-entry"),
])
def test_replay_exits_in_one_line_naming_the_file(tmp_path, change, message):
    path = tmp_path / "run_replay.json"
    path.write_text(json.dumps(replay_doc(**change)))
    with pytest.raises(SystemExit, match=rf"^{re.escape(str(path))}: {message}$"):
        main(["replay", "--replay", str(path), "--out", str(tmp_path / "states.csv")])
    assert not (tmp_path / "states.csv").exists()

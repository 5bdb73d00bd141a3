from __future__ import annotations

import math
from dataclasses import astuple, fields

import numpy as np
import pytest

import clearnav.data
from clearnav.bench import suite_worlds
from clearnav.data import ClearanceDataset, generate_dataset, sample_free_pose
from clearnav.dynamics import RobotState
from clearnav.model import ModelParams, RiskHeadParams, forward_batch
from clearnav.planner import PlannerConfig, PlanningError, plan
from clearnav.risk import draw_dirac_samples, mmd_batch, residual
from clearnav.training import (
    BatchNoise,
    TrainConfig,
    TrainingDiverged,
    _forward,
    build_inputs,
    evaluate,
    finite_difference_check,
    loss_and_grad,
    risk_head_forward,
    train,
)
from clearnav.world import Box, Circle, NoiseModel, SensorConfig, World, true_clearance


def small_dataset(seed=0, n_worlds=3, snaps=4, seqs=25, open_arena=False):
    """With open_arena the last world has no obstacles and walls beyond the sensor's
    range, so its snapshots hold empty scans."""
    worlds = [
        World(
            (Circle(3.0, 1.0, 0.5), Box(1.5, -2.0, 2.4, -1.0)),
            (-1.0, -4.0, 7.0, 4.0),
            RobotState(0.0, 0.0, 0.0),
            (6.0, 0.0),
        )
        for _ in range(n_worlds)
    ]
    if open_arena:
        worlds[-1] = World((), (-30.0, -30.0, 30.0, 30.0), RobotState(0.0, 0.0, 0.0), (6.0, 0.0))
    sensor = SensorConfig(noise=NoiseModel(range_bias_scale=0.2, additive_sigma=0.04, dropout_prob=0.05))
    return generate_dataset(
        worlds, snaps, np.random.default_rng(seed), sensor, sequences_per_snapshot=seqs, seed=seed
    )


def constant_params(mu, sigma, lam):
    """A zero-weight network on 4 inputs whose (mu, sigma, lam) are the same for every input."""
    params = ModelParams.init(np.random.default_rng(0), 2, 1, 8).zeros_like()
    params.b3[:] = [mu, math.log(math.expm1(sigma)), math.log(math.expm1(lam - 1e-3))]
    return params


def zero_risk_head():
    return RiskHeadParams.init(np.random.default_rng(0), 16).zeros_like()


class ZeroNormalRng:
    """Stands in for the evaluation rng: every reparameterization draw is 0."""

    def standard_normal(self, size):
        return np.zeros(size)


class TestGenerateDataset:
    def test_straight_to_wall_against_double_loop(self, step_chain):
        # single wall 2 m ahead; label must equal exhaustive (k, point) search
        world = World((Box(2.0, -3.0, 2.5, 3.0),), (-5, -5, 10, 5), RobotState(0, 0, 0), (5, 0))
        sensor = SensorConfig()
        ds = generate_dataset([world], 2, np.random.default_rng(0), sensor, seed=0)
        from clearnav.world import body_to_world, raycast_scan

        for i in range(0, len(ds), 17):
            state = RobotState(*ds.states[ds.snapshot[i]])
            cloud_world = body_to_world(raycast_scan(state, world, sensor), state)
            if cloud_world.shape[0] == 0:
                assert ds.clearance[i] == sensor.max_range  # nothing visible -> capped
                continue
            xy = step_chain(state, ds.controls[i], ds.dt)[:, :2]
            brute = min(math.hypot(px - cx, py - cy) for px, py in xy for cx, cy in cloud_world)
            assert ds.clearance[i] == pytest.approx(brute, abs=1e-9)

    def test_zero_velocity_distance_to_nearest(self):
        world = World((Circle(2.0, 0.0, 0.5),), (-5, -5, 10, 5), RobotState(0, 0, 0), (5, 0))
        sensor = SensorConfig()
        from clearnav.model import worst_case_clearance
        from clearnav.world import body_to_world, raycast_scan

        state = RobotState(0.0, 0.2, 0.1)
        cloud_world = body_to_world(raycast_scan(state, world, sensor), state)
        d = worst_case_clearance(state, np.zeros((1, 50, 2)), cloud_world, 0.1, 5.0)
        nearest = np.hypot(*(cloud_world - state.position).T).min()
        assert d[0] == pytest.approx(nearest)

    def test_label_rule(self, monkeypatch):
        # safe (class 1) when -clearance + d_o <= 0; the boundary is safe
        def fixed_clearance(state, commands, cloud, dt, cap):
            return np.array([0.5, 0.2, 0.3])

        monkeypatch.setattr(clearnav.data, "worst_case_clearance", fixed_clearance)
        world = World((), (-5, -5, 5, 5), RobotState(0, 0, 0), (1, 1))
        ds = generate_dataset(
            [world], 1, np.random.default_rng(0), SensorConfig(), d_o=0.3,
            sequences_per_snapshot=3, seed=0,
        )
        assert np.array_equal(ds.safe, [1, 0, 1])

    def test_every_sample_satisfies_label_invariant(self):
        ds = small_dataset()
        assert ds.safe.dtype == np.uint8
        assert np.array_equal(ds.safe, (-ds.clearance + ds.d_o <= 0.0).astype(np.uint8))

    def test_sharing_and_shapes(self):
        ds = small_dataset(open_arena=True)
        assert len(ds) == ds.snapshot.shape[0] == ds.controls.shape[0]
        # one cloud per snapshot, not per sample: samples 0 and 24 share one
        assert ds.counts.shape == (ds.n_snapshots,) and ds.n_snapshots == len(ds) // 25
        assert ds.snapshot[0] == ds.snapshot[24]
        # the scans as the sensor returned them, one after another: the open arena's are empty
        assert ds.points.shape == (ds.counts.sum(), 2) and ds.counts.dtype.kind == "i"
        assert (ds.counts[:8] > 0).all() and (ds.counts[8:] == 0).all()

    def test_round_trip(self, tmp_path):
        ds = small_dataset(open_arena=True)
        assert (ds.counts == 0).any()
        path = tmp_path / "data.npz"
        ds.save(path)
        ds2 = ClearanceDataset.load(path)
        for f in fields(ClearanceDataset):
            a, b = getattr(ds2, f.name), getattr(ds, f.name)
            assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype, f.name
            assert type(a) is type(b), f.name
        assert np.array_equal(ds2.safe, ds.safe)

    def test_no_free_space_warns_and_skips(self):
        blocked = World(
            (Box(-5.0, -5.0, 5.0, 5.0),), (-5, -5, 5, 5), RobotState(0, 0, 0), (1, 1)
        )
        open_world = World((), (-5, -5, 5, 5), RobotState(0, 0, 0), (1, 1))
        with pytest.warns(UserWarning, match="free space"):
            ds = generate_dataset(
                [blocked, open_world], 2, np.random.default_rng(0), SensorConfig(), seed=0
            )
        assert ds.n_snapshots == 2

    @pytest.mark.parametrize("d_o", [0.0, -1.0, math.nan, math.inf])
    def test_radius_not_finite_and_positive_is_refused_before_sampling(self, monkeypatch, d_o):
        def no_pose(*args):
            raise AssertionError("a pose was sampled")

        monkeypatch.setattr(clearnav.data, "sample_free_pose", no_pose)
        world = World((), (-5, -5, 5, 5), RobotState(0, 0, 0), (1, 1))
        with pytest.raises(ValueError, match=rf"robot radius d_o must be finite and > 0, got {d_o}$"):
            generate_dataset([world], 1, np.random.default_rng(0), SensorConfig(), d_o=d_o)


def reference_free_pose(world, rng, d_o):
    """sample_free_pose as it drew positions with one uniform draw on the bounds as arrays."""
    xmin, ymin, xmax, ymax = world.bounds
    for _ in range(200):
        p = rng.uniform([xmin, ymin], [xmax, ymax])
        if true_clearance(p, world) <= d_o:
            continue
        psi = rng.uniform(-math.pi, math.pi)
        v = min(max(rng.uniform(-1.0, 1.0), 0.0), 1.0)
        w = rng.uniform(-1.0, 1.0)
        return RobotState(p[0], p[1], psi, v, w)
    return None


class TestSampleFreePose:
    @pytest.mark.parametrize("d_o", [0.3, 0.5, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_poses_and_stream_as_one_draw_on_the_bounds(self, seed, d_o):
        # two scalar draws give the array draw's floats and leave the generator where it left it
        blocked = World((Box(-5.0, -5.0, 5.0, 5.0),), (-5, -5, 5, 5), RobotState(0, 0, 0), (1, 1))
        worlds = [*suite_worlds(4, seed), blocked] * 2
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for world in worlds:
            got, want = sample_free_pose(world, got_rng, d_o), reference_free_pose(world, want_rng, d_o)
            if world is blocked:
                assert got is None and want is None
            else:
                assert np.array(astuple(got)).tobytes() == np.array(astuple(want)).tobytes()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def rewrite(path, **changes):
    """Rewrite the npz at path with arrays replaced; a None value drops the array."""
    arrays = dict(np.load(path))
    for name, value in changes.items():
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
    np.savez(path, **arrays)


class TestDatasetFile:
    @pytest.fixture
    def saved(self, tmp_path):
        ds = small_dataset(open_arena=True)  # snapshots 8 to 11 hold empty scans
        path = tmp_path / "data.npz"
        ds.save(path)
        return ds, path

    def test_training_on_the_reloaded_copy_is_bit_identical(self, saved):
        ds, path = saved
        cfg = TrainConfig(epochs=2, seed=3)
        a = train(ds, cfg, "augmented")
        b = train(ClearanceDataset.load(path), cfg, "augmented")
        assert np.array_equal(a.params.vector, b.params.vector)
        assert np.array_equal(a.risk_head.vector, b.risk_head.vector)
        assert a.log.rows == b.log.rows and a.meta == b.meta

    def test_version_1_is_refused(self, saved):
        ds, path = saved
        # the layout of version 1: float32 clouds and controls, a stored safe column, a header
        np.savez(path, version=np.array(1), clouds=np.zeros((12, 300, 2), np.float32), states=ds.states,
                 snapshot=ds.snapshot.astype(np.int32), controls=ds.controls.astype(np.float32),
                 clearance=ds.clearance, safe=ds.safe,
                 header=np.array([ds.d_o, ds.dt, float(ds.seed), ds.fov, ds.max_range]))
        with pytest.raises(ValueError, match=r"data\.npz: dataset version 1, expected 3; regenerate"):
            ClearanceDataset.load(path)

    def test_version_2_is_refused(self, saved):
        _, path = saved
        # the layout of version 2: every scan padded to 300 points in one (snapshots, 300, 2) array
        arrays = dict(np.load(path))
        del arrays["points"], arrays["counts"]
        np.savez(path, **arrays | {"version": np.array(2), "clouds": np.zeros((12, 300, 2))})
        with pytest.raises(ValueError, match=r"data\.npz: dataset version 2, expected 3; "
                                             "regenerate it with clearnav gen-data$"):
            ClearanceDataset.load(path)

    @pytest.mark.parametrize("change, message", [
        pytest.param({"version": None}, "arrays: missing key 'version'", id="missing-version"),
        pytest.param({"controls": None}, "arrays: missing key 'controls'", id="missing-array"),
        pytest.param({"seed": None}, "arrays: missing key 'seed'", id="missing-scalar"),
        pytest.param({"safe": np.ones(300, np.uint8)}, "arrays: unknown key 'safe'", id="unknown-array"),
        pytest.param({"states": np.zeros((12, 4))}, r"array states has shape \(12, 4\)", id="state-width"),
        pytest.param({"states": np.zeros((11, 5))}, r"array states has shape \(11, 5\)",
                     id="snapshot-count"),
        pytest.param({"counts": np.zeros(11, int)},
                     r"array states has shape \(12, 5\), expected \(11, 5\); array counts sets snapshots to 11$",
                     id="count-length"),
        pytest.param({"points": np.zeros((7, 3))}, r"array points has shape \(7, 3\)", id="cloud-size"),
        pytest.param({"counts": np.zeros(12, int)}, r"array counts must hold non-negative integers summing to",
                     id="count-sum"),
        pytest.param({"counts": np.zeros(12)}, r"array counts must hold non-negative integers summing to",
                     id="count-float"),
        pytest.param({"clearance": np.zeros(299)}, r"array clearance has shape \(299,\)",
                     id="sample-count"),
        pytest.param({"controls": np.zeros((300, 50))}, r"array controls has shape \(300, 50\)",
                     id="control-axes"),
        pytest.param({"dt": np.array([0.1])}, r"array dt has shape \(1,\)", id="scalar-shape"),
        pytest.param({"snapshot": np.zeros(300)}, r"array snapshot must hold integer indices in \[0, 12\)",
                     id="float-index"),
        pytest.param({"snapshot": np.full(300, 12)}, r"array snapshot must hold integer indices in \[0, 12\)",
                     id="index-above"),
        pytest.param({"snapshot": np.full(300, -1)}, r"array snapshot must hold integer indices in \[0, 12\)",
                     id="index-below"),
        pytest.param({"clearance": np.full(300, np.nan)}, "array clearance contains non-finite values",
                     id="nan-array"),
        pytest.param({"d_o": np.array(np.inf)}, "array d_o contains non-finite values", id="inf-scalar"),
        # range rules: what generate_dataset cannot write, training would take up and fail on late
        pytest.param({"snapshot": np.zeros(0, int), "controls": np.zeros((0, 50, 2)), "clearance": np.zeros(0)},
                     "array snapshot holds no samples$", id="no-samples"),
        pytest.param({"d_o": np.array(-1.0)}, r"array d_o must be > 0, got -1\.0$", id="negative-d-o"),
        pytest.param({"dt": np.array(-0.1)}, r"array dt must be > 0, got -0\.1$", id="negative-dt"),
        pytest.param({"max_range": np.array(0.0)}, r"array max_range must be > 0, got 0\.0$",
                     id="zero-max-range"),
        pytest.param({"fov": np.array(0.0)}, r"array fov must be in \(0, 2\*pi\], got 0\.0$", id="zero-fov"),
        pytest.param({"fov": np.array(7.0)}, r"array fov must be in \(0, 2\*pi\], got 7\.0$", id="wide-fov"),
    ])
    def test_malformed_file_is_refused_naming_the_array(self, saved, change, message):
        _, path = saved
        rewrite(path, **change)
        with pytest.raises(ValueError, match=r"data\.npz: " + message):
            ClearanceDataset.load(path)

    def test_counts_whose_sum_wraps_are_refused(self, saved):
        ds, path = saved
        counts = ds.counts.astype(np.int64)
        counts[:4] += 2**62  # the int64 sum wraps back to the number of points
        assert counts.sum() == len(ds.points)
        rewrite(path, counts=counts)
        with pytest.raises(ValueError, match=rf"data\.npz: array counts must hold non-negative integers "
                                             rf"summing to {len(ds.points)}$"):
            ClearanceDataset.load(path)

    def test_negative_count_is_refused_though_the_sum_holds(self, saved):
        ds, path = saved
        counts = ds.counts.copy()
        counts[:2] = -1, counts[0] + counts[1] + 1
        rewrite(path, counts=counts)
        with pytest.raises(ValueError, match=rf"data\.npz: array counts must hold non-negative integers "
                                             rf"summing to {len(ds.points)}$"):
            ClearanceDataset.load(path)

class TestReparameterize:
    """The sampling path mu + sigma * eps -> violations max(0, d_o - d) shared by training and evaluation."""

    def test_zero_noise_returns_mu(self):
        # every sample is mu, so each row's risk is the MMD of a point mass at
        # max(0, d_o - mu) against the exact Dirac: 2 - 2 exp(-hbar / lam)
        cfg = TrainConfig(risk_samples=10, d_o=0.3, dirac_variance=0.0)
        phi = RiskHeadParams.init(np.random.default_rng(0), 16)
        for mu, hbar in ((0.7, 0.0), (0.1, 0.2)):
            params = constant_params(mu, 0.2, 0.1)
            ev = evaluate(params, phi, np.zeros((3, 4)), np.zeros(3), np.ones(3), cfg, ZeroNormalRng())
            assert np.allclose(ev["risk"], 2.0 - 2.0 * math.exp(-hbar / 0.1), rtol=0, atol=1e-12)

    def test_moment_check(self):
        # d_o far above every sample keeps the clamp inactive, so mean(d_o - hbar) is the sample mean
        cfg = TrainConfig(risk_samples=50, d_o=100.0)
        params = constant_params(0.5, 0.3, 0.1)
        noise = BatchNoise.draw(np.random.default_rng(0), 2000, cfg)
        x, d_gt, safe = np.zeros((2000, 4)), np.zeros(2000), np.ones(2000)
        f = _forward(params, zero_risk_head(), x, d_gt, safe, noise, cfg, risk=True)
        samples = cfg.d_o - f.hbar
        assert samples.size == 100_000
        assert samples.mean() == pytest.approx(0.5, abs=0.01 * 0.3)

    def test_linear_gradients(self):
        # d sample / d mu = 1, d sample / d sigma = eps
        cfg = TrainConfig(risk_samples=3, d_o=100.0)
        phi = zero_risk_head()
        noise = BatchNoise(eps=np.array([[-1.3, 0.2, 2.0]]), dirac=np.zeros((1, 3)))

        def samples(mu, sigma):
            f = _forward(constant_params(mu, sigma, 0.1), phi, np.zeros((1, 4)), np.zeros(1),
                         np.ones(1), noise, cfg, risk=True)
            return cfg.d_o - f.hbar[0]

        base = samples(0.5, 0.3)
        dmu = (samples(0.5 + 1e-6, 0.3) - base) / 1e-6
        dsig = (samples(0.5, 0.3 + 1e-6) - base) / 1e-6
        assert np.allclose(dmu, 1.0)
        assert np.allclose(dsig, noise.eps[0], atol=1e-6)

    def test_requires_positive_sigma(self, empty_world):
        # the planner draws mu + sigma * eps only for candidates with sigma > 0
        cfg = PlannerConfig(iterations=2, samples=32, risk_elites=8, elites=4, risk_draws=10)

        def predictor(sigma_of):
            def predict(u):
                n = u.shape[0]
                return np.ones(n), sigma_of(n), np.full(n, 0.1)

            return predict

        with pytest.raises(PlanningError):
            plan(empty_world.start, predictor(np.zeros), empty_world.goal, cfg, np.random.default_rng(0))
        half = predictor(lambda n: np.where(np.arange(n) % 2, 0.05, -1.0))
        res = plan(empty_world.start, half, empty_world.goal, cfg, np.random.default_rng(0))
        assert res.sigma == 0.05


class TestRiskHead:
    def test_zero_violation_path(self, rng):
        phi = RiskHeadParams.init(rng, 16)
        cfg = TrainConfig()
        params = constant_params(3.0, 1e-6, 0.1)
        ev = evaluate(params, phi, np.zeros((1, 4)), np.zeros(1), np.ones(1), cfg, np.random.default_rng(0))
        ref, _ = risk_head_forward(np.zeros(1), phi)
        # all violations are zero; only the near-Dirac reference width keeps
        # the risk (and hence the output gap) slightly above zero
        assert np.abs(ev["yhat"][0] - ref[0]).max() < 0.05

    def test_softmax_simplex(self, rng):
        phi = RiskHeadParams.init(rng, 16)
        cfg = TrainConfig()
        for mu in (0.0, 0.3, 1.0):
            params = constant_params(mu, 0.1, 0.05)
            yhat = evaluate(params, phi, np.zeros((4, 4)), np.zeros(4), np.ones(4), cfg,
                            np.random.default_rng(1))["yhat"]
            assert yhat.sum(axis=1) == pytest.approx(np.ones(4))
            assert (yhat > 0).all() and (yhat < 1).all()

    def test_composition_against_chained_modules(self, rng):
        # oracle: replay the same rng stream through the public module pieces
        phi = RiskHeadParams.init(rng, 16)
        cfg = TrainConfig(risk_samples=50, d_o=0.3)
        params = constant_params(0.35, 0.2, 0.08)
        mu, sigma, lam = forward_batch(params, np.zeros((1, 4)))
        got = evaluate(params, phi, np.zeros((1, 4)), np.zeros(1), np.ones(1), cfg,
                       np.random.default_rng(7))["yhat"][0]
        r2 = np.random.default_rng(7)
        eps = r2.standard_normal(50)
        hbar = residual(mu[0] + sigma[0] * eps, 0.3)
        dirac = draw_dirac_samples(r2, 50, cfg.dirac_variance)
        r = mmd_batch(hbar[None, :], dirac, lam)[0]
        pre1 = np.tanh(r * phi.v1 + phi.c1)
        z = phi.v2 @ pre1 + phi.c2
        e = np.exp(z - z.max())
        expected = e / e.sum()
        assert np.abs(got - expected).max() < 1e-9


class TestLosses:
    """Batch-mean NLL and cross entropy as loss_and_grad reports them."""

    def terms(self, params, d_gt, safe, phi=None, mode="baseline"):
        cfg = TrainConfig(risk_samples=10)
        phi = phi or zero_risk_head()
        noise = BatchNoise.draw(np.random.default_rng(0), len(d_gt), cfg)
        x = np.zeros((len(d_gt), 4))
        return loss_and_grad(params, phi, x, np.asarray(d_gt), np.asarray(safe), noise, mode, cfg)

    def test_nll_hand_value(self):
        terms, _, _ = self.terms(constant_params(0.4, 1.0, 0.1), [0.4], [1])
        assert terms.nll == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_nll_collapse_limit(self):
        # with mu fitted exactly, shrinking sigma sends the loss to -inf
        losses = [self.terms(constant_params(0.4, s, 0.1), [0.4], [1])[0].nll for s in (1e-2, 1e-4, 1e-8)]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < -10

    def test_nll_gradient_wrt_mu(self):
        # b3[0] is mu itself in a zero-weight network, so its gradient is dNLL/dmu
        d, sigma = 0.7, 0.23
        for mu in (0.1, 0.69, 1.4):
            params = constant_params(mu, sigma, 0.1)
            _, grad, _ = self.terms(params, [d], [1])

            def f(m):
                params.b3[0] = m
                return self.terms(params, [d], [1])[0].nll

            num = (f(mu + 1e-7) - f(mu - 1e-7)) / 2e-7
            assert num == pytest.approx((mu - d) / sigma**2, rel=1e-5)
            assert grad.b3[0] == pytest.approx((mu - d) / sigma**2, rel=1e-5)

    def test_ce_hand_value(self):
        # a zero risk head gives [0.5, 0.5] whatever the risk
        terms, _, _ = self.terms(constant_params(0.4, 0.1, 0.1), [0.4], [1], mode="augmented")
        assert terms.ce == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ce_perfect_prediction_limit(self):
        phi = zero_risk_head()
        phi.c2[:] = [0.0, math.log((1.0 - 1e-12) / 1e-12)]  # p(safe) = 1 - 1e-12
        terms, _, _ = self.terms(constant_params(0.4, 0.1, 0.1), [0.4], [1], phi, mode="augmented")
        assert terms.ce == pytest.approx(0.0, abs=1e-11)

    def test_ce_nonnegative(self, rng):
        for _ in range(20):
            phi = RiskHeadParams.init(rng, 16)
            safe = rng.integers(0, 2, 5)
            params = constant_params(rng.uniform(0, 0.6), 0.1, 0.1)
            terms, _, _ = self.terms(params, rng.uniform(0, 1, 5), safe, phi, mode="augmented")
            assert terms.ce >= 0.0


class TestTrain:
    def test_one_sample_memorization(self):
        world = World((Circle(2.5, 0.3, 0.5),), (-5, -5, 8, 5), RobotState(0, 0, 0), (5, 0))
        ds = generate_dataset(
            [world], 1, np.random.default_rng(3), SensorConfig(),
            sequences_per_snapshot=1, seed=3,
        )
        # single-sample heteroscedastic NLL stiffens as sigma shrinks; the
        # norm clip keeps plain momentum GD stable all the way down
        cfg = TrainConfig(
            epochs=1000, batch_size=1, holdout_fraction=0.0,
            learning_rate=1e-3, grad_clip=0.5, seed=0,
        )
        res = train(ds, cfg, "baseline")
        x_all = build_inputs(ds, cfg.n_sectors)
        mu, _, _ = forward_batch(res.params, x_all)
        assert mu[0] == pytest.approx(ds.clearance[0], abs=1e-2)

    def test_finite_difference_small(self, rng):
        ds = small_dataset()
        cfg = TrainConfig(risk_samples=30, seed=0)
        x_all = build_inputs(ds, cfg.n_sectors)
        params = ModelParams.init(rng, 34, ds.horizon, 32)
        phi = RiskHeadParams.init(rng, 16)
        idx = np.arange(6)
        noise = BatchNoise.draw(np.random.default_rng(5), 6, cfg)
        for mode in ("baseline", "augmented"):
            rep = finite_difference_check(
                params, phi, x_all[idx], ds.clearance[idx], ds.safe[idx],
                noise, mode, cfg, 60, np.random.default_rng(2),
            )
            assert rep["max_rel_error"] < 1e-4

    def test_baseline_risk_gradients_exactly_zero(self, rng):
        ds = small_dataset()
        cfg = TrainConfig(seed=0)
        x_all = build_inputs(ds, cfg.n_sectors)
        params = ModelParams.init(rng, 34, ds.horizon, 32)
        phi = RiskHeadParams.init(rng, 16)
        idx = np.arange(8)
        noise = BatchNoise.draw(np.random.default_rng(5), 8, cfg)
        _, grad, grad_phi = loss_and_grad(
            params, phi, x_all[idx], ds.clearance[idx], ds.safe[idx], noise, "baseline", cfg
        )
        assert np.all(grad_phi.vector == 0.0)
        assert np.all(grad.w3[2] == 0.0) and grad.b3[2] == 0.0  # kernel-width head untouched

    def test_loss_finite_at_init(self, rng):
        ds = small_dataset()
        cfg = TrainConfig(seed=0)
        x_all = build_inputs(ds, cfg.n_sectors)
        params = ModelParams.init(np.random.default_rng([0, 29]), 34, ds.horizon, cfg.hidden)
        phi = RiskHeadParams.init(np.random.default_rng(1), cfg.risk_hidden)
        noise = BatchNoise.draw(np.random.default_rng(5), len(ds), cfg)
        terms, _, _ = loss_and_grad(params, phi, x_all, ds.clearance, ds.safe, noise, "augmented", cfg)
        assert math.isfinite(terms.total)

    def test_train_deterministic(self):
        ds = small_dataset()
        cfg = TrainConfig(epochs=2, seed=11)
        a = train(ds, cfg, "augmented")
        b = train(ds, cfg, "augmented")
        assert np.array_equal(a.params.vector, b.params.vector)
        assert np.array_equal(a.risk_head.vector, b.risk_head.vector)
        assert a.log.rows[-1] == b.log.rows[-1]

    def test_divergence_aborts(self):
        # the loss stays finite (NLL ~39 at a spread ~1e15), so only the weights show it
        ds = small_dataset()
        cfg = TrainConfig(epochs=20, learning_rate=1e14, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="weights blew up in epoch 0"):
            train(ds, cfg, "baseline")

    def test_overflowing_step_aborts(self):
        ds = small_dataset()
        cfg = TrainConfig(epochs=20, learning_rate=1e300, seed=0)  # the first step overflows
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="non-finite loss"):
            train(ds, cfg, "baseline")

    def test_nonfinite_width_is_divergence(self):
        params = constant_params(0.35, 0.2, 0.08)
        params.b3[2] = np.inf
        cfg = TrainConfig(risk_samples=10)
        noise = BatchNoise.draw(np.random.default_rng(0), 3, cfg)
        with pytest.raises(TrainingDiverged, match="kernel width"):
            loss_and_grad(params, zero_risk_head(), np.zeros((3, 4)), np.full(3, 0.5),
                          np.ones(3, dtype=bool), noise, "augmented", cfg)

    @pytest.mark.parametrize("field, value", [("epochs", 0), ("batch_size", 0),
                                              ("holdout_fraction", -0.1), ("holdout_fraction", 1.0),
                                              ("holdout_fraction", 1.5)])
    def test_config_rejects_bad_loop_settings(self, field, value):
        # epochs 0 logs no row, batch_size 0 breaks the batch loop, and a holdout
        # fraction outside [0, 1) has no meaning
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        TrainConfig(epochs=1, batch_size=1, holdout_fraction=0.0)  # the edges that stay valid

    def test_refuses_a_radius_other_than_the_datasets(self):
        # the labels mark safe at the dataset's d_o; the risk residual would use the config's
        with pytest.raises(ValueError, match=r"^TrainConfig\.d_o 0\.25 differs from the dataset's d_o 0\.3$"):
            train(small_dataset(), TrainConfig(epochs=1, d_o=0.25), "augmented")

    def test_unknown_mode_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValueError, match="mode"):
            train(ds, TrainConfig(epochs=1), "nonsense")

    def test_log_csv(self, tmp_path):
        ds = small_dataset()
        res = train(ds, TrainConfig(epochs=2, seed=0), "baseline")
        path = tmp_path / "log.csv"
        res.log.to_csv(path)
        import csv

        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "nll", "ce", "holdout_accuracy", "mean_sigma", "median_sigma"]
        assert len(rows) == 3


@pytest.mark.slow
def test_variance_collapse_probe():
    # the rejected strawman: a direct spread penalty on top of the NLL drives
    # the predicted spread to overconfident near-zero values
    ds = small_dataset(seed=4, n_worlds=4, snaps=6, seqs=30)
    cfg = TrainConfig(
        epochs=100,
        seed=0,
        sigma_penalty=1e8,
        learning_rate=1e-3,
        grad_clip=5.0,
    )
    res = train(ds, cfg, "nll_sigma_penalty")
    assert res.log.rows[-1].median_sigma < 1e-3

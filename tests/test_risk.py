from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clearnav.risk import (
    chance_probability_oracle,
    draw_dirac_samples,
    mmd_batch,
    mmd_batch_grad,
    residual,
)


def mmd_row(hbar, delta, lam):
    """mmd_batch on one row of samples."""
    return mmd_batch(np.asarray(hbar, dtype=float)[None, :], delta, lam)[0]


def kernel_from_mmd(z, zp, lam):
    """K(z, z') read off mmd_batch: for one sample per set the MMD is 2 - 2 K(z, z')."""
    return 1.0 - mmd_batch(np.array([[z]]), np.array([zp]), lam)[0] / 2.0


def brute_force_mmd(hbar, delta, lam):
    """Independent oracle: plain double sums with math.exp."""
    n = len(hbar)
    a = sum(math.exp(-abs(hbar[i] - hbar[j]) / lam) for i in range(n) for j in range(n))
    b = sum(math.exp(-abs(hbar[i] - delta[j]) / lam) for i in range(n) for j in range(n))
    c = sum(math.exp(-abs(delta[i] - delta[j]) / lam) for i in range(n) for j in range(n))
    return max((a - 2.0 * b + c) / n**2, 0.0)


class TestResidual:
    def test_safe_clearance(self):
        assert residual(0.5, 0.3) == 0.0

    def test_violation_arithmetic(self):
        assert residual(0.1, 0.3) == pytest.approx(0.2)

    def test_boundary(self):
        assert residual(0.3, 0.3) == 0.0

    def test_requires_positive_radius(self):
        with pytest.raises(ValueError):
            residual(0.1, 0.0)

    @given(st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, d):
        assert residual(d, 0.3) >= 0.0


class TestLaplacianKernel:
    def test_zero_distance(self):
        for lam in (0.01, 0.5, 3.0):
            assert kernel_from_mmd(1.7, 1.7, lam) == 1.0

    def test_hand_value(self):
        assert kernel_from_mmd(1.0, 0.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    @given(st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert kernel_from_mmd(a, b, 0.7) == kernel_from_mmd(b, a, 0.7)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            kernel_from_mmd(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            kernel_from_mmd(0.0, 1.0, -1.0)


class TestEmpiricalMMD:
    def test_identical_samples_zero(self, rng):
        x = rng.normal(0, 1, 50)
        assert mmd_row(x, x.copy(), 0.3) == 0.0

    def test_hand_double_sum(self):
        got = mmd_row([1.0], [0.0], 1.0)
        assert got == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-12)

    def test_against_brute_force(self, rng):
        for _ in range(40):
            h = np.abs(rng.normal(0, 0.2, 50))
            d = rng.normal(0, 0.003, 50)
            for lam in (0.01, 0.1, 1.0):
                assert mmd_row(h, d, lam) == pytest.approx(
                    brute_force_mmd(h, d, lam), abs=1e-9
                )

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            mmd_row([1.0, 2.0], [0.0], 1.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_zero_iff_equal_multisets(self, seed):
        r = np.random.default_rng(seed)
        a = r.normal(0, 1, 20)
        assert mmd_row(a, r.permutation(a), 0.5) <= 1e-12
        b = a.copy()
        b[0] += 1.0
        assert mmd_row(a, b, 0.5) > 0.0

    def test_monotone_in_violation_magnitude(self):
        # fixed draws; shifting all violations away from zero raises the risk
        rng = np.random.default_rng(5)
        base = np.abs(rng.normal(0.05, 0.02, 50))
        delta = rng.normal(0, 0.003, 50)
        risks = [mmd_row(base + shift, delta, 0.1) for shift in (0.0, 0.05, 0.1, 0.2)]
        assert all(r2 > r1 for r1, r2 in zip(risks, risks[1:]))

    def test_wide_kernel_limit(self, rng):
        h = np.abs(rng.normal(0.2, 0.1, 50))
        d = rng.normal(0, 0.003, 50)
        assert mmd_row(h, d, 1e3) < 1e-2

    def test_narrow_kernel_limit(self):
        # at lam -> 0 only exact duplicates contribute; limit follows from
        # duplicate masses: sum_v (count_h(v)/N)^2 - 2*cross + sum_v (count_d(v)/N)^2
        h = np.array([0.0, 0.0, 0.0, 0.2, 0.4])
        d = np.array([0.0, 0.001, -0.002, 0.003, 0.004])
        n = 5
        a_inf = (3 / n) ** 2 + (1 / n) ** 2 + (1 / n) ** 2
        c_inf = 5 * (1 / n) ** 2
        b_inf = (3 * 1) / n**2  # the three h-zeros match the single d-zero
        expected = a_inf - 2 * b_inf + c_inf
        assert mmd_row(h, d, 1e-6) == pytest.approx(expected, abs=1e-9)

    def test_batch_matches_scalar(self, rng):
        # rows of a batch do not mix, and the gradient path reports the same values
        h = np.abs(rng.normal(0, 0.2, (7, 30)))
        d = rng.normal(0, 0.003, 30)
        lam = rng.uniform(0.05, 0.5, 7)
        batch = mmd_batch(h, d, lam)
        r, _, _ = mmd_batch_grad(h, d, lam)
        for i in range(7):
            assert batch[i] == pytest.approx(mmd_row(h[i], d, lam[i]), abs=1e-12)
            assert r[i] == pytest.approx(batch[i], abs=1e-12)

    def test_grad_matches_finite_differences(self, rng):
        h = np.abs(rng.normal(0.1, 0.05, (3, 20))) + 0.01
        d = rng.normal(0, 0.003, (3, 20))
        lam = np.array([0.05, 0.2, 0.8])
        r, dr_dh, dr_dlam = mmd_batch_grad(h, d, lam)
        eps = 1e-7
        for b in range(3):
            for j in (0, 7, 19):
                hp, hm = h.copy(), h.copy()
                hp[b, j] += eps
                hm[b, j] -= eps
                num = (mmd_batch(hp, d, lam)[b] - mmd_batch(hm, d, lam)[b]) / (2 * eps)
                assert dr_dh[b, j] == pytest.approx(num, rel=1e-5, abs=1e-8)
            lp, lm = lam.copy(), lam.copy()
            lp[b] += eps
            lm[b] -= eps
            num = (mmd_batch(h, d, lp)[b] - mmd_batch(h, d, lm)[b]) / (2 * eps)
            assert dr_dlam[b] == pytest.approx(num, rel=1e-5, abs=1e-8)


class TestDiracSamples:
    def test_variance_matches(self):
        x = draw_dirac_samples(np.random.default_rng(0), 100_000)
        assert x.var() == pytest.approx(1e-5, rel=0.05)

    def test_seed_reproducible(self):
        a = draw_dirac_samples(np.random.default_rng(3), 50)
        b = draw_dirac_samples(np.random.default_rng(3), 50)
        assert np.array_equal(a, b)

    def test_zero_variance_degenerate(self):
        assert np.array_equal(draw_dirac_samples(np.random.default_rng(0), 10, 0.0), np.zeros(10))


class TestChanceProbabilityOracle:
    def test_median_at_boundary(self):
        p = chance_probability_oracle(0.3, 0.05, 0.3, 200_000, np.random.default_rng(0))
        assert p == pytest.approx(0.5, abs=0.005)

    def test_far_safe_tail(self):
        p = chance_probability_oracle(0.3 + 10 * 0.05, 0.05, 0.3, 100_000, np.random.default_rng(0))
        assert p == pytest.approx(0.0, abs=1e-4)

    def test_matches_normal_cdf_grid(self):
        rng = np.random.default_rng(11)
        m = 200_000
        for mu in np.linspace(0.05, 0.55, 6):
            for sigma in (0.01, 0.05, 0.1):
                p = chance_probability_oracle(mu, sigma, 0.3, m, rng)
                z = (0.3 - mu) / sigma
                exact = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
                mc_sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / m)
                assert abs(p - exact) <= max(4 * mc_sigma, 5e-4)


def test_risk_probability_rank_alignment():
    # grid over clearance mean/spread: empirical risk must order like the
    # Monte-Carlo violation probability (shared noise draws across the grid).
    # A tight near-Dirac reference (variance 1e-8) keeps the zero-violation
    # baseline at zero so the fixed narrow kernel never misranks safe rows.
    from scipy.stats import spearmanr

    d_o = 0.3
    rng = np.random.default_rng(123)
    eps = rng.standard_normal(50)
    dirac = draw_dirac_samples(rng, 50, variance=1e-8)
    risks, probs = [], []
    for sigma in (0.01, 0.05, 0.1):
        for mu in np.linspace(0.0, 2 * d_o, 21):
            hbar = residual(mu + sigma * eps, d_o)
            risks.append(mmd_row(hbar, dirac, 0.01))
            probs.append(
                chance_probability_oracle(mu, sigma, d_o, 100_000, np.random.default_rng(int(mu * 1e6) + int(sigma * 1e4)))
            )
    rho = spearmanr(risks, probs).statistic
    assert rho > 0.95

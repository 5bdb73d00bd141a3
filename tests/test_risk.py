from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clearnav.risk import (
    draw_dirac_samples,
    mmd_batch,
    mmd_batch_grad,
    residual,
)


def chance_probability_oracle(
    mu: float, sigma: float, d_o: float, n_draws: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo estimate of P(d_o - d >= 0) for d ~ N(mu, sigma^2).

    The reference the risk's ranking is checked against; equals
    Phi((d_o - mu) / sigma) in expectation.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    d = rng.normal(mu, sigma, n_draws)
    return float(np.mean(d_o - d >= 0.0))


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


def dense_mmd_grad(hbar, delta, lam):
    """Reference for mmd_batch_grad: the three (B, N, N) kernel blocks, summed densely."""
    hbar = np.asarray(hbar, dtype=float)
    delta = np.broadcast_to(np.asarray(delta, dtype=float), hbar.shape)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    n2 = float(hbar.shape[1] ** 2)
    inv_lam = 1.0 / lam[:, None, None]

    def block(a1, a2):
        # (K sums over both axes, |d|*K sums, per-row sign(d)*K sums)
        d = a1[:, :, None] - a2[:, None, :]
        s = np.sign(d)
        np.abs(d, out=d)
        k = np.exp(d * -inv_lam)
        return np.einsum("bij->b", k), np.einsum("bij,bij->b", d, k), np.einsum("bij,bij->bi", s, k)

    k_hh, dk_hh, s_hh = block(hbar, hbar)
    k_hd, dk_hd, s_hd = block(hbar, delta)
    k_dd, dk_dd, _ = block(delta, delta)
    r_raw = (k_hh - 2.0 * k_hd + k_dd) / n2
    dr_dh = (-2.0 / n2) * (s_hh - s_hd) / lam[:, None]
    dr_dlam = (dk_hh - 2.0 * dk_hd + dk_dd) / (n2 * lam**2)
    clamped = r_raw <= 0.0
    return (
        np.where(clamped, 0.0, r_raw),
        np.where(clamped[:, None], 0.0, dr_dh),
        np.where(clamped, 0.0, dr_dlam),
    )


@st.composite
def mmd_inputs(draw):
    """Violation rows at least half exactly 0, with repeated nonzero values, reference
    draws that may copy violation entries, a shared or per-row reference and a
    scalar or per-row width from 1e-6 to 1e3."""
    b, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    pool = draw(st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=3))
    value = st.one_of(st.sampled_from(pool), st.floats(0.0, 0.5))
    hbar = np.array(draw(st.lists(value, min_size=b * n, max_size=b * n))).reshape(b, n)
    for row in hbar:
        row[draw(st.permutations(range(n)))[: (n + 1) // 2]] = 0.0
    source = hbar[0] if draw(st.booleans()) else hbar  # shared (N,) or per-row delta
    size = source.size
    delta = np.array(draw(st.lists(st.floats(-0.01, 0.01), min_size=size, max_size=size)))
    copy = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
    delta, copy = delta.reshape(source.shape), copy.reshape(source.shape)
    delta[copy] = source[copy]
    exponents = draw(st.lists(st.floats(-6, 3), min_size=b, max_size=b))
    lam = 10.0 ** exponents[0] if draw(st.booleans()) else 10.0 ** np.array(exponents)
    return hbar, delta, lam


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


def stable_mmd_grad(hbar, delta, lam):
    """Reference for the sort of mmd_batch_grad: the same two passes over a pool
    sorted stably, gathered and scattered along the sample axis."""
    hbar, delta, lam = (np.asarray(a, dtype=float) for a in (hbar, delta, lam))
    b, n = hbar.shape
    m = 2 * n
    z = np.concatenate([hbar.T, np.broadcast_to(delta, hbar.shape).T])
    bad = ~np.isfinite(z).all(axis=0)
    z[:, bad] = 0.0
    order = np.argsort(z, axis=0, kind="stable")
    zs = np.take_along_axis(z, order, axis=0)
    w = np.where(order < n, 1.0, -1.0)
    gap = np.diff(zs, axis=0)
    decay = np.exp(-gap / lam)
    starts = np.ones((m + 1, b), dtype=bool)
    starts[1:-1] = gap > 0.0
    rid = np.cumsum(starts[:-1], axis=0) - 1 + np.arange(b) * m
    run_w = np.bincount(rid.ravel(), weights=w.ravel(), minlength=m * b)[rid]
    up = np.where(starts[1:], run_w, 0.0)
    down = np.where(starts[:-1], run_w, 0.0)
    below, above, dist = np.zeros((3, m, b))
    for k in range(1, m):
        below[k] = decay[k - 1] * (below[k - 1] + up[k - 1])
    for k in range(1, m):
        dist[k] = decay[k - 1] * (dist[k - 1] + gap[k - 1] * (below[k - 1] + up[k - 1]))
        j = m - 1 - k
        above[j] = decay[j] * (above[j + 1] + down[j + 1])
    r = (w * (run_w + 2.0 * below)).sum(axis=0) / float(n * n)
    clamped = r <= 0.0
    g = np.empty_like(below)
    np.put_along_axis(g, order, below - above, axis=0)
    dr_dh = (-2.0 / (n * n)) * g[:n].T / lam[..., None]
    dr_dlam = 2.0 * (w * dist).sum(axis=0) / (n * n * lam**2)
    for out in (r, dr_dh, dr_dlam):
        out[clamped] = 0.0
        out[bad] = np.nan
    return r, dr_dh, dr_dlam


@st.composite
def tied_mmd_inputs(draw):
    """Pools full of exact ties: violations from a few values (half of them 0), and a
    reference that is exactly 0 (dirac_variance = 0), rounded to the violations' grid,
    or continuous; some rows hold a non-finite sample."""
    b, n = draw(st.integers(1, 5)), draw(st.integers(1, 20))
    values = [0.0] + draw(st.lists(st.sampled_from([0.01, 0.02, 0.05, 0.1]), min_size=1, max_size=3))
    hbar = np.array(draw(st.lists(st.sampled_from(values), min_size=b * n, max_size=b * n))).reshape(b, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from([(n,), (b, n)]))
    kind = draw(st.sampled_from(["zero", "rounded", "continuous"]))
    if kind == "zero":
        delta = np.broadcast_to(draw_dirac_samples(rng, n, variance=0.0), shape).copy()
    else:
        delta = rng.normal(0.0, 0.03, shape)
        if kind == "rounded":
            delta = np.round(delta, 2)
    for _ in range(draw(st.integers(0, 2))):
        hbar[draw(st.integers(0, b - 1)), draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    lam = 10.0 ** rng.uniform(-3, 1) if draw(st.booleans()) else 10.0 ** rng.uniform(-3, 1, b)
    return hbar, delta, lam


class TestMmdBatchGrad:
    @given(mmd_inputs())
    @example((np.zeros((1, 1)), np.zeros(1), 1e-6))
    @example((np.array([[0.0, 0.2]]), np.array([0.0, 0.2]), np.array([1e3])))
    @example((np.array([[0.0, 1.36e-13, 0.0]]), np.zeros(3), 1e3))
    @example((np.array([[0.0, 1e-6, 0.0, 0.5, 0.0]]), np.array([0.0, 0.0, 0.0, 2**-7, 2**-7]), 1e-6))
    # row 0's pool ends in a tie run (0.5, 0.5) and row 1's starts with one (five 0s)
    @example((np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 0.3]]), np.zeros(3), np.array([0.1, 0.2])))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_blocks(self, inputs):
        hbar, delta, lam = inputs
        r, dr_dh, dr_dlam = mmd_batch_grad(hbar, delta, lam)
        want_r, want_dh, want_dlam = dense_mmd_grad(hbar, delta, lam)
        assert r == pytest.approx(want_r, rel=0, abs=1e-12)
        assert np.array_equal(mmd_batch(hbar, delta, lam), r)
        # rows clamped to r = 0 report zero gradients; rounding decides the clamp
        # only for rows whose r is below the value tolerance
        same = (r > 0.0) == (want_r > 0.0)
        assert np.all(same | (np.maximum(r, want_r) < 1e-12))
        # gradients in units of 1/lam (lam dr/dlam = dr/dlog lam): the dense sums
        # cancel terms of size 1/lam, so at lam = 1e-6 their own rounding is ~1e-11
        scale = np.broadcast_to(lam, r.shape)[same]
        assert (scale[:, None] * dr_dh[same]) == pytest.approx(
            scale[:, None] * want_dh[same], rel=1e-9, abs=1e-12)
        assert scale * dr_dlam[same] == pytest.approx(scale * want_dlam[same], rel=1e-9, abs=1e-12)

    @given(tied_mmd_inputs())
    @settings(max_examples=300, deadline=None)
    def test_unstable_sort_matches_stable_bitwise(self, inputs):
        # inside a tie run of one sign the passes read nothing order-dependent;
        # a run mixing violations and reference draws must be sorted stably
        hbar, delta, lam = inputs
        want = stable_mmd_grad(hbar, delta, lam)
        got = mmd_batch_grad(hbar, delta, lam)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        assert np.array_equal(mmd_batch(hbar, delta, lam), want[0], equal_nan=True)

    # the boundary tests cover both names: mmd_batch does not call mmd_batch_grad
    def test_rejects_non_2d_hbar(self):
        for mmd in (mmd_batch, mmd_batch_grad):
            with pytest.raises(ValueError, match="hbar"):
                mmd(np.zeros(5), np.zeros(5), 0.1)

    def test_rejects_misshaped_delta(self):
        for mmd in (mmd_batch, mmd_batch_grad):
            with pytest.raises(ValueError, match="delta"):
                mmd(np.zeros((3, 5)), np.zeros((2, 5)), 0.1)

    def test_rejects_misshaped_lam(self):
        for mmd in (mmd_batch, mmd_batch_grad):
            with pytest.raises(ValueError, match="lam"):
                mmd(np.zeros((3, 5)), np.zeros(5), np.full(2, 0.1))

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_nonpositive_or_nonfinite_lam(self, bad):
        for mmd in (mmd_batch, mmd_batch_grad):
            with pytest.raises(ValueError, match="lam"):
                mmd(np.zeros((3, 5)), np.zeros(5), np.array([0.1, bad, 0.1]))

    def test_nonfinite_samples_poison_their_row_only(self, rng):
        hbar = np.abs(rng.normal(0, 0.1, (4, 6)))
        delta = rng.normal(0, 0.003, (4, 6))
        hbar[0, 2] = np.nan
        hbar[1, 0] = np.inf
        delta[2, 5] = -np.inf
        r, dr_dh, dr_dlam = mmd_batch_grad(hbar, delta, 0.1)
        assert np.isnan(r[:3]).all() and np.isnan(dr_dh[:3]).all() and np.isnan(dr_dlam[:3]).all()
        assert np.array_equal(np.isnan(mmd_batch(hbar, delta, 0.1)), [True, True, True, False])
        alone = np.hstack([out[0].ravel() for out in mmd_batch_grad(hbar[3:], delta[3:], 0.1)])
        assert np.hstack([r[3], dr_dh[3], dr_dlam[3]]) == pytest.approx(alone, rel=1e-12, abs=1e-15)

    def test_memory_linear_in_samples(self):
        # one dense (B, N, N) kernel block of this call would take 64 MB
        rng = np.random.default_rng(0)
        hbar = np.maximum(0.0, rng.normal(0.0, 0.1, (2, 2000)))
        delta = rng.normal(0.0, 0.003, 2000)
        tracemalloc.start()
        try:
            mmd_batch_grad(hbar, delta, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


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

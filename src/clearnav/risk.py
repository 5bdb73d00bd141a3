"""Collision-risk surrogate: constraint residuals and their empirical MMD to zero.

The risk of a clearance distribution is the squared RKHS distance between the
empirical embedding of its constraint-violation samples and the embedding of a
near-Dirac reference at zero. Small values mean the violation mass sits at
zero, i.e. the clearance constraint holds with high probability. The kernel is
the Laplacian K(z, z') = exp(-|z - z'| / lam) with width lam > 0.
"""
from __future__ import annotations

import numpy as np

DIRAC_VARIANCE = 1e-5  # variance of the Gaussian standing in for the Dirac at 0


def residual(d, d_o: float):
    """Constraint violation max(0, d_o - d); zero exactly when clearance suffices."""
    if d_o <= 0:
        raise ValueError("robot radius d_o must be positive")
    return np.maximum(0.0, d_o - np.asarray(d, dtype=float))


def draw_dirac_samples(rng: np.random.Generator, n: int, variance: float = DIRAC_VARIANCE) -> np.ndarray:
    """n i.i.d. draws from the near-Dirac reference N(0, variance)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if variance < 0:
        raise ValueError("variance must be >= 0")
    if variance == 0.0:
        return np.zeros(n)
    return rng.normal(0.0, np.sqrt(variance), n)


def mmd_batch(hbar: np.ndarray, delta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Squared MMD per row of hbar (B, N) against delta ((N,) shared or (B, N)).

    V-statistic expansion (diagonal terms included), per row:
        (1/N^2) sum_ij K(h_i, h_j) - (2/N^2) sum_ij K(h_i, d_j)
        + (1/N^2) sum_ij K(d_i, d_j)
    lam may be scalar or (B,). Floating-point cancellation can leave a tiny
    negative value, so values are clamped at 0 from below.
    """
    hbar = np.asarray(hbar, dtype=float)
    delta = np.asarray(delta, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam <= 0):
        raise ValueError("kernel width lam must be positive")
    if delta.ndim == 1:
        delta = delta[None, :]
    if hbar.shape[-1] != delta.shape[-1]:
        raise ValueError("sample sets must match in length")
    inv_lam = 1.0 / lam[:, None, None]
    d_hh = np.abs(hbar[:, :, None] - hbar[:, None, :])
    d_hd = np.abs(hbar[:, :, None] - delta[:, None, :])
    d_dd = np.abs(delta[:, :, None] - delta[:, None, :])
    term_hh = np.exp(-d_hh * inv_lam).mean(axis=(1, 2))
    term_hd = np.exp(-d_hd * inv_lam).mean(axis=(1, 2))
    term_dd = np.exp(-d_dd * inv_lam).mean(axis=(1, 2))
    return np.maximum(term_hh - 2.0 * term_hd + term_dd, 0.0)


def mmd_batch_grad(
    hbar: np.ndarray, delta: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """MMD values plus gradients w.r.t. the violation samples and kernel width.

    Returns (r (B,), dr/dhbar (B, N), dr/dlam (B,)). sign(0) = 0 handles the
    |.| kink on tied samples; the diagonal K(h_i, h_i) terms contribute zero.
    Gradients are zeroed on rows clamped at 0.
    """
    hbar = np.asarray(hbar, dtype=float)
    delta = np.asarray(delta, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if delta.ndim == 1:
        delta = np.broadcast_to(delta[None, :], hbar.shape)
    b, n = hbar.shape
    n2 = float(n * n)
    inv_lam = 1.0 / lam[:, None, None]

    def block(a1, a2):
        # returns (K sums over both axes, |d|*K sums, per-row sign(d)*K sums)
        d = a1[:, :, None] - a2[:, None, :]
        s = np.sign(d)
        np.abs(d, out=d)
        k = np.exp(d * -inv_lam)
        return (
            np.einsum("bij->b", k),
            np.einsum("bij,bij->b", d, k),
            np.einsum("bij,bij->bi", s, k),
        )

    k_hh, dk_hh, s_hh = block(hbar, hbar)
    k_hd, dk_hd, s_hd = block(hbar, delta)
    k_dd, dk_dd, _ = block(delta, delta)
    r_raw = (k_hh - 2.0 * k_hd + k_dd) / n2
    dr_dh = (-2.0 / n2) * (s_hh - s_hd) / lam[:, None]
    dr_dlam = (dk_hh - 2.0 * dk_hd + dk_dd) / (n2 * lam**2)

    clamped = r_raw <= 0.0
    r = np.where(clamped, 0.0, r_raw)
    dr_dh = np.where(clamped[:, None], 0.0, dr_dh)
    dr_dlam = np.where(clamped, 0.0, dr_dlam)
    return r, dr_dh, dr_dlam


def chance_probability_oracle(
    mu: float, sigma: float, d_o: float, n_draws: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo estimate of P(d_o - d >= 0) for d ~ N(mu, sigma^2).

    Validation-only reference; equals Phi((d_o - mu) / sigma) in expectation.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    d = rng.normal(mu, sigma, n_draws)
    return float(np.mean(d_o - d >= 0.0))

"""Collision-risk surrogate: constraint residuals and their empirical MMD to zero.

The risk of a clearance distribution is the squared RKHS distance between the
empirical embedding of its constraint-violation samples and the embedding of a
near-Dirac reference at zero. Small values mean the violation mass sits at
zero, i.e. the clearance constraint holds with high probability. The kernel is
the Laplacian K(z, z') = exp(-|z - z'| / lam) with width lam > 0.

Per row, r is the V-statistic (diagonal included; Gretton et al., JMLR 2012)
of N violations h against N reference draws d: with z = [h | d] and weights
w = +1 / -1, N^2 r = sum_ab w_a w_b K(z_a, z_b). Sorted once per row, K is a
product of exp(-gap / lam) factors, so one upward and one downward recurrence
give each sample's weighted kernel sums below and above it; r, dr/dh and dr/dlam
follow in O(B N log N) time and O(B N) memory. The value needs only the upward
pass, which is all mmd_batch runs. The pool is sorted with numpy's default
argsort, which is not stable: inside a tie run of one sign every quantity the
passes read is order-free, so only a batch holding a run that mixes h and d
samples (every batch with a non-finite row, whose pool is zeroed) is sorted
again, stably. Exact ties count in r with K = 1 and add
nothing to the gradient (sign(0) = 0); most violations are exactly 0, so a run
of ties hands on its summed weight as an exact integer, losing no precision.
Each run gets an id, distinct across rows, and one bincount of the weights by
id sums every run of the batch.
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
    """Squared MMD per row, from the upward pass alone; see mmd_batch_grad."""
    return _upward_pass(hbar, delta, lam)[0]


def mmd_batch_grad(hbar: np.ndarray, delta: np.ndarray,
                   lam: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared MMD per row of hbar (B, N) against delta ((N,) or (B, N)) with dr/dhbar
    (B, N) and dr/dlam (B,); lam is a scalar or (B,). Rows cancelling to r <= 0 report
    r = 0 and zero gradients; rows holding a non-finite sample report NaN."""
    r, (lam, flat, w, gap, decay, starts, run_w, up, below, clamped, bad) = _upward_pass(
        hbar, delta, lam)
    m, b = flat.shape
    n = m // 2
    down = np.where(starts[:-1], run_w, 0.0)
    step = gap * (below[:-1] + up[:-1])

    # above[k] = sum over z_j > z_k of w_j K(z_j, z_k),
    # dist[k] = sum over z_j < z_k of w_j (z_k - z_j) K(z_j, z_k)
    above, dist = np.zeros((2, m, b))
    _recur(list(dist), step, decay)
    _recur(list(above)[::-1], down[::-1], decay[::-1])  # the same recurrence, run downwards
    g = np.empty((m, b))
    g.ravel()[flat] = below - above

    n2 = float(n * n)
    dr_dh = (-2.0 / n2) * g[:n].T / lam[..., None]
    dr_dlam = 2.0 * (w * dist).sum(axis=0) / (n2 * lam**2)
    for out in (dr_dh, dr_dlam):
        out[clamped] = 0.0
        out[bad] = np.nan
    return r, dr_dh, dr_dlam


def _upward_pass(hbar, delta, lam):
    """The value r and what the gradients continue from: the checked inputs, the
    sorted pool, its tie runs and the upward recurrence `below`."""
    hbar, delta, lam = (np.asarray(a, dtype=float) for a in (hbar, delta, lam))
    if hbar.ndim != 2 or hbar.shape[1] < 1:
        raise ValueError(f"hbar must be (B, N) with N >= 1, got shape {hbar.shape}")
    b, n = hbar.shape
    if delta.shape not in ((n,), (b, n)):
        raise ValueError(f"delta must be ({n},) or {hbar.shape}, got shape {delta.shape}")
    if lam.shape not in ((), (b,)) or not np.all(np.isfinite(lam) & (lam > 0)):
        raise ValueError(f"kernel width lam must be positive and finite, of shape () or ({b},)")

    # pooled samples, position-major so that each step of a scan is one row
    z = np.concatenate([hbar.T, np.broadcast_to(delta, hbar.shape).T])  # (2N, B)
    bad = ~np.isfinite(z).all(axis=0)
    z[:, bad] = 0.0
    col = np.arange(b)
    for kind in (None, "stable"):
        flat = np.argsort(z, axis=0, kind=kind)
        w = np.where(flat < n, 1.0, -1.0)
        flat *= b
        flat += col  # flat index of each sorted sample in z
        zs = z.ravel()[flat]
        gap = np.diff(zs, axis=0)
        # a tie run of one sign reads the same in any order; only a run mixing
        # h and delta samples needs the stable order
        if not np.any((gap == 0.0) & (w[1:] != w[:-1])):
            break
    decay = np.exp(-gap / lam)

    # runs of ties hand on their summed weight at their last sample going up, first going down
    starts = np.ones((2 * n + 1, b), dtype=bool)  # [k]: a run starts at sample k
    starts[1:-1] = gap > 0.0
    rid = np.cumsum(starts[:-1], axis=0) - 1 + col * (2 * n)  # run ids unique per row
    run_w = np.bincount(rid.ravel(), weights=w.ravel(), minlength=2 * n * b)[rid]
    up = np.where(starts[1:], run_w, 0.0)

    # below[k] = sum over z_j < z_k of w_j K(z_j, z_k)
    below = np.zeros((2 * n, b))
    _recur(list(below), up, decay)

    r = (w * (run_w + 2.0 * below)).sum(axis=0) / float(n * n)
    clamped = r <= 0.0
    r[clamped] = 0.0
    r[bad] = np.nan
    return r, (lam, flat, w, gap, decay, starts, run_w, up, below, clamped, bad)


def _recur(rows, add, decay) -> None:
    """rows[k] = decay[k - 1] * (rows[k - 1] + add[k - 1]) for k >= 1, in place;
    rows is a list of row views, so the loop allocates nothing."""
    for prev, cur, a, d in zip(rows, rows[1:], add, decay):
        np.add(prev, a, out=cur)
        np.multiply(d, cur, out=cur)

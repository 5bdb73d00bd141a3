"""Batched losses, the risk head, and gradient-descent training of the clearance model.

Two training modes mirror the two architectures:

* ``baseline``  - heteroscedastic Gaussian NLL on the (mu, sigma) heads only.
  The kernel-width head and the risk classifier receive exactly zero gradient.
* ``augmented`` - NLL plus a cross-entropy term computed by the risk head:
  reparameterized clearance samples -> constraint violations -> empirical MMD
  (with the predicted kernel width) -> small classifier -> softmax. The CE
  gradient flows back into the mean, spread, and width heads through the
  sampling noise, which is recorded so every step can be replayed exactly for
  finite-difference verification.

A third, test-only mode ``nll_sigma_penalty`` adds a direct penalty on the
predicted spread; it exists to document the variance-collapse failure that the
cross-entropy supervision avoids.

All gradients are hand-derived; `finite_difference_check` is the entry point
that validates them against central differences with replayed noise.
"""
from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .data import ClearanceDataset
from .dynamics import RobotState
from .model import ModelParams, PolarFeaturizer, RiskHeadParams, forward_batch, sigmoid
from .risk import draw_dirac_samples, mmd_batch, mmd_batch_grad, residual
from .world import _check_counts

MODES = ("baseline", "augmented", "nll_sigma_penalty")
_WEIGHT_NORM_LIMIT = 1e6  # init gives ~12; weights past this mean a step size far too large


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainConfig:
    risk_samples: int = 50  # reparameterized draws per sample
    d_o: float = 0.3  # robot footprint radius (m)
    learning_rate: float = 2e-3
    momentum: float = 0.9
    epochs: int = 60
    batch_size: int = 256
    nll_weight: float = 1.0
    ce_weight: float = 1.0
    sigma_penalty: float = 0.0  # only read in mode "nll_sigma_penalty"
    seed: int = 0
    holdout_fraction: float = 0.1
    hidden: int = 64
    risk_hidden: int = 16
    n_sectors: int = 32
    dirac_variance: float = 1e-5
    grad_clip: float | None = None

    def __post_init__(self):
        _check_counts(self, "epochs", "batch_size", "risk_samples", "hidden", "risk_hidden", "n_sectors")
        if self.risk_samples < 2:
            raise ValueError("risk_samples must be >= 2")
        if self.d_o <= 0:
            raise ValueError("d_o must be positive")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")


# ---------------------------------------------------------------------------
# The shared forward pass and hand-derived gradients

def _softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def risk_head_forward(r: np.ndarray, phi: RiskHeadParams):
    """Scalar risk batch (B,) -> class probabilities (B, 2) plus backprop cache."""
    pre1 = r[:, None] * phi.v1[None, :] + phi.c1
    a1 = np.tanh(pre1)
    z = a1 @ phi.v2.T + phi.c2
    return _softmax(z), (a1, z)


@dataclass(eq=False)
class BatchNoise:
    """Fixed noise draws so a training step can be replayed bit-for-bit."""

    eps: np.ndarray  # (B, N) reparameterization noise
    dirac: np.ndarray  # (B, N) near-Dirac reference samples

    @classmethod
    def draw(cls, rng: np.random.Generator, batch: int, cfg: TrainConfig) -> "BatchNoise":
        return cls(
            eps=rng.standard_normal((batch, cfg.risk_samples)),
            dirac=draw_dirac_samples(
                rng, batch * cfg.risk_samples, cfg.dirac_variance
            ).reshape(batch, cfg.risk_samples),
        )


@dataclass
class LossTerms:
    total: float
    nll: float
    ce: float
    penalty: float = 0.0


@dataclass(eq=False)
class _Pass:
    """Forward-pass values shared by loss_and_grad and evaluate; risk fields are None without risk."""

    mu: np.ndarray
    sigma: np.ndarray
    cache: tuple  # forward_batch intermediates (x, h1, h2, sraw, lraw)
    err: np.ndarray  # d_gt - mu
    var: np.ndarray  # sigma ** 2
    nll: np.ndarray  # per-sample Gaussian negative log-likelihood
    hbar: np.ndarray | None = None  # (B, N) violations max(0, d_o - (mu + sigma * eps))
    r: np.ndarray | None = None  # (B,) MMD risk
    dr_dh: np.ndarray | None = None
    dr_dlam: np.ndarray | None = None
    yhat: np.ndarray | None = None  # (B, 2) risk-head softmax [collision, safe]
    a1: np.ndarray | None = None  # risk-head hidden activations
    cls: np.ndarray | None = None  # (B,) class index, 1 = safe
    ce: np.ndarray | None = None  # (B,) cross entropy of the true class


def _forward(
    params: ModelParams,
    phi: RiskHeadParams,
    x: np.ndarray,
    d_gt: np.ndarray,
    safe: np.ndarray,
    noise: BatchNoise,
    cfg: TrainConfig,
    risk: bool,
    grad: bool = True,
) -> _Pass:
    """Network and NLL; with risk also reparameterized samples mu + sigma * eps,
    their violations, the MMD against the near-Dirac draws (with its gradients
    unless grad is False), and the risk head."""
    mu, sigma, lam, cache = forward_batch(params, x, cache=True)
    var = sigma**2
    err = d_gt - mu
    nll = 0.5 * np.log(2.0 * math.pi * var) + err**2 / (2.0 * var)
    out = _Pass(mu, sigma, cache, err, var, nll)
    if risk:
        if not np.isfinite(lam).all():
            raise TrainingDiverged("the network predicts a non-finite kernel width")
        out.hbar = residual(mu[:, None] + sigma[:, None] * noise.eps, cfg.d_o)
        if grad:
            out.r, out.dr_dh, out.dr_dlam = mmd_batch_grad(out.hbar, noise.dirac, lam)
        else:
            out.r = mmd_batch(out.hbar, noise.dirac, lam)
        out.yhat, (out.a1, _) = risk_head_forward(out.r, phi)
        out.cls = safe.astype(int)
        out.ce = -np.log(out.yhat[np.arange(out.cls.size), out.cls])
    return out


def loss_and_grad(
    params: ModelParams,
    phi: RiskHeadParams,
    x: np.ndarray,
    d_gt: np.ndarray,
    safe: np.ndarray,
    noise: BatchNoise,
    mode: str,
    cfg: TrainConfig,
) -> tuple[LossTerms, ModelParams, RiskHeadParams]:
    """Batch-mean loss and gradients w.r.t. both parameter sets.

    In baseline / penalty modes the returned risk-head gradient and the
    kernel-width head gradient are exactly zero.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    b = x.shape[0]
    f = _forward(params, phi, x, d_gt, safe, noise, cfg, risk=mode == "augmented")
    mu, sigma, var, err = f.mu, f.sigma, f.var, f.err
    x, h1, h2, sraw, lraw = f.cache
    nll_mean = float(f.nll.mean())

    dmu = cfg.nll_weight * (mu - d_gt) / var / b
    dsigma = cfg.nll_weight * (1.0 / sigma - err**2 / sigma**3) / b
    dlam = np.zeros(b)
    grad = params.zeros_like()
    grad_phi = phi.zeros_like()

    ce_mean = 0.0
    penalty = 0.0
    if mode == "augmented":
        ce_mean = float(f.ce.mean())
        onehot = np.zeros((b, 2))
        onehot[np.arange(b), f.cls] = 1.0
        dz = cfg.ce_weight * (f.yhat - onehot) / b
        grad_phi.v2[...] = dz.T @ f.a1
        grad_phi.c2[...] = dz.sum(axis=0)
        da1 = dz @ phi.v2
        dpre1 = da1 * (1.0 - f.a1**2)
        grad_phi.v1[...] = (dpre1 * f.r[:, None]).sum(axis=0)
        grad_phi.c1[...] = dpre1.sum(axis=0)
        dr = dpre1 @ phi.v1

        dhbar = dr[:, None] * f.dr_dh
        dlam = dr * f.dr_dlam
        dd = -dhbar * (f.hbar > 0.0)
        dmu = dmu + dd.sum(axis=1)
        dsigma = dsigma + (dd * noise.eps).sum(axis=1)
    elif mode == "nll_sigma_penalty":
        penalty = float(cfg.sigma_penalty * sigma.mean())
        dsigma = dsigma + cfg.sigma_penalty / b

    dsraw = dsigma * sigmoid(sraw)
    dlraw = dlam * sigmoid(lraw)
    dg = np.column_stack([dmu, dsraw, dlraw])
    grad.w3[...] = dg.T @ h2
    grad.b3[...] = dg.sum(axis=0)
    dh2 = dg @ params.w3
    dpre2 = dh2 * (1.0 - h2**2)
    grad.w2[...] = dpre2.T @ h1
    grad.b2[...] = dpre2.sum(axis=0)
    dh1 = dpre2 @ params.w2
    dpre1h = dh1 * (1.0 - h1**2)
    grad.w1[...] = dpre1h.T @ x
    grad.b1[...] = dpre1h.sum(axis=0)

    total = cfg.nll_weight * nll_mean + cfg.ce_weight * ce_mean + penalty
    return LossTerms(total, nll_mean, ce_mean, penalty), grad, grad_phi


# ---------------------------------------------------------------------------
# Training loop

@dataclass
class LogRow:
    epoch: int
    nll: float
    ce: float
    holdout_accuracy: float
    mean_sigma: float
    median_sigma: float


@dataclass
class TrainingLog:
    rows: list[LogRow] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow([f.name for f in fields(LogRow)])
            w.writerows(astuple(r) for r in self.rows)


@dataclass(eq=False)
class TrainResult:
    params: ModelParams
    risk_head: RiskHeadParams
    log: TrainingLog
    holdout_index: np.ndarray
    meta: dict


def build_inputs(dataset: ClearanceDataset, n_sectors: int = 32) -> np.ndarray:
    """Assemble the flat model-input matrix: per-sample [observation | commands]."""
    featurizer = PolarFeaturizer(dataset.fov, dataset.max_range, n_sectors)
    obs = np.empty((dataset.n_snapshots, n_sectors + 2))
    clouds = np.split(dataset.points, np.cumsum(dataset.counts)[:-1])
    for s in range(dataset.n_snapshots):
        x, y, psi, v, w = dataset.states[s]
        obs[s] = featurizer.featurize(clouds[s], RobotState(x, y, psi, v, w))
    n = len(dataset)
    u_flat = dataset.controls.reshape(n, -1)
    return np.concatenate([obs[dataset.snapshot], u_flat], axis=1)


def _holdout_split(dataset: ClearanceDataset, cfg: TrainConfig):
    """Split sample indices by snapshot so shared clouds never leak across sides."""
    rng = np.random.default_rng([cfg.seed, 17])
    snaps = rng.permutation(dataset.n_snapshots)
    n_hold = int(round(dataset.n_snapshots * cfg.holdout_fraction))
    n_hold = min(max(n_hold, 1) if cfg.holdout_fraction > 0 else 0, dataset.n_snapshots - 1)
    hold_snaps = np.zeros(dataset.n_snapshots, dtype=bool)
    hold_snaps[snaps[:n_hold]] = True
    hold_mask = hold_snaps[dataset.snapshot]
    return np.flatnonzero(~hold_mask), np.flatnonzero(hold_mask)


def evaluate(
    params: ModelParams,
    phi: RiskHeadParams,
    x: np.ndarray,
    d_gt: np.ndarray,
    safe: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> dict:
    """Held-out metrics: NLL, CE, risk-head accuracy, spread statistics."""
    noise = BatchNoise.draw(rng, x.shape[0], cfg)
    f = _forward(params, phi, x, d_gt, safe, noise, cfg, risk=True, grad=False)
    return {
        "nll": float(f.nll.mean()),
        "ce": float(f.ce.mean()),
        "accuracy": float((f.yhat.argmax(axis=1) == f.cls).mean()),
        "mean_sigma": float(f.sigma.mean()),
        "median_sigma": float(np.median(f.sigma)),
        "sigma": f.sigma,
        "risk": f.r,
        "yhat": f.yhat,
        "mu": f.mu,
    }


def train(dataset: ClearanceDataset, cfg: TrainConfig, mode: str) -> TrainResult:
    """Mini-batch gradient descent with momentum; deterministic given cfg.seed.

    Raises TrainingDiverged on a non-finite loss or on a weight norm past _WEIGHT_NORM_LIMIT.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if cfg.d_o != dataset.d_o:  # the labels say safe at the dataset's radius, the risk at cfg's
        raise ValueError(f"TrainConfig.d_o {cfg.d_o} differs from the dataset's d_o {dataset.d_o}")
    x_all = build_inputs(dataset, cfg.n_sectors)
    train_idx, hold_idx = _holdout_split(dataset, cfg)
    d_gt = dataset.clearance
    safe = dataset.safe

    rng = np.random.default_rng([cfg.seed, 29])
    params = ModelParams.init(rng, cfg.n_sectors + 2, dataset.horizon, cfg.hidden)
    phi = RiskHeadParams.init(rng, cfg.risk_hidden)
    vel_theta = np.zeros_like(params.vector)
    vel_phi = np.zeros_like(phi.vector)

    log = TrainingLog()
    for epoch in range(cfg.epochs):
        order = rng.permutation(train_idx)
        nll_sum = ce_sum = 0.0
        n_batches = 0
        for lo in range(0, order.size, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            noise = BatchNoise.draw(rng, idx.size, cfg)
            terms, grad, grad_phi = loss_and_grad(
                params, phi, x_all[idx], d_gt[idx], safe[idx], noise, mode, cfg
            )
            if not math.isfinite(terms.total):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {n_batches}: "
                    f"nll={terms.nll:.4g} ce={terms.ce:.4g} penalty={terms.penalty:.4g}"
                )
            g_theta = grad.vector
            g_phi = grad_phi.vector
            if cfg.grad_clip is not None:
                norm = math.sqrt(float(g_theta @ g_theta) + float(g_phi @ g_phi))
                if norm > cfg.grad_clip:
                    scale = cfg.grad_clip / norm
                    g_theta = g_theta * scale
                    g_phi = g_phi * scale
            vel_theta = cfg.momentum * vel_theta - cfg.learning_rate * g_theta
            vel_phi = cfg.momentum * vel_phi - cfg.learning_rate * g_phi
            params.vector += vel_theta
            phi.vector += vel_phi
            nll_sum += terms.nll
            ce_sum += terms.ce
            n_batches += 1
        norm = math.hypot(np.linalg.norm(params.vector), np.linalg.norm(phi.vector))
        if not norm <= _WEIGHT_NORM_LIMIT:
            raise TrainingDiverged(f"weights blew up in epoch {epoch}: norm {norm:.4g}")
        rng_eval = np.random.default_rng([cfg.seed, 1000 + epoch])
        eval_idx = hold_idx if hold_idx.size else train_idx
        ev = evaluate(params, phi, x_all[eval_idx], d_gt[eval_idx], safe[eval_idx], cfg, rng_eval)
        log.rows.append(
            LogRow(
                epoch=epoch,
                nll=nll_sum / max(n_batches, 1),
                ce=ce_sum / max(n_batches, 1),
                holdout_accuracy=ev["accuracy"],
                mean_sigma=ev["mean_sigma"],
                median_sigma=ev["median_sigma"],
            )
        )
    meta = {
        "mode": mode,
        "n_sectors": cfg.n_sectors,
        "fov": dataset.fov,
        "max_range": dataset.max_range,
        "d_o": cfg.d_o,
        "dt": dataset.dt,
        "horizon": dataset.horizon,
        "hidden": cfg.hidden,
        "seed": cfg.seed,
    }
    return TrainResult(params, phi, log, hold_idx, meta)


# ---------------------------------------------------------------------------
# Finite-difference verification

def finite_difference_check(
    params: ModelParams,
    phi: RiskHeadParams,
    x: np.ndarray,
    d_gt: np.ndarray,
    safe: np.ndarray,
    noise: BatchNoise,
    mode: str,
    cfg: TrainConfig,
    n_coords: int,
    rng: np.random.Generator,
    delta: float = 1e-5,
) -> dict:
    """Compare analytic gradients against central differences with replayed noise.

    Coordinates are drawn uniformly over theta (and phi in augmented mode).
    Relative error uses max(|analytic|, |numeric|, 1e-6) as denominator so
    coordinates with negligible gradient are judged on absolute agreement.
    """
    _, grad, grad_phi = loss_and_grad(params, phi, x, d_gt, safe, noise, mode, cfg)
    analytic = np.concatenate([grad.vector, grad_phi.vector])
    n_theta = params.vector.size
    n_total = n_theta + (phi.vector.size if mode == "augmented" else 0)
    coords = rng.choice(n_total, size=min(n_coords, n_total), replace=False)

    def loss() -> float:
        return loss_and_grad(params, phi, x, d_gt, safe, noise, mode, cfg)[0].total

    errors = np.empty(coords.size)
    for j, c in enumerate(coords):
        vec, k = (params.vector, c) if c < n_theta else (phi.vector, c - n_theta)
        v0 = vec[k]
        try:
            vec[k] = v0 + delta
            loss_plus = loss()
            vec[k] = v0 - delta
            loss_minus = loss()
        finally:
            vec[k] = v0
        num = (loss_plus - loss_minus) / (2.0 * delta)
        ana = analytic[c]
        errors[j] = abs(ana - num) / max(abs(ana), abs(num), 1e-6)
    return {
        "max_rel_error": float(errors.max()),
        "mean_rel_error": float(errors.mean()),
        "n_coords": int(coords.size),
        "errors": errors,
        "coords": coords,
    }

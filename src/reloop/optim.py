"""Parameter updates (SGD, Adam) and the deterministic mini-batch trainer.

Embedding and linear tables get per-row sparse updates: the model hands
back compact gradients over the batch's unique rows (``Grads.rows``), and
SGD and lazy Adam touch only those rows of the parameters and moments.
Moments of rows a batch never touched are neither decayed nor
bias-corrected away, the standard treatment for large sparse tables. Dense
blocks (bias, perceptron and cross layers, head) update densely every step.

Epoch shuffles come from a counter-based generator keyed by (seed, epoch),
and per-batch gradients are reduced in batch index order, so training is
bitwise reproducible for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import Dataset
from .losses import LossConfig, LossInputError, combined_vec, grad_z_vec
from .models import Grads, Params, backward_batch, forward_batch
from .rng import philox

OPTIMIZER_KINDS = ("sgd", "adam")

_SHUFFLE_STREAM = 7


class DivergenceError(RuntimeError):
    """Training diverged: an epoch's mean loss is not finite."""


@dataclass
class TrainConfig:
    """Mini-batch training settings; defaults suit desk-scale CTR runs."""

    batch_size: int = 256
    epochs: int = 5
    seed: int = 0
    shuffle: bool = True
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")


@dataclass
class OptimizerState:
    """Update rule plus Adam moment accumulators shaped like the params."""

    kind: str
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: Params | None = None
    v: Params | None = None

    @classmethod
    def for_params(cls, cfg: TrainConfig, params: Params) -> "OptimizerState":
        state = cls(
            kind=cfg.optimizer,
            lr=cfg.lr,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            eps=cfg.eps,
        )
        if state.kind == "adam":
            state.m = params.zeros_like()
            state.v = params.zeros_like()
        return state


def _adam_dense(state, theta, g, m, v, c1, c2):
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * (g * g)
    theta -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def _adam_rows(state, theta, g, m, v, rows, c1, c2):
    """Lazy Adam on table rows ``rows``; ``g`` is compact, one entry per row."""
    mr = state.beta1 * m[rows] + (1.0 - state.beta1) * g
    vr = state.beta2 * v[rows] + (1.0 - state.beta2) * (g * g)
    m[rows] = mr
    v[rows] = vr
    theta[rows] -= state.lr * (mr / c1) / (np.sqrt(vr / c2) + state.eps)


def apply_update(
    state: OptimizerState, params: Params, grads: Grads
) -> tuple[Params, OptimizerState]:
    """One optimizer step, in place; returns (params, state) for chaining."""
    if (grads.linear is None) != (params.linear is None) or (
        (grads.emb is None) != (params.emb is None)
    ):
        raise ValueError("gradient shape does not match parameters")
    state.step_count += 1
    if state.kind == "sgd":
        params.bias -= state.lr * grads.bias
        rows = grads.rows
        if params.linear is not None:
            params.linear[rows] -= state.lr * grads.linear
        if params.emb is not None:
            params.emb[rows] -= state.lr * grads.emb
        for (w, b), (gw, gb) in zip(params.mlp, grads.mlp):
            w -= state.lr * gw
            b -= state.lr * gb
        for (w, b), (gw, gb) in zip(params.cross, grads.cross):
            w -= state.lr * gw
            b -= state.lr * gb
        if params.head is not None:
            params.head -= state.lr * grads.head
        return params, state

    t = state.step_count
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    m, v = state.m, state.v

    # scalar bias as a 0-d special case of the dense rule
    m.bias = state.beta1 * m.bias + (1.0 - state.beta1) * grads.bias
    v.bias = state.beta2 * v.bias + (1.0 - state.beta2) * grads.bias**2
    params.bias -= state.lr * (m.bias / c1) / (np.sqrt(v.bias / c2) + state.eps)

    rows = grads.rows
    if params.linear is not None:
        _adam_rows(state, params.linear, grads.linear, m.linear, v.linear, rows, c1, c2)
    if params.emb is not None:
        _adam_rows(state, params.emb, grads.emb, m.emb, v.emb, rows, c1, c2)
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(
        params.mlp, grads.mlp, m.mlp, v.mlp
    ):
        _adam_dense(state, w, gw, mw, vw, c1, c2)
        _adam_dense(state, b, gb, mb, vb, c1, c2)
    for (w, b), (gw, gb), (mw, mb), (vw, vb) in zip(
        params.cross, grads.cross, m.cross, v.cross
    ):
        _adam_dense(state, w, gw, mw, vw, c1, c2)
        _adam_dense(state, b, gb, mb, vb, c1, c2)
    if params.head is not None:
        _adam_dense(state, params.head, grads.head, m.head, v.head, c1, c2)
    return params, state


def epoch_permutation(seed: int, epoch: int, n: int) -> np.ndarray:
    """Shuffle order for one epoch; a pure function of (seed, epoch, n)."""
    return philox(seed, _SHUFFLE_STREAM, epoch).permutation(n)


def train_epochs(
    params: Params, dataset: Dataset, cfg: TrainConfig
) -> tuple[Params, list[float]]:
    """Train in place over epochs x ceil(n/batch) mini-batches.

    Per-batch loss is the mean per-sample objective and gradients are
    averaged over the batch, so lr is independent of batch size. Returns the
    params and the per-epoch mean training loss.

    Raises:
        LossInputError: reloop/kd configured but rows lack y_last.
        DivergenceError: an epoch's mean loss is not finite; checked once per
            epoch, after its last step.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    if cfg.loss.needs_y_last and dataset.y_last is None:
        rid = int(dataset.row_ids[0])
        raise LossInputError(
            f"loss kind {cfg.loss.kind!r} requires y_last on every training row; "
            f"missing starting at row_id {rid}"
        )

    state = OptimizerState.for_params(cfg, params)
    log: list[float] = []
    for epoch in range(cfg.epochs):
        if cfg.shuffle:
            order = epoch_permutation(cfg.seed, epoch, n)
        else:
            order = np.arange(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            y = dataset.labels[sel]
            y_last = None if dataset.y_last is None else dataset.y_last[sel]
            _, p, trace = forward_batch(
                params, dataset.indices[sel], dataset.values[sel]
            )
            losses = combined_vec(cfg.loss, y, p, y_last)
            total += float(losses.sum())
            dl_dz = grad_z_vec(cfg.loss, y, p, y_last) / sel.shape[0]
            grads = backward_batch(params, trace, dl_dz)
            apply_update(state, params, grads)
        mean = total / n
        if not np.isfinite(mean):
            raise DivergenceError(
                f"training diverged: epoch {epoch + 1} of {cfg.epochs} has mean "
                f"loss {mean}, which is not finite"
            )
        log.append(mean)
    return params, log

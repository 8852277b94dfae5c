"""Per-sample training objectives and their exact logit derivatives.

Three objectives over a predicted click probability y_hat = sigmoid(z):

  ce      -y log(y_hat) - (1-y) log(1-y_hat)
  sc      y max(y_last - y_hat, 0) + (1-y) max(y_hat - y_last, 0)
  kd      -y_last log(y_hat) - (1-y_last) log(1-y_hat)

``sc`` is a hinge on the gap to the previous model version's score y_last: it
charges only when the current prediction is worse than the predecessor's in
the direction of the label, and is flat (zero, zero gradient) once the model
does at least as well. The trainable blend is alpha*sc + (1-alpha)*ce; ``kd``
is the soft-target baseline and is used alone.

Every function takes arrays, one entry per sample; a single sample is a
batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_CLIP = 1e-7

LOSS_KINDS = ("ce", "reloop", "kd")


class LossInputError(ValueError):
    """Loss configuration or required inputs are inconsistent."""


@dataclass(frozen=True)
class LossConfig:
    """Loss kind plus the blend weight alpha, which only reloop reads: ce and
    kd ignore it, and a loop report records alpha 0 for them.

    reloop and kd both require every training instance to carry y_last.
    """

    kind: str = "ce"
    alpha: float = 0.2

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise LossInputError(f"unknown loss kind {self.kind!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise LossInputError(f"alpha must lie in [0, 1], got {self.alpha}")

    @property
    def needs_y_last(self) -> bool:
        return self.kind in ("reloop", "kd")


def clip_prob(p):
    """``p`` clipped into [1e-7, 1 - 1e-7], the package's one probability clip:
    losses, logged scores and y_last columns all pass through it."""
    return np.clip(p, _CLIP, 1.0 - _CLIP)


def ce_vec(y: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Binary cross-entropy with probability clipping."""
    pc = clip_prob(p)
    return -y * np.log(pc) - (1.0 - y) * np.log(1.0 - pc)


def sc_vec(y: np.ndarray, p: np.ndarray, y_last: np.ndarray) -> np.ndarray:
    """Self-correction hinge against the previous model's score."""
    return y * np.maximum(y_last - p, 0.0) + (1.0 - y) * np.maximum(p - y_last, 0.0)


def kd_vec(y_last: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distillation cross-entropy against the previous score as soft target."""
    return ce_vec(clip_prob(y_last), p)


def combined_vec(cfg: LossConfig, y, p, y_last=None) -> np.ndarray:
    """Configured per-sample objective; reloop blends sc and ce by alpha."""
    if cfg.kind == "ce":
        return ce_vec(y, p)
    if y_last is None:
        raise LossInputError(f"loss kind {cfg.kind!r} requires y_last")
    if cfg.kind == "kd":
        return kd_vec(y_last, p)
    return cfg.alpha * sc_vec(y, p, y_last) + (1.0 - cfg.alpha) * ce_vec(y, p)


def grad_z_vec(cfg: LossConfig, y, p, y_last=None) -> np.ndarray:
    """Exact dL/dz at p = sigmoid(z).

    ce: p - y. kd: p - y_last. sc: the hinge slope in probability space
    chained through sigmoid'(z) = p (1 - p); the subgradient at p == y_last
    is 0, so exact ties are penalty- and gradient-free.
    """
    if cfg.kind == "ce":
        return p - y
    if y_last is None:
        raise LossInputError(f"loss kind {cfg.kind!r} requires y_last")
    if cfg.kind == "kd":
        return p - y_last
    dl_dp = -y * (y_last > p) + (1.0 - y) * (p > y_last)
    return cfg.alpha * (dl_dp * p * (1.0 - p)) + (1.0 - cfg.alpha) * (p - y)


def emit_loss_curves(y: int, y_last: float, y_hat_grid: np.ndarray) -> np.ndarray:
    """Table of (y_hat, l_ce, l_kd, l_sc) over a probability grid in (0, 1).

    Lays the three objectives side by side for one (label, prior score)
    scenario so their geometry can be compared numerically or plotted.
    """
    grid = np.asarray(y_hat_grid, dtype=np.float64)
    if grid.size == 0 or np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise LossInputError("y_hat grid must lie strictly inside (0, 1)")
    ybc = np.full_like(grid, float(y))
    tbc = np.full_like(grid, float(y_last))
    return np.column_stack(
        [grid, ce_vec(ybc, grid), kd_vec(tbc, grid), sc_vec(ybc, grid, tbc)]
    )


def write_loss_curves(path, table: np.ndarray) -> None:
    """Write a curve table as CSV with 9-significant-digit decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("y_hat,l_ce,l_kd,l_sc\n")
        for row in table:
            fh.write(",".join(format(v, ".9g") for v in row) + "\n")

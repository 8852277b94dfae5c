"""Helpers for finite-difference gradient checks.

Flatten/unflatten helpers for parameters and gradients, and the
single-instance forms of the model and loss functions: thin wrappers over
``forward_batch``, ``backward_batch`` and the ``*_vec`` losses, which treat
one sample as a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reloop.losses import LossConfig, ce_vec, combined_vec, grad_z_vec, kd_vec, sc_vec
from reloop.models import Grads, Params, Trace, backward_batch, forward_batch


@dataclass(frozen=True)
class EncodedInstance:
    """One hashed sample: label, per-field indices, optional prior score."""

    label: int
    indices: np.ndarray  # (F,) int64, global feature indices
    row_id: int
    y_last: float | None = None


def forward(params: Params, instance: EncodedInstance) -> tuple[float, float, Trace]:
    """Single-instance logit, probability and trace."""
    z, p, trace = forward_batch(params, instance.indices[None, :])
    return float(z[0]), float(p[0]), trace


def backward(params: Params, trace: Trace, dl_dz: float) -> Grads:
    """Single-instance gradients for a trace produced by ``forward``."""
    return backward_batch(params, trace, np.array([dl_dz], dtype=np.float64))


def ce_loss(y: float, y_hat: float) -> float:
    return float(ce_vec(np.float64(y), np.float64(y_hat)))


def sc_loss(y: float, y_hat: float, y_last: float) -> float:
    return float(sc_vec(np.float64(y), np.float64(y_hat), np.float64(y_last)))


def kd_loss(y_last: float, y_hat: float) -> float:
    return float(kd_vec(np.float64(y_last), np.float64(y_hat)))


def combined_loss(cfg: LossConfig, y: float, y_hat: float,
                  y_last: float | None = None) -> float:
    return float(combined_vec(cfg, np.float64(y), np.float64(y_hat), y_last))


def loss_grad_z(cfg: LossConfig, y: float, y_hat: float,
                y_last: float | None = None) -> float:
    return float(grad_z_vec(cfg, np.float64(y), np.float64(y_hat), y_last))


def params_to_vector(p: Params) -> np.ndarray:
    return np.concatenate([[p.bias]] + [a.ravel() for _, a in p.blocks()])


def set_params_from_vector(p: Params, vec: np.ndarray) -> None:
    p.bias = float(vec[0])
    i = 1
    for _, a in p.blocks():
        a.ravel()[:] = vec[i : i + a.size]
        i += a.size
    assert i == vec.size


def dense_table(compact: np.ndarray, rows: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Scatter a compact table gradient into zeros shaped like ``table``."""
    out = np.zeros_like(table)
    out[rows] = compact
    return out


def grads_to_vector(g: Grads, p: Params) -> np.ndarray:
    """Flatten grads in params_to_vector order, table rows scattered dense.

    ``p`` supplies the table sizes that compact gradients do not carry.
    """
    blocks = [
        dense_table(a, g.rows, pa) if name in ("linear", "emb") else a
        for (name, a), (_, pa) in zip(g.blocks(), p.blocks())
    ]
    return np.concatenate([[g.bias]] + [a.ravel() for a in blocks])


def relative_errors(fd: np.ndarray, an: np.ndarray, floor: float = 1e-2) -> np.ndarray:
    """|fd - an| over max(|fd|, |an|, floor).

    The floor turns the check into an absolute bound for tiny gradients,
    where central differences at h=1e-6 carry ~1e-8 of roundoff noise that a
    bare relative error would amplify.
    """
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), floor)
    return np.abs(fd - an) / denom

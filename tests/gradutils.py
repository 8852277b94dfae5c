"""Flatten/unflatten helpers for finite-difference gradient checks."""

from __future__ import annotations

import numpy as np

from reloop.models import Grads, Params


def params_to_vector(p: Params) -> np.ndarray:
    blocks = [np.array([p.bias])]
    if p.linear is not None:
        blocks.append(p.linear.ravel())
    if p.emb is not None:
        blocks.append(p.emb.ravel())
    for w, b in p.mlp:
        blocks += [w.ravel(), b.ravel()]
    for w, b in p.cross:
        blocks += [w.ravel(), b.ravel()]
    if p.head is not None:
        blocks.append(p.head.ravel())
    return np.concatenate(blocks)


def set_params_from_vector(p: Params, vec: np.ndarray) -> None:
    i = 1
    p.bias = float(vec[0])

    def fill(a: np.ndarray):
        nonlocal i
        a.ravel()[:] = vec[i : i + a.size]
        i += a.size

    if p.linear is not None:
        fill(p.linear)
    if p.emb is not None:
        fill(p.emb)
    for w, b in p.mlp:
        fill(w)
        fill(b)
    for w, b in p.cross:
        fill(w)
        fill(b)
    if p.head is not None:
        fill(p.head)
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
    blocks = [np.array([g.bias])]
    if g.linear is not None:
        blocks.append(dense_table(g.linear, g.rows, p.linear).ravel())
    if g.emb is not None:
        blocks.append(dense_table(g.emb, g.rows, p.emb).ravel())
    for w, b in g.mlp:
        blocks += [w.ravel(), b.ravel()]
    for w, b in g.cross:
        blocks += [w.ravel(), b.ravel()]
    if g.head is not None:
        blocks.append(g.head.ravel())
    return np.concatenate(blocks)


def relative_errors(fd: np.ndarray, an: np.ndarray, floor: float = 1e-2) -> np.ndarray:
    """|fd - an| over max(|fd|, |an|, floor).

    The floor turns the check into an absolute bound for tiny gradients,
    where central differences at h=1e-6 carry ~1e-8 of roundoff noise that a
    bare relative error would amplify.
    """
    denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), floor)
    return np.abs(fd - an) / denom

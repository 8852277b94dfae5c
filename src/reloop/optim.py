"""Parameter updates (SGD, Adam) and the deterministic mini-batch trainer.

Each optimizer's rule is written once, in ``_step``, and each step applies
it once per step group: to one flat vector of the dense blocks (perceptron
and cross layers, head) followed by the bias, which update densely every
step; then to each table (linear, embedding) over the batch's unique rows
only. The model hands back compact table gradients over those rows
(``Grads.rows``), so SGD and lazy Adam touch only them. Moments of rows a
batch never touched are neither decayed nor bias-corrected away, the
standard treatment for large sparse tables. Adam's state is one (m, v)
pair of moments per step group, in step order
(``OptimizerState.moments``). Adam's decay rates and denominator floor are
the fixed constants below.

``train_epochs`` is the one training loop. It trains a sub-table: the
linear and embedding rows the dataset touches, in row order, with the dense
blocks shared. So Adam's table moments have one row per row in use, not one
per table row. Params holding exactly those rows (a cold model version; see
``models``) are that sub-table and train in place. Otherwise (a warm
version) the rows are gathered from the tables the params hold, whole or
held rows, through ``models.table_rows``' map, and written back through it
when training ends or diverges.

Epoch shuffles come from a counter-based generator keyed by (seed, epoch).
Each epoch gathers the columns its loss reads once, in shuffle order, and
its mini-batches are contiguous slices of that copy. Per-batch gradients
are reduced in batch index order, so training is bitwise reproducible for
identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .features import Dataset
from .losses import LossConfig, LossInputError, combined_vec, grad_z_vec
from .models import (Grads, Params, backward_batch, check_indices, forward_batch,
                     table_rows, unique_rows)
from .rng import philox

OPTIMIZER_KINDS = ("sgd", "adam")

_SHUFFLE_STREAM = 7
_B1, _B2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


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

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 < self.lr < np.inf:  # NaN fails too
            raise ValueError(f"lr must be positive and finite, got {self.lr}")


@dataclass
class OptimizerState:
    """Update rule, step count and Adam's moments.

    ``moments`` holds one (m, v) pair per step group, in the order
    ``apply_update`` steps them: the dense vector (the dense blocks in layout
    order, then the bias), then each table the params hold (linear, then
    emb), shaped like that table. SGD keeps no moments, so its list is empty.
    Build a state with ``for_params``.
    """

    kind: str
    lr: float
    step_count: int = 0
    moments: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.kind!r}")

    @classmethod
    def for_params(cls, cfg: TrainConfig, params: Params) -> "OptimizerState":
        state = cls(kind=cfg.optimizer, lr=cfg.lr)
        if state.kind == "adam":
            state.moments = [(np.zeros(s), np.zeros(s)) for s in _moment_shapes(params)]
        return state


def _step(state: OptimizerState, g: np.ndarray, m=None, v=None) -> np.ndarray:
    """The amount to subtract from the parameters whose gradient is ``g``.

    SGD: lr g. Adam advances its moments ``m`` and ``v`` in place,
    m = _B1 m + (1 - _B1) g and v = _B2 v + (1 - _B2) g^2, and returns
    lr (m / c1) / (sqrt(v / c2) + _EPS) with c = 1 - _B^t.
    """
    if state.kind == "sgd":
        return state.lr * g
    t = state.step_count
    m *= _B1
    m += (1.0 - _B1) * g
    v *= _B2
    g2 = g * g
    g2 *= 1.0 - _B2
    v += g2
    step = m / (1.0 - _B1**t)
    step *= state.lr
    den = v / (1.0 - _B2**t)
    np.sqrt(den, out=den)
    den += _EPS
    step /= den
    return step


def _tables(p) -> tuple:
    return (p.linear, p.emb)


def _moment_shapes(params: Params) -> list[tuple[int, ...]]:
    """The shape of each step group, in step order: the dense vector (the
    dense blocks, then the bias slot), then each table the params hold."""
    n_dense = sum(a.size for a in params.dense_blocks())
    return [(n_dense + 1,)] + [t.shape for t in _tables(params) if t is not None]


def apply_update(
    state: OptimizerState, params: Params, grads: Grads
) -> tuple[Params, OptimizerState]:
    """One optimizer step, in place; returns (params, state) for chaining.

    The dense blocks and the bias take one step over one flat vector; each
    table takes one over the rows of the batch, so (lazy Adam) the moments
    of the other rows stay as they are. Each step group takes the next
    (m, v) pair of ``state.moments``.

    Raises:
        ValueError: the gradients hold other tables or another dense size
            than the params, or the state's moments do not fit the params
            (it was not built by ``OptimizerState.for_params`` for them);
            raised before any change.
    """
    shapes = _moment_shapes(params)
    g = np.concatenate([a.ravel() for a in grads.dense_blocks()] + [[grads.bias]])
    if (g.shape != shapes[0]
            or [t is None for t in _tables(params)] != [t is None for t in _tables(grads)]):
        raise ValueError("gradient shape does not match parameters")
    tables = [(theta, g) for theta, g in zip(_tables(params), _tables(grads))
              if theta is not None]
    want = shapes if state.kind == "adam" else []
    got = [(m.shape, v.shape) for m, v in state.moments]
    if got != [(s, s) for s in want]:
        raise ValueError(
            f"{state.kind} state has moment shapes {got}, the params need {want} "
            "for m and v each; build it with OptimizerState.for_params"
        )
    state.step_count += 1
    pairs = iter(state.moments)

    step = _step(state, g, *next(pairs, ()))
    lo = 0
    for theta in params.dense_blocks():
        theta -= step[lo : lo + theta.size].reshape(theta.shape)
        lo += theta.size
    params.bias -= step[lo]

    # np.take gathers the same values as fancy indexing, faster
    rows = grads.rows
    for theta, g in tables:
        pair = next(pairs, ())
        at_rows = [np.take(a, rows, axis=0) for a in pair]
        theta[rows] = np.take(theta, rows, axis=0) - _step(state, g, *at_rows)
        for a, a_rows in zip(pair, at_rows):
            a[rows] = a_rows
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

    Training runs on the sub-table of feature rows the dataset touches, and
    Adam's moments are sized by those rows. When ``params`` holds exactly
    those rows its tables are that sub-table, trained in place, and no map
    to table rows is built; otherwise the rows are gathered from its tables
    through ``table_rows``' map, and written back with the bias also when an
    error ends training. The rows keep their order, so every sum and
    update is bitwise what a loop over the full table gives. Rows the data
    never touches keep their bytes.
    An epoch shuffles only the columns the loss reads: indices, labels and,
    for reloop and kd, y_last.

    Raises:
        DimensionError: an index is out of range, or names a row held-rows
            params do not hold; raised before any step.
        LossInputError: reloop/kd configured but rows lack y_last.
        DivergenceError: an epoch's mean loss is not finite; checked once per
            epoch, after its last step. numpy's overflow and invalid-value
            warnings on the way there are suppressed, since this error
            reports the same condition.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    columns = [dataset.indices, dataset.labels]
    if cfg.loss.needs_y_last:
        if dataset.y_last is None:
            raise LossInputError(
                f"loss kind {cfg.loss.kind!r} requires y_last on every training row; "
                f"missing starting at row_id {int(dataset.row_ids[0])}"
            )
        columns.append(dataset.y_last)

    # train a sub-table of the rows the data touches; dense blocks are shared
    check_indices(params, dataset.indices)
    used, slot = unique_rows(dataset.indices, params.n_features)
    # params holding only rows in use are the sub-table: no map, copy or write-back
    in_place = (used.size == params.n_features if params.rows is None
                else np.array_equal(used, params.rows))
    sub = replace(params, n_features=used.size, rows=None)
    if not in_place:
        at = table_rows(params)(used)
        sub.linear, sub.emb = (None if t is None else t[at] for t in _tables(params))
    state = OptimizerState.for_params(cfg, sub)
    # one epoch's rows in shuffle order, gathered once into reused buffers
    shuffled = [np.empty_like(c) for c in columns]
    log: list[float] = []
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(cfg.epochs):
                if cfg.shuffle:
                    order = epoch_permutation(cfg.seed, epoch, n)
                else:
                    order = np.arange(n)
                for c, out in zip(columns, shuffled):
                    # order is a permutation, so "clip" never clips; unlike the
                    # default "raise", it lets take write straight into out
                    np.take(c, order, axis=0, out=out, mode="clip")
                total = 0.0
                for lo in range(0, n, cfg.batch_size):
                    # y_last is [] for ce, so the losses see their default None
                    idx, y, *y_last = (c[lo : lo + cfg.batch_size] for c in shuffled)
                    _, p, trace = forward_batch(sub, slot[idx])
                    total += float(combined_vec(cfg.loss, y, p, *y_last).sum())
                    dl_dz = grad_z_vec(cfg.loss, y, p, *y_last) / len(y)
                    apply_update(state, sub, backward_batch(sub, trace, dl_dz))
                mean = total / n
                if not np.isfinite(mean):
                    raise DivergenceError(
                        f"training diverged: epoch {epoch + 1} of {cfg.epochs} has mean "
                        f"loss {mean}, which is not finite"
                    )
                log.append(mean)
    finally:
        # also on DivergenceError: params holds every step taken so far
        params.bias = sub.bias
        if not in_place:
            for theta, trained in zip(_tables(params), _tables(sub)):
                if theta is not None:
                    theta[at] = trained
    return params, log

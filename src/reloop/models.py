"""CTR predictors over sparse hashed features: LR, FM, MLP, DeepFM, DCN.

Every model maps an instance's hashed indices i_1..i_F to a logit z with
y_hat = sigmoid(z), and exposes exact hand-derived gradients:

  lr      z = b + sum_f w[i_f]
  fm      z = lr + 0.5 sum_k [(sum_f e[i_f,k])^2 - sum_f e[i_f,k]^2]
  mlp     z = b + affine(relu stack over concat of field embeddings)
  deepfm  z = fm + mlp branch, embeddings shared between both
  dcn     cross stack x_{l+1} = x0 (w_l . x_l) + b_l + x_l alongside a relu
          stack, head over concat(x_L, deep out), plus b

All arithmetic is float64. forward_batch/backward_batch never mutate
parameters.

Parameter layout: besides the float bias, a model's parameters are array
blocks in one fixed order, which checkpoints store and every walk follows:
linear, emb, mlp (W, b) per layer, cross (w, b) per layer, head. Blocks a
kind does not own are None and skipped. ``_each_block`` is the one place
that order is written; ``Params.blocks()``/``Grads.blocks()`` walk it and
``build_params`` makes a layout block by block in it.
Table gradients are compact: the batch's sorted unique feature rows come
with one linear entry and one embedding row per feature, so a step's cost
and memory follow the rows the batch touches, not the size of the table.
Rows outside that set have zero gradient and are never materialised. The
rows are found without a sort, by marking them in a boolean array over the
table (``unique_rows``); in training that table is the trainer's sub-table
of rows in use, so the mark costs what the data touches.

Scoring contract: ``predict_batch`` scores a dataset in blocks of
``features.ROW_BLOCK`` (1024) rows. The last block takes in the remainder,
so a block has 1024..2047 rows unless the dataset has fewer, and a pass holds
one block's activations whatever the dataset's size. The scores equal one
whole-array ``forward_batch`` run with BLAS on one thread, bit for bit, and
the tests check that at the thread count they run with. A whole-array pass
on a multi-threaded BLAS is not a reference: it splits one large product
across threads and can move the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .features import Dataset, FeatureSchema, by_row_blocks
from .rng import philox

MODEL_KINDS = ("lr", "fm", "mlp", "deepfm", "dcn")

# kinds with an embedding table / a scalar-ended perceptron branch
_EMBEDDED = ("fm", "mlp", "deepfm", "dcn")
_WITH_LINEAR = ("lr", "fm", "deepfm")
_WITH_MLP = ("mlp", "deepfm", "dcn")


class ModelConfigError(ValueError):
    """Inconsistent model hyperparameters."""


class DimensionError(ValueError):
    """Parameters do not match the instance layout they are applied to."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; LR ignores everything but ``kind``."""

    kind: str
    embed_dim: int = 16
    mlp_widths: tuple[int, ...] = (64, 32)
    n_cross_layers: int = 2

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ModelConfigError(f"unknown model kind {self.kind!r}")
        if self.kind in _EMBEDDED and self.embed_dim < 1:
            raise ModelConfigError("embed_dim must be >= 1")
        if any(w < 1 for w in self.mlp_widths):
            raise ModelConfigError("mlp widths must all be >= 1")
        if self.kind == "dcn" and self.n_cross_layers < 0:
            raise ModelConfigError("n_cross_layers must be >= 0")


def _each_block(p, fn) -> dict:
    """The parameter layout, written out once.

    Returns ``p``'s block fields with each present block replaced by
    ``fn(name, block)``; absent blocks stay None. ``fn`` runs in layout
    order (see the module docstring). ``p`` holds arrays, or shapes while
    ``build_params`` makes a layout; there ``cross`` is a lazy iterable.
    """

    def one(name, a):
        return None if a is None else fn(name, a)

    return dict(
        linear=one("linear", p.linear),
        emb=one("emb", p.emb),
        mlp=[(fn(f"mlp[{i}].W", w), fn(f"mlp[{i}].b", b))
             for i, (w, b) in enumerate(p.mlp)],
        cross=[(fn(f"cross[{i}].w", w), fn(f"cross[{i}].b", b))
               for i, (w, b) in enumerate(p.cross)],
        head=one("head", p.head),
    )


class _Blocks:
    """The walks over a layout, shared by Params and Grads."""

    def blocks(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) of each block, in layout order."""
        out = []
        _each_block(self, lambda name, a: out.append((name, a)))
        return out

    def dense_blocks(self) -> list[np.ndarray]:
        """The arrays of ``blocks()`` after the linear and embedding tables.

        Unnamed: the training step walks these every step, and formatting
        the names would cost it more than the walk itself.
        """
        out = [a for pair in self.mlp + self.cross for a in pair]
        if self.head is not None:
            out.append(self.head)
        return out


@dataclass
class Params(_Blocks):
    """Parameter container shared by all model kinds.

    mlp holds (W, b) pairs with W of shape (out, in); for mlp/deepfm the last
    layer ends in a scalar, for dcn every layer is a relu hidden layer and the
    final combination lives in ``head``. cross holds (w, b) vector pairs over
    the concatenated-embedding dimension.
    """

    kind: str
    n_fields: int
    n_features: int
    embed_dim: int
    schema_digest: int
    bias: float = 0.0
    linear: np.ndarray | None = None
    emb: np.ndarray | None = None
    mlp: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    cross: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    head: np.ndarray | None = None

    def like(self, make) -> "Params":
        """Params of this layout with a zero bias, each block made by
        ``make(name, block)`` in layout order."""
        return replace(self, bias=0.0, **_each_block(self, make))

    def copy(self) -> "Params":
        return replace(self, **_each_block(self, lambda _, a: a.copy()))

    def nonfinite_block(self) -> str | None:
        """Name of the first block holding a NaN or inf, None if all finite.

        min and max propagate NaN, so both are finite exactly when every
        entry is, and neither allocates a table-sized mask.
        """

        def finite(a) -> bool:
            a = np.asarray(a)
            return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))

        blocks = [("bias", self.bias)] + self.blocks()
        return next((name for name, a in blocks if not finite(a)), None)

    @property
    def mlp_widths(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w, _ in self.mlp)


@dataclass
class Grads(_Blocks):
    """Gradients for Params; table blocks are compact over ``rows``.

    ``rows`` holds the sorted unique feature rows of the batch, as
    ``unique_rows`` finds them from a mark array. ``linear[j]``
    and ``emb[j]`` are the gradients of table row ``rows[j]``, so they have
    shapes (len(rows),) and (len(rows), K). Dense blocks (bias, mlp, cross,
    head) are shaped like their parameters.
    """

    bias: float
    linear: np.ndarray | None
    emb: np.ndarray | None
    mlp: list[tuple[np.ndarray, np.ndarray]]
    cross: list[tuple[np.ndarray, np.ndarray]]
    head: np.ndarray | None
    rows: np.ndarray

    @property
    def touched(self) -> np.ndarray:
        """Alias of ``rows``, still read by ``bench/tracer.py``."""
        return self.rows


@dataclass
class Trace:
    """Cached forward activations, enough for an exact backward pass."""

    indices: np.ndarray  # (B, F)
    z: np.ndarray  # (B,)
    emb_rows: np.ndarray | None = None  # (B, F, K) the fields' embedding rows
    fm_sum: np.ndarray | None = None  # (B, K)
    x0: np.ndarray | None = None  # (B, F*K)
    mlp_inputs: list[np.ndarray] = field(default_factory=list)
    mlp_preacts: list[np.ndarray] = field(default_factory=list)
    cross_xs: list[np.ndarray] = field(default_factory=list)  # x_0 .. x_L
    cross_ss: list[np.ndarray] = field(default_factory=list)  # (B,) per layer
    deep_out: np.ndarray | None = None


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def build_params(kind: str, n_fields: int, n_features: int, embed_dim: int,
                 digest: int, widths, n_cross: int, make) -> Params:
    """Params of one layout, each block made by ``make(name, shape)`` in
    layout order; the bias is 0.0.

    ``widths`` are the stored mlp output widths, the scalar end of an mlp or
    deepfm branch included. A layout ``init_params`` never builds raises
    ValueError before the first block is made: an lr layout has no
    embeddings, so a corrupt cross-layer count would otherwise make billions
    of empty blocks.
    """
    widths = list(widths)
    ok = (
        kind in MODEL_KINDS
        and n_fields >= 1
        and (embed_dim == 0 if kind == "lr" else embed_dim >= 1)
        and all(w >= 1 for w in widths)
        and (n_cross == 0 or kind == "dcn")
        and (widths[-1:] == [1] if kind in ("mlp", "deepfm")
             else not widths or kind == "dcn")
    )
    if not ok:
        raise ValueError(
            f"no {kind} model has embed_dim {embed_dim}, {n_fields} fields, "
            f"mlp widths {widths} and {n_cross} cross layers"
        )
    d = n_fields * embed_dim
    fan_ins = [d] + widths
    shapes = SimpleNamespace(
        linear=(n_features,) if kind in _WITH_LINEAR else None,
        emb=None if kind == "lr" else (n_features, embed_dim),
        mlp=[((w, n), (w,)) for n, w in zip(fan_ins, widths)],
        # lazy: under a corrupt count, building stops at the first block make refuses
        cross=(((d,), (d,)) for _ in range(n_cross)),
        head=(d + (widths[-1] if widths else 0),) if kind == "dcn" else None,
    )
    return Params(kind, n_fields, n_features, embed_dim, digest,
                  **_each_block(shapes, make))


def init_params(schema: FeatureSchema, cfg: ModelConfig, seed: int) -> Params:
    """Fresh parameters; weights uniform Glorot, biases and linear zero.

    Deterministic given (schema, cfg, seed); weights are drawn in layout
    order: embeddings, mlp layers bottom-up, cross layers, head.
    """
    rng = philox(seed, 100)

    def make(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name == "linear" or name.endswith(".b"):
            return np.zeros(shape)
        # fan_in + fan_out: a matrix's two sides, or a vector feeding one output
        s = np.sqrt(6.0 / (sum(shape) if len(shape) == 2 else shape[0] + 1))
        return rng.uniform(-s, s, size=shape)

    kind = cfg.kind
    widths = tuple(cfg.mlp_widths) if kind in _WITH_MLP else ()
    if kind in ("mlp", "deepfm"):
        widths += (1,)  # scalar-ended branch
    return build_params(
        kind, schema.n_fields, schema.n_features,
        cfg.embed_dim if kind in _EMBEDDED else 0, schema.digest(), widths,
        cfg.n_cross_layers if kind == "dcn" else 0, make,
    )


def check_indices(params: Params, indices: np.ndarray) -> None:
    """Raise DimensionError unless ``indices`` is (B, n_fields) rows of the tables."""
    if indices.ndim != 2 or indices.shape[1] != params.n_fields:
        raise DimensionError(
            f"instance has {indices.shape[-1]} fields, model expects {params.n_fields}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= params.n_features):
        raise DimensionError(
            f"feature index out of range for a {params.n_features}-feature model"
        )


def unique_rows(indices: np.ndarray, n_features: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique values of ``indices`` and a lookup of their positions.

    A mark array over the table's rows stands in for ``np.unique``'s sort:
    ``rows`` comes out sorted, and ``slot[rows[j]] == j``. Entries of ``slot``
    off ``rows`` are undefined. ``indices`` must lie in [0, n_features).
    """
    mark = np.zeros(n_features, dtype=bool)
    mark[indices] = True
    rows = np.flatnonzero(mark)
    slot = np.empty(n_features, dtype=np.intp)
    slot[rows] = np.arange(rows.size)
    return rows, slot


def _mlp_forward(params: Params, x0: np.ndarray, trace: Trace) -> np.ndarray:
    """Perceptron branch; relu on every layer except a scalar-ended last."""
    scalar_ended = params.kind in ("mlp", "deepfm")
    h = x0
    last = len(params.mlp) - 1
    for i, (W, b) in enumerate(params.mlp):
        trace.mlp_inputs.append(h)
        a = h @ W.T + b
        trace.mlp_preacts.append(a)
        if scalar_ended and i == last:
            h = a
        else:
            h = np.maximum(a, 0.0)
    return h


def forward_batch(
    params: Params, indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Trace]:
    """Logits, probabilities and a backward-ready trace for a batch."""
    indices = np.asarray(indices, dtype=np.int64)
    check_indices(params, indices)
    n = indices.shape[0]
    z = np.full(n, params.bias, dtype=np.float64)
    trace = Trace(indices=indices, z=z)

    if params.linear is not None:
        z += params.linear[indices].sum(axis=1)

    if params.emb is not None:
        e = np.take(params.emb, indices, axis=0)  # (B, F, K); faster than emb[indices]
        trace.emb_rows = e
        if params.kind in ("fm", "deepfm"):
            s = e.sum(axis=1)  # (B, K)
            trace.fm_sum = s
            z += 0.5 * ((s * s).sum(axis=1) - (e * e).sum(axis=(1, 2)))
        if params.kind in _WITH_MLP:
            x0 = e.reshape(n, -1)
            trace.x0 = x0
            if params.kind == "dcn":
                xs, ss = [x0], []
                x = x0
                for w, b in params.cross:
                    s_l = x @ w  # (B,)
                    x = x0 * s_l[:, None] + b + x
                    xs.append(x)
                    ss.append(s_l)
                trace.cross_xs = xs
                trace.cross_ss = ss
                deep = _mlp_forward(params, x0, trace) if params.mlp else None
                trace.deep_out = deep
                combined = xs[-1] if deep is None else np.concatenate([xs[-1], deep], axis=1)
                z += combined @ params.head
            else:
                out = _mlp_forward(params, x0, trace)
                z += out[:, 0]

    return z, sigmoid(z), trace


def _mlp_backward(
    params: Params, trace: Trace, g_out: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Backprop the perceptron branch; returns dL/dx0 and the (W, b) gradients."""
    scalar_ended = params.kind in ("mlp", "deepfm")
    last = len(params.mlp) - 1
    grads = [None] * len(params.mlp)
    g = g_out
    for i in range(last, -1, -1):
        W, _ = params.mlp[i]
        if not (scalar_ended and i == last):
            g = g * (trace.mlp_preacts[i] > 0.0)
        grads[i] = (g.T @ trace.mlp_inputs[i], g.sum(axis=0))
        g = g @ W
    return g, grads


def backward_batch(params: Params, trace: Trace, dl_dz: np.ndarray) -> Grads:
    """Parameter gradients for sum_b dl_dz[b] * z_b, exact chain rule.

    Callers wanting a batch mean fold the 1/B factor into dl_dz. Table
    gradients come back compact over the batch's unique rows (see ``Grads``).
    Each row's contributions are summed in batch order, one cell after the
    other, so the sums equal an ``np.add.at`` into a zeroed table bitwise.
    Every other block is assigned its value directly, not summed into zeros;
    that can differ only in the sign of an exact zero, which the row sums and
    the optimizer's updates absorb.
    """
    dl = np.asarray(dl_dz, dtype=np.float64)
    if dl.shape != trace.z.shape:
        raise DimensionError("dl_dz must align with the traced batch")
    idx = trace.indices
    rows, slot = unique_rows(idx, params.n_features)
    inv = slot[idx.ravel()]
    n_rows = rows.shape[0]
    grads = Grads(
        bias=float(dl.sum()),
        linear=None,
        emb=None,
        mlp=[],
        cross=[],
        head=None,
        rows=rows,
    )

    if params.linear is not None:
        grads.linear = np.bincount(
            inv, weights=np.repeat(dl, idx.shape[1]), minlength=n_rows
        )

    if params.emb is not None:
        e = trace.emb_rows
        k = params.embed_dim
        de = None  # dL/d(emb_rows), (B, F, K)
        if params.kind in ("fm", "deepfm"):
            de = trace.fm_sum[:, None, :] - e
            de *= dl[:, None, None]
        if params.kind in _WITH_MLP:
            if params.kind == "dcn":
                dx0 = _cross_backward(params, trace, dl, grads)
            else:
                dx0, grads.mlp = _mlp_backward(params, trace, dl[:, None])
            de = _accumulate(de, dx0.reshape(e.shape))
        # flat bin of (row j, column c) is j * k + c
        cells = inv[:, None] * k + np.arange(k)
        grads.emb = np.bincount(
            cells.ravel(), weights=de.ravel(), minlength=n_rows * k
        ).reshape(n_rows, k)

    return grads


def _cross_backward(
    params: Params, trace: Trace, dl: np.ndarray, grads: Grads
) -> np.ndarray:
    """Backprop dcn's head, cross stack and deep branch into ``grads``; returns dL/dx0."""
    x0 = trace.x0
    d = x0.shape[1]
    g_cross = dl[:, None] * params.head[None, :d]
    if trace.deep_out is not None:
        g_deep = dl[:, None] * params.head[None, d:]
        combined = np.concatenate([trace.cross_xs[-1], trace.deep_out], axis=1)
    else:
        g_deep = None
        combined = trace.cross_xs[-1]
    grads.head = combined.T @ dl
    grads.cross = [None] * len(params.cross)
    dx0 = None
    g = g_cross
    for layer in range(len(params.cross) - 1, -1, -1):
        w, _ = params.cross[layer]
        x_l = trace.cross_xs[layer]
        s_l = trace.cross_ss[layer]
        gb = g.sum(axis=0)
        dx0 = _accumulate(dx0, g * s_l[:, None])
        ds = (g * x0).sum(axis=1)  # (B,)
        grads.cross[layer] = (x_l.T @ ds, gb)
        g = g + ds[:, None] * w[None, :]
    dx0 = _accumulate(dx0, g)
    if g_deep is not None:
        dx_deep, grads.mlp = _mlp_backward(params, trace, g_deep)
        dx0 += dx_deep
    return dx0


def _accumulate(total: np.ndarray | None, term: np.ndarray) -> np.ndarray:
    """``total + term``, summed in place into ``total``; the first term is kept as is."""
    if total is None:
        return term
    total += term
    return total


def predict_batch(params: Params, dataset: Dataset) -> np.ndarray:
    """Probabilities for every row of a dataset, in row order.

    Rows are scored in blocks (``features.by_row_blocks``); see the scoring
    contract in the module docstring. An overflow is not warned about: the
    metrics reject non-finite scores with their count, and training checks
    for divergence.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return by_row_blocks(lambda rows: forward_batch(params, rows)[1], dataset.indices)

"""CTR predictors over sparse hashed features: LR, FM, MLP, DeepFM, DCN.

Every model maps an instance's (indices, values) to a logit z with
y_hat = sigmoid(z), and exposes exact hand-derived gradients:

  lr      z = b + sum_f w[i_f] v_f
  fm      z = lr + 0.5 sum_k [(sum_f e[i_f,k] v_f)^2 - sum_f e[i_f,k]^2 v_f^2]
  mlp     z = b + affine(relu stack over concat of field embeddings)
  deepfm  z = fm + mlp branch, embeddings shared between both
  dcn     cross stack x_{l+1} = x0 (w_l . x_l) + b_l + x_l alongside a relu
          stack, head over concat(x_L, deep out), plus b

All arithmetic is float64. forward/backward never mutate parameters.
Table gradients are compact: the batch's sorted unique feature rows come
with one linear entry and one embedding row per feature, so a step's cost
and memory follow the rows the batch touches, not the size of the table.
Rows outside that set have zero gradient and are never materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .features import Dataset, EncodedInstance, FeatureSchema
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


@dataclass
class Params:
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

    def copy(self) -> "Params":
        return Params(
            kind=self.kind,
            n_fields=self.n_fields,
            n_features=self.n_features,
            embed_dim=self.embed_dim,
            schema_digest=self.schema_digest,
            bias=self.bias,
            linear=None if self.linear is None else self.linear.copy(),
            emb=None if self.emb is None else self.emb.copy(),
            mlp=[(w.copy(), b.copy()) for w, b in self.mlp],
            cross=[(w.copy(), b.copy()) for w, b in self.cross],
            head=None if self.head is None else self.head.copy(),
        )

    def zeros_like(self) -> "Params":
        z = self.copy()
        z.bias = 0.0
        if z.linear is not None:
            z.linear[:] = 0.0
        if z.emb is not None:
            z.emb[:] = 0.0
        for w, b in z.mlp:
            w[:] = 0.0
            b[:] = 0.0
        for w, b in z.cross:
            w[:] = 0.0
            b[:] = 0.0
        if z.head is not None:
            z.head[:] = 0.0
        return z

    def nonfinite_block(self) -> str | None:
        """Name of the first block holding a NaN or inf, None if all finite."""
        blocks = [("bias", self.bias), ("linear", self.linear), ("emb", self.emb)]
        for i, (w, b) in enumerate(self.mlp):
            blocks += [(f"mlp[{i}].W", w), (f"mlp[{i}].b", b)]
        for i, (w, b) in enumerate(self.cross):
            blocks += [(f"cross[{i}].w", w), (f"cross[{i}].b", b)]
        blocks.append(("head", self.head))
        for name, a in blocks:
            if a is not None and not np.all(np.isfinite(a)):
                return name
        return None

    def all_finite(self) -> bool:
        return self.nonfinite_block() is None

    @property
    def mlp_widths(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w, _ in self.mlp)


@dataclass
class Grads:
    """Gradients for Params; table blocks are compact over ``rows``.

    ``rows`` holds the sorted unique feature rows of the batch. ``linear[j]``
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
    values: np.ndarray  # (B, F)
    z: np.ndarray  # (B,)
    emb_scaled: np.ndarray | None = None  # (B, F, K) embeddings * values
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


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


def init_params(schema: FeatureSchema, cfg: ModelConfig, seed: int) -> Params:
    """Fresh parameters; weights uniform Glorot, biases and linear zero.

    Deterministic given (schema, cfg, seed); the draw order is embeddings,
    mlp layers bottom-up, cross layers, head.
    """
    m = schema.n_features
    f = schema.n_fields
    k = cfg.embed_dim if cfg.kind in _EMBEDDED else 0
    p = Params(
        kind=cfg.kind,
        n_fields=f,
        n_features=m,
        embed_dim=k,
        schema_digest=schema.digest(),
    )
    rng = philox(seed, 100)
    if cfg.kind in _WITH_LINEAR:
        p.linear = np.zeros(m, dtype=np.float64)
    if cfg.kind in _EMBEDDED:
        p.emb = _glorot(rng, (m, k), m, k)
    if cfg.kind in _WITH_MLP:
        d0 = f * k
        widths = list(cfg.mlp_widths)
        if cfg.kind in ("mlp", "deepfm"):
            widths = widths + [1]  # scalar-ended branch
        prev = d0
        for w in widths:
            W = _glorot(rng, (w, prev), prev, w)
            p.mlp.append((W, np.zeros(w, dtype=np.float64)))
            prev = w
    if cfg.kind == "dcn":
        d = f * k
        for _ in range(cfg.n_cross_layers):
            w = _glorot(rng, (d,), d, 1)
            p.cross.append((w, np.zeros(d, dtype=np.float64)))
        deep_w = p.mlp[-1][0].shape[0] if p.mlp else 0
        p.head = _glorot(rng, (d + deep_w,), d + deep_w, 1)
    return p


def _check_batch(params: Params, indices: np.ndarray, values: np.ndarray) -> None:
    if indices.ndim != 2 or indices.shape[1] != params.n_fields:
        raise DimensionError(
            f"instance has {indices.shape[-1]} fields, model expects {params.n_fields}"
        )
    if values.shape != indices.shape:
        raise DimensionError("indices and values shapes differ")
    if indices.size and (indices.min() < 0 or indices.max() >= params.n_features):
        raise DimensionError(
            f"feature index out of range for a {params.n_features}-feature model"
        )


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
    params: Params, indices: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, Trace]:
    """Logits, probabilities and a backward-ready trace for a batch."""
    indices = np.asarray(indices, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    _check_batch(params, indices, values)
    n = indices.shape[0]
    trace = Trace(indices=indices, values=values, z=np.zeros(n))
    z = np.full(n, params.bias, dtype=np.float64)

    if params.linear is not None:
        z += (params.linear[indices] * values).sum(axis=1)

    if params.emb is not None:
        e = params.emb[indices] * values[:, :, None]  # (B, F, K)
        trace.emb_scaled = e
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

    trace.z = z
    return z, sigmoid(z), trace


def forward(
    params: Params, instance: EncodedInstance
) -> tuple[float, float, Trace]:
    """Single-instance logit, probability and trace."""
    z, p, trace = forward_batch(
        params, instance.indices[None, :], instance.values[None, :]
    )
    return float(z[0]), float(p[0]), trace


def _mlp_backward(
    params: Params, trace: Trace, g_out: np.ndarray, grads: Grads
) -> np.ndarray:
    """Backprop the perceptron branch; returns dL/dx0 (summed over batch dims kept)."""
    scalar_ended = params.kind in ("mlp", "deepfm")
    last = len(params.mlp) - 1
    g = g_out
    for i in range(last, -1, -1):
        W, _ = params.mlp[i]
        if not (scalar_ended and i == last):
            g = g * (trace.mlp_preacts[i] > 0.0)
        grads.mlp[i][0][:] += g.T @ trace.mlp_inputs[i]
        grads.mlp[i][1][:] += g.sum(axis=0)
        g = g @ W
    return g


def backward_batch(params: Params, trace: Trace, dl_dz: np.ndarray) -> Grads:
    """Parameter gradients for sum_b dl_dz[b] * z_b, exact chain rule.

    Callers wanting a batch mean fold the 1/B factor into dl_dz. Table
    gradients come back compact over the batch's unique rows (see ``Grads``).
    Each row's contributions are summed in batch order, one cell after the
    other, so the sums equal an ``np.add.at`` into a zeroed table bitwise.
    """
    dl = np.asarray(dl_dz, dtype=np.float64)
    if dl.shape != trace.z.shape:
        raise DimensionError("dl_dz must align with the traced batch")
    idx, val = trace.indices, trace.values
    rows, inv = np.unique(idx.ravel(), return_inverse=True)
    n_rows = rows.shape[0]
    grads = Grads(
        bias=float(dl.sum()),
        linear=None,
        emb=None,
        mlp=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.mlp],
        cross=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.cross],
        head=None if params.head is None else np.zeros_like(params.head),
        rows=rows,
    )

    if params.linear is not None:
        grads.linear = np.bincount(
            inv, weights=(dl[:, None] * val).ravel(), minlength=n_rows
        )

    if params.emb is not None:
        e = trace.emb_scaled
        k = params.embed_dim
        de = np.zeros_like(e)  # dL/d(emb_scaled)
        if params.kind in ("fm", "deepfm"):
            de += dl[:, None, None] * (trace.fm_sum[:, None, :] - e)
        if params.kind in _WITH_MLP:
            if params.kind == "dcn":
                x0 = trace.x0
                d = x0.shape[1]
                g_cross = dl[:, None] * params.head[None, :d]
                if trace.deep_out is not None:
                    g_deep = dl[:, None] * params.head[None, d:]
                    combined = np.concatenate([trace.cross_xs[-1], trace.deep_out], axis=1)
                else:
                    g_deep = None
                    combined = trace.cross_xs[-1]
                grads.head[:] = combined.T @ dl
                dx0 = np.zeros_like(x0)
                g = g_cross
                for layer in range(len(params.cross) - 1, -1, -1):
                    w, _ = params.cross[layer]
                    x_l = trace.cross_xs[layer]
                    s_l = trace.cross_ss[layer]
                    grads.cross[layer][1][:] += g.sum(axis=0)
                    dx0 += g * s_l[:, None]
                    ds = (g * x0).sum(axis=1)  # (B,)
                    grads.cross[layer][0][:] += x_l.T @ ds
                    g = g + ds[:, None] * w[None, :]
                dx0 += g
                if g_deep is not None:
                    dx0 += _mlp_backward(params, trace, g_deep, grads)
            else:
                g_out = dl[:, None]
                dx0 = _mlp_backward(params, trace, g_out, grads)
            de += dx0.reshape(e.shape)
        # flat bin of (row j, column c) is j * k + c
        cells = inv[:, None] * k + np.arange(k)
        grads.emb = np.bincount(
            cells.ravel(), weights=(de * val[:, :, None]).ravel(), minlength=n_rows * k
        ).reshape(n_rows, k)

    return grads


def backward(params: Params, trace: Trace, dl_dz: float) -> Grads:
    """Single-instance gradients for a trace produced by ``forward``."""
    return backward_batch(params, trace, np.array([dl_dz], dtype=np.float64))


def predict_batch(params: Params, dataset: Dataset, chunk: int = 8192) -> np.ndarray:
    """Probabilities for every row of a dataset, in row order."""
    out = np.empty(len(dataset), dtype=np.float64)
    for lo in range(0, len(dataset), chunk):
        hi = min(lo + chunk, len(dataset))
        _, p, _ = forward_batch(params, dataset.indices[lo:hi], dataset.values[lo:hi])
        out[lo:hi] = p
    return out

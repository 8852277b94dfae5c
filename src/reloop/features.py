"""Feature schema, hashing, CSV ingestion, and synthetic click-log generation.

Raw rows are turned into fixed-arity sparse instances: every field hashes to
one index inside its own bucket range of a single flat feature space, so the
models never touch strings. A field contributes its hashed index alone, with
no value weight: numericals are bucketed into tokens before hashing. Hashing
is 64-bit FNV-1a over ``name=value`` byte strings as the sole source of
indices; there are no vocabulary files. A CSV cell becomes an index one way
only: ``FeatureSchema.cell_token``, then ``FeatureSchema.hash_tokens``.

Hashing is a pure function of the token, so it runs in bulk: tokens go
through the vectorized kernel ``rng.fnv1a64_batch`` in one call, each token
starting from the digest of its field's ``name=`` prefix, which the schema
computes once; the kernel's cost is linear in the tokens' total bytes,
whatever their lengths. CSV ingest reads rows in blocks of ``ROW_BLOCK`` and
hashes the distinct cells of every field of a block in one kernel call,
keeping nothing once the block is encoded. Synthetic
generation hashes each field's whole token range once, then draws, scores
and writes a window one block of ``ROW_BLOCK`` rows at a time, so
``generate_synthetic_csv`` holds the token and latent tables and one block,
whatever the row count. A window's label stream starts past its feature
draws, so each block's draws are those one whole-window draw would make.
The hidden CTR model is an ``fm`` model, its logit the sum of pairwise dot
products of the fields' latent vectors plus a bias, and
``models.forward_batch`` scores it.

Indices are stored as ``FeatureSchema.index_dtype``: four bytes each when
the feature space has at most 2^31 features, eight beyond that. Hashing,
CSV ingest, synthetic generation and ``Dataset`` all take that one type.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import clip_prob
from .rng import fnv1a64, fnv1a64_batch, philox  # fnv1a64 is re-exported here

MISSING_TOKEN = "__MISSING__"
ROW_BLOCK = 1024  # rows per block of a whole-window pass; see by_row_blocks

_KINDS = ("categorical", "numerical")


class DataError(ValueError):
    """Malformed input data or schema violation."""


def transform_numerical(v) -> int:
    """Discretize a numerical value into a log2 bucket token.

    bucket = floor(log2(v + 1)) for v >= 0; negative or missing values clamp
    to bucket 0. The bucket is then hashed like a categorical token.

    Raises:
        DataError: ``v`` is +inf, which has no log2 bucket.
    """
    if v is None:
        return 0
    v = float(v)
    if math.isnan(v) or v < 0.0:
        return 0
    if v == math.inf:
        raise DataError("+inf has no log2 bucket")
    return int(math.floor(math.log2(v + 1.0)))


@dataclass(frozen=True)
class FieldSpec:
    """One input field: a name, a kind, and its hash-bucket count."""

    name: str
    kind: str = "categorical"
    buckets: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DataError(f"field {self.name!r}: unknown kind {self.kind!r}")
        if self.buckets < 1:
            raise DataError(f"field {self.name!r}: buckets must be >= 1")


class FeatureSchema:
    """Ordered field layout mapping raw rows into one flat feature-index space.

    Field f owns the half-open index range
    [index_base[f], index_base[f] + fields[f].buckets); the total space size
    is the sum of all bucket counts, at most 2^63. Encoding is pure: the same
    (schema, raw row) always yields the same indices.

    ``index_dtype`` is the integer type of every index array of the schema,
    decided here alone: int32 for at most 2^31 features, so every index is at
    most 2^31 - 1, and int64 beyond that.
    """

    def __init__(self, fields: list[FieldSpec] | tuple[FieldSpec, ...]):
        fields = tuple(fields)
        if not fields:
            raise DataError("schema needs at least one field")
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise DataError("field names must be unique within a schema")
        self.fields = fields
        base, offset = [], 0
        for f in fields:
            base.append(offset)
            offset += f.buckets
        if offset > 2**63:
            raise DataError(f"bucket counts sum to {offset}, past the int64 index range")
        self.index_base = tuple(base)
        self.n_features = offset
        self.index_dtype = np.dtype(np.int32 if offset <= 2**31 else np.int64)
        # per field, by position: the digest of b"name=", the bucket count, the base
        self._prefixes = np.array([fnv1a64(f"{f.name}=".encode("utf-8")) for f in fields],
                                  dtype=np.uint64)
        self._buckets = np.array([f.buckets for f in fields], dtype=np.uint64)
        self._bases = np.array(base, dtype=np.int64)

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def canonical_serialization(self) -> str:
        body = "|".join(f"{f.name}:{f.kind}:{f.buckets}" for f in self.fields)
        return f"schema:v1|{body}"

    def digest(self) -> int:
        """FNV-1a digest of the canonical serialization; keys checkpoints."""
        return fnv1a64(self.canonical_serialization().encode("utf-8"))

    def hash_tokens(self, pos: int | np.ndarray, tokens: list[str]) -> np.ndarray:
        """Global indices of canonical tokens, in one kernel pass: token i of
        field ``pos`` (one field position for every token, or an array of one
        per token) is index_base + (fnv1a64(b"name=token") mod buckets) of its
        field, as ``index_dtype``."""
        digests = fnv1a64_batch(list(map(str.encode, tokens)), self._prefixes[pos])  # UTF-8
        index = (digests % self._buckets[pos]).astype(np.int64) + self._bases[pos]
        return index.astype(self.index_dtype, copy=False)

    def cell_token(self, pos: int, cell: str) -> str:
        """Canonical token of one CSV cell. Empty cells, and numerical cells
        that do not parse or parse to +inf (which has no log2 bucket), give
        the missing-value sentinel."""
        if cell == "":
            return MISSING_TOKEN
        if self.fields[pos].kind == "categorical":
            return cell
        try:
            return str(transform_numerical(float(cell)))
        except ValueError:
            return MISSING_TOKEN

    def __repr__(self):
        return f"FeatureSchema({list(self.fields)!r})"


def _fits(value, dtype: np.dtype) -> bool:
    """Whether one index casts to ``dtype`` unchanged."""
    try:
        with np.errstate(invalid="ignore"):
            return bool(np.asarray([value]).astype(dtype)[0] == value)
    except (OverflowError, ValueError, TypeError):
        return False


def _index_array(schema: FeatureSchema, indices) -> np.ndarray:
    """``indices`` as a C-contiguous array of ``schema.index_dtype``: a view of
    the caller's array when it already is one, else a cast copy.

    Raises:
        DataError: the cast would change an index, such as one past the int32
            range, which would wrap, or a fraction, or cannot make it, such as
            2**64, a string or None in an object array; names the first such
            index.
    """
    indices = np.asarray(indices)
    dtype = schema.index_dtype
    if indices.dtype == dtype:
        return np.ascontiguousarray(indices).view()
    flat = indices.reshape(-1)
    try:
        with np.errstate(invalid="ignore"):  # NaN or an out-of-range float casts to garbage
            cast = np.ascontiguousarray(indices, dtype=dtype)
        changed = cast.reshape(-1) != flat
    except (OverflowError, ValueError, TypeError):  # some index int() refuses
        cast, changed = None, np.array([not _fits(v, dtype) for v in flat.tolist()])
    if cast is None or changed.any():
        bad = flat[changed.argmax():][:1].tolist()[0]
        raise DataError(
            f"feature index {bad!r} does not fit {dtype}, the index type of a "
            f"{schema.n_features}-feature schema"
        )
    return cast


class Dataset:
    """Immutable column-wise store of encoded instances, in ingestion order.

    Indices are held as ``schema.index_dtype``; an array of another dtype is
    cast, and an index the cast would change or cannot make raises
    DataError. A y_last
    column must lie in [0, 1] (DataError otherwise) and is clipped into (0, 1).
    """

    __slots__ = ("schema", "labels", "indices", "row_ids", "y_last")

    def __init__(self, schema, labels, indices, row_ids, y_last=None):
        # views, so marking them read-only leaves the caller's arrays writeable
        labels = np.ascontiguousarray(labels, dtype=np.float64).view()
        indices = _index_array(schema, indices)
        row_ids = np.ascontiguousarray(row_ids, dtype=np.int64).view()
        n = labels.shape[0]
        if indices.shape != (n, schema.n_fields):
            raise DataError("indices shape does not match schema arity")
        if row_ids.shape != (n,):
            raise DataError("row_ids shape mismatch")
        if y_last is not None:
            y_last = np.asarray(y_last, dtype=np.float64)
            if y_last.shape != (n,):
                raise DataError("y_last shape mismatch")
            if not np.all((y_last >= 0.0) & (y_last <= 1.0)):  # NaN fails too
                raise DataError("y_last must lie in [0, 1]")
            y_last = clip_prob(y_last)
            y_last.flags.writeable = False
        for arr in (labels, indices, row_ids):
            arr.flags.writeable = False
        self.schema = schema
        self.labels = labels
        self.indices = indices
        self.row_ids = row_ids
        self.y_last = y_last

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def n_fields(self) -> int:
        return self.schema.n_fields

    def take(self, sel) -> "Dataset":
        y_last = None if self.y_last is None else self.y_last[sel]
        return Dataset(self.schema, self.labels[sel], self.indices[sel], self.row_ids[sel],
                       y_last)

    def head(self, n: int) -> "Dataset":
        return self.take(slice(0, n))

    def tail(self, n: int) -> "Dataset":
        return self.take(slice(len(self) - n, len(self)))

    def with_y_last(self, scores: np.ndarray) -> "Dataset":
        """New dataset carrying prior scores, one per row, clipped into (0, 1)."""
        return Dataset(self.schema, self.labels, self.indices, self.row_ids, scores)


def by_row_blocks(fn, rows: np.ndarray) -> np.ndarray:
    """``fn`` applied to ``rows`` in blocks of ``ROW_BLOCK`` rows, one float per
    row, in row order.

    The last block takes in the remainder, so no block is shorter than
    ``ROW_BLOCK`` rows unless ``rows`` is. OpenBLAS computes a product over a
    block of a few rows with other kernels, so a short tail block would give
    scores that differ in the last bits from the same rows scored in a large
    block. A pass then holds one block's temporaries, never a whole window's.
    """
    n = rows.shape[0]
    n_blocks = max(n // ROW_BLOCK, min(n, 1))
    edges = [b * ROW_BLOCK for b in range(n_blocks)] + [n]
    out = np.empty(n, dtype=np.float64)
    for lo, hi in zip(edges, edges[1:]):
        out[lo:hi] = fn(rows[lo:hi])
    return out


def csv_rows(path: str | Path, fh):
    """(line number, cells) per row ``csv.reader`` reads from ``fh``. A row it
    refuses, such as one with a cell over csv's field size limit, and bytes
    that are not UTF-8 raise DataError naming ``path`` and the line."""
    reader = csv.reader(fh)
    try:
        for cells in reader:
            yield reader.line_num, cells
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(
            f"{path}: not UTF-8 text after line {reader.line_num}: {exc.reason}"
        ) from None


LABELS = {"0": 0.0, "1": 1.0}  # a label cell is spelled 0 or 1, in every file


def label_cell(cell: str, where: str) -> float:
    """``LABELS[cell]``; any other spelling raises DataError naming ``where``."""
    if cell not in LABELS:
        raise DataError(f"{where}: label must be 0 or 1, got {cell!r}")
    return LABELS[cell]


def probability_cell(cell: str, where: str, name: str) -> float:
    """``cell`` as a probability in [0, 1], else DataError naming ``where`` and ``name``."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= 1.0:  # NaN fails too
        raise DataError(f"{where}: {name} must lie in [0, 1], got {cell!r}")
    return value


def _encode_block(schema: FeatureSchema, block: list[list[str]]) -> np.ndarray:
    """(len(block), n_fields) indices of a block of CSV rows.

    Each field's distinct cells in the block are hashed once, those of every
    field together in one kernel call; nothing is kept once the block is
    encoded.
    """
    out = np.empty((len(block), schema.n_fields), dtype=schema.index_dtype)
    columns = list(zip(*block))[1 : 1 + schema.n_fields]
    distinct = [dict.fromkeys(column) for column in columns]
    tokens = [schema.cell_token(pos, cell)
              for pos, cells in enumerate(distinct) for cell in cells]
    fields = np.repeat(np.arange(len(distinct)), [len(cells) for cells in distinct])
    index = iter(schema.hash_tokens(fields, tokens).tolist())
    for pos, (column, cells) in enumerate(zip(columns, distinct)):
        # zip stops at the end of cells, before taking the next field's first index
        lookup = dict(zip(cells, index))
        out[:, pos] = list(map(lookup.__getitem__, column))
    return out


def ingest_csv(path: str | Path, schema: FeatureSchema) -> Dataset:
    """Read a labelled CSV into a Dataset.

    Expected header: ``label,<field1>,...,<fieldN>[,y_last]`` matching the
    schema's field names in order. Empty cells hash to the missing-value
    sentinel. Rows are checked one by one and encoded a block of ``ROW_BLOCK``
    rows at a time, so besides the Dataset, ingest holds one block of rows.

    Raises:
        DataError: header mismatch; or, naming ``<file>:<line>``, a wrong
            column count, a label other than ``0`` or ``1``, y_last outside
            [0, 1], or a row csv cannot read.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        lines = csv_rows(path, fh)
        _, header = next(lines, (0, None))
        if header is None:
            raise DataError(f"{path}: empty file")
        expected = ["label"] + [f.name for f in schema.fields]
        has_y_last = header == expected + ["y_last"]
        if not has_y_last and header != expected:
            raise DataError(
                f"{path}: header {header!r} does not match schema "
                f"(expected {expected!r} with optional trailing 'y_last')"
            )
        width = len(header)

        labels, y_last = [], [] if has_y_last else None
        block, encoded = [], []
        for line, cells in lines:
            if len(cells) != width:
                raise DataError(f"{path}:{line}: expected {width} columns, got {len(cells)}")
            if cells[0] not in LABELS:  # label_cell's rule, with no call per row
                label_cell(cells[0], f"{path}:{line}")  # raises
            labels.append(LABELS[cells[0]])
            block.append(cells)
            if has_y_last:
                y_last.append(probability_cell(cells[-1], f"{path}:{line}", "y_last"))
            if len(block) == ROW_BLOCK:
                encoded.append(_encode_block(schema, block))
                block = []
        encoded.append(_encode_block(schema, block))

    n = len(labels)
    return Dataset(schema, np.array(labels), np.concatenate(encoded), np.arange(n), y_last)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for synthetic click logs with optional concept drift.

    ``n_rows`` is the row count per window. ``drift_rate`` is the fraction of
    hidden per-feature latent vectors re-randomized between consecutive
    windows. The same (spec, seed) always generates bitwise-identical data.
    """

    n_fields: int
    buckets_per_field: int
    latent_dim: int
    n_rows: int
    seed: int
    n_windows: int = 1
    drift_rate: float = 0.0

    def __post_init__(self):
        if self.n_fields < 2:  # the hidden CTR is a sum over field pairs
            raise DataError("SyntheticSpec.n_fields must be >= 2")
        for attr in ("buckets_per_field", "latent_dim", "n_rows", "n_windows"):
            if getattr(self, attr) < 1:
                raise DataError(f"SyntheticSpec.{attr} must be >= 1")
        if not 0.0 <= self.drift_rate <= 1.0:
            raise DataError("SyntheticSpec.drift_rate must lie in [0, 1]")

    def schema(self) -> FeatureSchema:
        return FeatureSchema(
            [FieldSpec(f"f{i}", "categorical", self.buckets_per_field)
             for i in range(self.n_fields)]
        )


# Hidden-model shape constants: latent scale targets a logit std near
# _LOGIT_STD, and _LOGIT_BIAS skews the base rate below one half like real
# click data while keeping both classes plentiful at desk scale. Token
# popularity follows a Zipf law with exponent _ZIPF_S, giving the long tail
# of rare features that click logs actually have.
_LOGIT_STD = 1.6
_LOGIT_BIAS = -0.75
_ZIPF_S = 1.05


def token_probabilities(buckets: int) -> np.ndarray:
    """Zipf popularity over a field's raw tokens (token 0 most popular)."""
    ranks = np.arange(1, buckets + 1, dtype=np.float64)
    p = ranks**-_ZIPF_S
    return p / p.sum()


def _latent_scale(spec: SyntheticSpec) -> float:
    pairs = spec.n_fields * (spec.n_fields - 1) / 2.0
    return (_LOGIT_STD**2 / (pairs * spec.latent_dim)) ** 0.25


def _token_index_table(spec: SyntheticSpec, schema: FeatureSchema) -> np.ndarray:
    # (F, B) map from raw token to global hashed index, the same path a CSV
    # round-trip takes, so in-memory windows equal their re-ingested files.
    tokens = [str(t) for t in range(spec.buckets_per_field)]
    return np.stack([schema.hash_tokens(f, tokens) for f in range(spec.n_fields)])


def _hidden_model(spec: SyntheticSpec):
    """The hidden CTR model of window 0: an ``fm`` model (zero linear table,
    the latent vectors as embeddings, bias ``_LOGIT_BIAS``)."""
    from .models import Params  # models imports this module

    schema = spec.schema()
    latent = philox(spec.seed, 1).normal(
        0.0, _latent_scale(spec), size=(schema.n_features, spec.latent_dim))
    return Params("fm", spec.n_fields, schema.n_features, spec.latent_dim,
                  schema.digest(), bias=_LOGIT_BIAS,
                  linear=np.zeros(schema.n_features), emb=latent)


def _window_blocks(spec: SyntheticSpec, truth):
    """Yield (window, tokens, indices, labels) per block of ``ROW_BLOCK`` rows
    (the last block of a window takes the remainder), window after window,
    deterministically.

    ``truth`` is ``_hidden_model(spec)``; each later window's drift updates its
    embeddings in place before that window's first block. A block draws its
    feature uniforms from ``philox(seed, 2, w)``, maps them to Zipf tokens and
    hashed indices, and is scored by ``forward_batch``, which for an ``fm``
    model gives a row the same score in any block. Its labels come from a
    second ``philox(seed, 2, w)`` started past the window's n * F feature
    draws, so every draw falls where one whole-window draw of the features
    followed by one of the labels would put it.
    """
    from .models import forward_batch  # models imports this module

    schema = spec.schema()
    table = _token_index_table(spec, schema)
    cdf = np.cumsum(token_probabilities(spec.buckets_per_field))
    scale = _latent_scale(spec)
    n, fields = spec.n_rows, np.arange(spec.n_fields)
    for w in range(spec.n_windows):
        if w > 0 and spec.drift_rate > 0.0:
            drift_rng = philox(spec.seed, 3, w)
            k = int(round(spec.drift_rate * schema.n_features))
            if k > 0:
                rows = drift_rng.choice(schema.n_features, size=k, replace=False)
                truth.emb[rows] = drift_rng.normal(0.0, scale, size=(k, spec.latent_dim))
        features, draws = philox(spec.seed, 2, w), philox(spec.seed, 2, w)
        # Philox makes four 64-bit words, four doubles, per counter step
        draws.bit_generator.advance(n * spec.n_fields // 4)
        draws.random(n * spec.n_fields % 4)
        for lo in range(0, n, ROW_BLOCK):
            u = features.random(size=(min(ROW_BLOCK, n - lo), spec.n_fields))
            tokens = np.minimum(
                np.searchsorted(cdf, u, side="right"), spec.buckets_per_field - 1
            )
            indices = table[fields, tokens]
            p = forward_batch(truth, indices)[1]
            labels = (draws.random(p.shape[0]) < p).astype(np.float64)
            yield w, tokens, indices, labels


def generate_synthetic(spec: SyntheticSpec) -> list[Dataset]:
    """Generate one Dataset per window from a hidden drifting CTR model."""
    schema, n = spec.schema(), spec.n_rows
    datasets = []
    blocks = _window_blocks(spec, _hidden_model(spec))
    for _, window in itertools.groupby(blocks, key=lambda block: block[0]):
        labels = np.empty(n)
        indices = np.empty((n, spec.n_fields), dtype=schema.index_dtype)
        lo = 0
        for _, _, block_indices, block_labels in window:
            hi = lo + block_labels.shape[0]
            labels[lo:hi], indices[lo:hi] = block_labels, block_indices
            lo = hi
        datasets.append(Dataset(schema, labels, indices, np.arange(n)))
    return datasets


def generate_synthetic_csv(spec: SyntheticSpec, out_dir: str | Path) -> list[Path]:
    """Write one ``window_%03d.csv`` per window into ``out_dir``; returns the paths.

    A window is drawn, scored and written one block of ``ROW_BLOCK`` rows at
    a time (see ``_window_blocks``), each block from the strings of its
    distinct values, so memory does not grow with ``n_rows``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = ",".join(["label"] + [f.name for f in spec.schema().fields]) + "\n"
    paths = []
    blocks = _window_blocks(spec, _hidden_model(spec))
    for w, window in itertools.groupby(blocks, key=lambda block: block[0]):
        path = out_dir / f"window_{w:03d}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write(header)
            for _, tokens, _, labels in window:
                values, inverse = np.unique(
                    np.column_stack([labels.astype(np.int64), tokens]), return_inverse=True)
                text = np.array([str(v) for v in values.tolist()], dtype=object)
                rows = text[inverse.reshape(tokens.shape[0], -1)].tolist()
                fh.write("".join([",".join(row) + "\n" for row in rows]))
        paths.append(path)
    return paths

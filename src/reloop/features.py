"""Feature schema, hashing, CSV ingestion, and synthetic click-log generation.

Raw rows are turned into fixed-arity sparse instances: every field hashes to
one index inside its own bucket range of a single flat feature space, so the
models never touch strings. Hashing is 64-bit FNV-1a over ``name=value`` byte
strings as the sole source of indices; there are no vocabulary files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import philox

MISSING_TOKEN = "__MISSING__"
PROB_CLIP = 1e-7

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF

_KINDS = ("categorical", "numerical")


class DataError(ValueError):
    """Malformed input data or schema violation."""


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


def canonical_token(raw: str | int | float) -> str:
    """Canonical byte-string form of a raw value, stable across platforms."""
    if isinstance(raw, str):
        return raw
    if isinstance(raw, (bool, np.bool_)):
        return str(int(raw))
    if isinstance(raw, (int, np.integer)):
        return str(int(raw))
    if isinstance(raw, (float, np.floating)):
        f = float(raw)
        return str(int(f)) if f.is_integer() else repr(f)
    raise DataError(f"cannot canonicalize raw value of type {type(raw).__name__}")


def transform_numerical(v) -> tuple[int, float]:
    """Discretize a numerical value into a log2 bucket token.

    bucket = floor(log2(v + 1)) for v >= 0; negative or missing values clamp
    to bucket 0. The bucket is then hashed like a categorical token, so the
    returned value weight is always 1.0.
    """
    if v is None:
        return 0, 1.0
    v = float(v)
    if math.isnan(v) or v < 0.0:
        return 0, 1.0
    return int(math.floor(math.log2(v + 1.0))), 1.0


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
    is the sum of all bucket counts. Encoding is pure: the same (schema, raw
    row) always yields the same indices.
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
        self.index_base = tuple(base)
        self.n_features = offset
        self._pos = {f.name: i for i, f in enumerate(fields)}
        # per-field token memo; hashing is pure so caching is transparent
        self._cache: list[dict[str, int]] = [{} for _ in fields]

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def field_position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise DataError(f"unknown field {name!r}") from None

    def canonical_serialization(self) -> str:
        body = "|".join(f"{f.name}:{f.kind}:{f.buckets}" for f in self.fields)
        return f"schema:v1|{body}"

    def digest(self) -> int:
        """FNV-1a digest of the canonical serialization; keys checkpoints."""
        return fnv1a64(self.canonical_serialization().encode("utf-8"))

    def hash_feature(self, field: str | int, raw: str | int | float) -> int:
        """Global index for a raw value of one field.

        Returns index_base[field] + (fnv1a64(b"name=token") mod buckets).
        Total function: any raw value maps somewhere in the field's range.
        """
        pos = field if isinstance(field, int) else self.field_position(field)
        token = canonical_token(raw)
        cache = self._cache[pos]
        hit = cache.get(token)
        if hit is not None:
            return hit
        spec = self.fields[pos]
        digest = fnv1a64(f"{spec.name}={token}".encode("utf-8"))
        index = self.index_base[pos] + digest % spec.buckets
        cache[token] = index
        return index

    def encode_cell(self, pos: int, cell: str) -> int:
        """Hash one CSV cell; empty cells map to the missing-value sentinel."""
        if cell == "":
            return self.hash_feature(pos, MISSING_TOKEN)
        if self.fields[pos].kind == "numerical":
            try:
                v = float(cell)
            except ValueError:
                return self.hash_feature(pos, MISSING_TOKEN)
            bucket, _ = transform_numerical(v)
            return self.hash_feature(pos, bucket)
        return self.hash_feature(pos, cell)

    def __eq__(self, other):
        return isinstance(other, FeatureSchema) and self.fields == other.fields

    def __repr__(self):
        return f"FeatureSchema({list(self.fields)!r})"


@dataclass(frozen=True)
class EncodedInstance:
    """One hashed sample: label, per-field indices/values, optional prior score."""

    label: int
    indices: np.ndarray  # (F,) int64, global feature indices
    values: np.ndarray  # (F,) float64
    row_id: int
    y_last: float | None = None


class Dataset:
    """Immutable column-wise store of encoded instances, in ingestion order."""

    __slots__ = ("schema", "labels", "indices", "values", "row_ids", "y_last")

    def __init__(self, schema, labels, indices, values, row_ids, y_last=None):
        labels = np.ascontiguousarray(labels, dtype=np.float64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        row_ids = np.ascontiguousarray(row_ids, dtype=np.int64)
        n = labels.shape[0]
        if indices.shape != (n, schema.n_fields) or values.shape != indices.shape:
            raise DataError("indices/values shape does not match schema arity")
        if row_ids.shape != (n,):
            raise DataError("row_ids shape mismatch")
        if y_last is not None:
            y_last = np.ascontiguousarray(y_last, dtype=np.float64)
            if y_last.shape != (n,):
                raise DataError("y_last shape mismatch")
            y_last.flags.writeable = False
        for arr in (labels, indices, values, row_ids):
            arr.flags.writeable = False
        self.schema = schema
        self.labels = labels
        self.indices = indices
        self.values = values
        self.row_ids = row_ids
        self.y_last = y_last

    def __len__(self) -> int:
        return self.labels.shape[0]

    @property
    def n_fields(self) -> int:
        return self.schema.n_fields

    def row(self, i: int) -> EncodedInstance:
        return EncodedInstance(
            label=int(self.labels[i]),
            indices=self.indices[i],
            values=self.values[i],
            row_id=int(self.row_ids[i]),
            y_last=None if self.y_last is None else float(self.y_last[i]),
        )

    def take(self, sel) -> "Dataset":
        return Dataset(
            self.schema,
            self.labels[sel],
            self.indices[sel],
            self.values[sel],
            self.row_ids[sel],
            None if self.y_last is None else self.y_last[sel],
        )

    def head(self, n: int) -> "Dataset":
        return self.take(slice(0, n))

    def tail(self, n: int) -> "Dataset":
        return self.take(slice(len(self) - n, len(self)))

    def with_y_last(self, scores: np.ndarray) -> "Dataset":
        """New dataset carrying prior scores, clipped into (0, 1)."""
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(self),):
            raise DataError("prior scores must align one-to-one with rows")
        if not np.all((scores >= 0.0) & (scores <= 1.0)):  # NaN fails too
            raise DataError("prior scores must lie in [0, 1]")
        clipped = np.clip(scores, PROB_CLIP, 1.0 - PROB_CLIP)
        return Dataset(
            self.schema, self.labels, self.indices, self.values, self.row_ids, clipped
        )

    def require_y_last(self, context: str) -> None:
        if self.y_last is None:
            rid = int(self.row_ids[0]) if len(self) else -1
            raise DataError(
                f"{context} requires a prior score (y_last) on every row; "
                f"none attached (first row_id {rid})"
            )


def ingest_csv(path: str | Path, schema: FeatureSchema) -> Dataset:
    """Read a labelled CSV into a Dataset.

    Expected header: ``label,<field1>,...,<fieldN>[,y_last]`` matching the
    schema's field names in order. Empty cells hash to the missing-value
    sentinel. Row numbers in error messages are 1-based data rows.

    Raises:
        DataError: header mismatch, wrong column count, label outside {0,1},
            or y_last outside [0, 1].
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        expected = ["label"] + [f.name for f in schema.fields]
        has_y_last = header == expected + ["y_last"]
        if not has_y_last and header != expected:
            raise DataError(
                f"{path}: header {header!r} does not match schema "
                f"(expected {expected!r} with optional trailing 'y_last')"
            )
        width = len(expected) + (1 if has_y_last else 0)
        n_fields = schema.n_fields

        labels, rows, y_last = [], [], [] if has_y_last else None
        for rownum, cells in enumerate(reader, start=1):
            if len(cells) != width:
                raise DataError(
                    f"{path}: row {rownum}: expected {width} columns, got {len(cells)}"
                )
            if cells[0] not in ("0", "1"):
                raise DataError(
                    f"{path}: row {rownum}: label must be 0 or 1, got {cells[0]!r}"
                )
            labels.append(float(cells[0]))
            rows.append([schema.encode_cell(p, cells[1 + p]) for p in range(n_fields)])
            if has_y_last:
                try:
                    score = float(cells[-1])
                except ValueError:
                    score = math.nan
                if not 0.0 <= score <= 1.0:
                    raise DataError(
                        f"{path}: row {rownum}: y_last must lie in [0, 1], "
                        f"got {cells[-1]!r}"
                    )
                y_last.append(score)

    n = len(labels)
    indices = np.array(rows, dtype=np.int64).reshape(n, n_fields)
    values = np.ones((n, n_fields), dtype=np.float64)
    scores = None
    if y_last is not None:
        scores = np.clip(np.array(y_last, dtype=np.float64), PROB_CLIP, 1.0 - PROB_CLIP)
    return Dataset(schema, np.array(labels), indices, values, np.arange(n), scores)


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
        for attr in ("n_fields", "buckets_per_field", "latent_dim", "n_rows", "n_windows"):
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


class SyntheticTruth:
    """Hidden ground-truth CTR model behind a synthetic window.

    Each global feature index carries a latent vector; a row's logit is the
    sum of pairwise dot products across its fields plus a fixed bias, squashed
    by the logistic function.
    """

    def __init__(self, latent: np.ndarray, bias: float):
        self.latent = latent  # (n_features, latent_dim)
        self.bias = bias

    def logits(self, indices: np.ndarray) -> np.ndarray:
        u = self.latent[indices]  # (n, F, D)
        s = u.sum(axis=1)
        pair = 0.5 * ((s * s).sum(axis=1) - (u * u).sum(axis=(1, 2)))
        return pair + self.bias

    def ctr(self, indices: np.ndarray) -> np.ndarray:
        z = self.logits(indices)
        return 1.0 / (1.0 + np.exp(-z))

    def copy(self) -> "SyntheticTruth":
        return SyntheticTruth(self.latent.copy(), self.bias)


def _latent_scale(spec: SyntheticSpec) -> float:
    pairs = spec.n_fields * (spec.n_fields - 1) / 2.0
    return (_LOGIT_STD**2 / (pairs * spec.latent_dim)) ** 0.25


def _token_index_table(spec: SyntheticSpec, schema: FeatureSchema) -> np.ndarray:
    # (F, B) map from raw token to global hashed index, the same path a CSV
    # round-trip takes, so in-memory windows equal their re-ingested files.
    table = np.empty((spec.n_fields, spec.buckets_per_field), dtype=np.int64)
    for f in range(spec.n_fields):
        for t in range(spec.buckets_per_field):
            table[f, t] = schema.hash_feature(f, str(t))
    return table


def _raw_windows(spec: SyntheticSpec):
    """Yield (tokens, labels, truth) per window, deterministically."""
    schema = spec.schema()
    scale = _latent_scale(spec)
    init_rng = philox(spec.seed, 1)
    latent = init_rng.normal(0.0, scale, size=(schema.n_features, spec.latent_dim))
    truth = SyntheticTruth(latent, _LOGIT_BIAS)
    table = _token_index_table(spec, schema)

    for w in range(spec.n_windows):
        if w > 0 and spec.drift_rate > 0.0:
            drift_rng = philox(spec.seed, 3, w)
            k = int(round(spec.drift_rate * schema.n_features))
            if k > 0:
                rows = drift_rng.choice(schema.n_features, size=k, replace=False)
                truth.latent[rows] = drift_rng.normal(
                    0.0, scale, size=(k, spec.latent_dim)
                )
        rng = philox(spec.seed, 2, w)
        cdf = np.cumsum(token_probabilities(spec.buckets_per_field))
        u = rng.random(size=(spec.n_rows, spec.n_fields))
        tokens = np.minimum(
            np.searchsorted(cdf, u, side="right"), spec.buckets_per_field - 1
        )
        indices = np.take_along_axis(table, tokens.T, axis=1).T
        p = truth.ctr(indices)
        labels = (rng.random(spec.n_rows) < p).astype(np.float64)
        yield schema, table, tokens, indices, labels, truth


def generate_synthetic(spec: SyntheticSpec, return_truth: bool = False):
    """Generate one Dataset per window from a hidden drifting CTR model.

    With ``return_truth`` the per-window ground-truth snapshots are returned
    alongside, for oracle checks against the hidden model.
    """
    windows, truths = [], []
    for schema, _, _, indices, labels, truth in _raw_windows(spec):
        n = labels.shape[0]
        values = np.ones_like(indices, dtype=np.float64)
        windows.append(Dataset(schema, labels, indices, values, np.arange(n)))
        if return_truth:
            truths.append(truth.copy())
    return (windows, truths) if return_truth else windows


def generate_synthetic_csv(spec: SyntheticSpec, out_dir: str | Path) -> list[Path]:
    """Write one ``window_%03d.csv`` per window; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for w, (schema, _, tokens, _, labels, _) in enumerate(_raw_windows(spec)):
        path = out_dir / f"window_{w:03d}.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["label"] + [f.name for f in schema.fields])
            for i in range(labels.shape[0]):
                writer.writerow([int(labels[i])] + [str(t) for t in tokens[i]])
        paths.append(path)
    return paths

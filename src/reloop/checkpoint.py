"""Binary model checkpoints with a fixed little-endian layout.

Layout, in order:

  magic            8 bytes  b"RLPCKPT1"
  format version   u32
  model kind       u8       0=lr 1=fm 2=mlp 3=deepfm 4=dcn
  schema digest    u64      FNV-1a of the schema's canonical serialization
  embed_dim        u32      0 for lr
  n_fields         u32
  n_mlp_layers     u32, then one u32 output width per layer
  n_cross_layers   u32
  n_features       u64      feature-table row count
  parameter blobs  f64 little-endian, in this fixed order:
                   bias; linear (n_features); emb (n_features x embed_dim,
                   row-major); per mlp layer W (row-major) then b; per cross
                   layer w then b; head. Blocks a kind does not own are
                   simply absent.

load(save(params)) reproduces the parameters bitwise. Corruption surfaces as
a distinct error class per failure mode.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .features import FeatureSchema
from .models import Params

MAGIC = b"RLPCKPT1"
FORMAT_VERSION = 1

_KIND_CODE = {"lr": 0, "fm": 1, "mlp": 2, "deepfm": 3, "dcn": 4}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


class CheckpointError(Exception):
    """Base class for checkpoint failures."""


class BadMagicError(CheckpointError):
    """File does not start with the checkpoint magic."""


class FormatVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class TruncatedCheckpointError(CheckpointError):
    """Checkpoint is shorter or longer than its header promises."""


class SchemaDigestError(CheckpointError):
    """Checkpoint was built for a different feature schema."""


class NonFiniteCheckpointError(CheckpointError):
    """Parameters hold NaN or inf; typically a diverged training run."""


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedCheckpointError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, count: int) -> np.ndarray:
        raw = self.take(count * 8)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _blob(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def save_checkpoint(params: Params, path: str | Path) -> None:
    """Serialize parameters; writes are atomic via a temp file rename.

    Raises:
        NonFiniteCheckpointError: a parameter is NaN or inf; nothing is written.
    """
    path = Path(path)
    block = params.nonfinite_block()
    if block is not None:
        raise NonFiniteCheckpointError(
            f"refusing to write {path}: parameter block {block} is not finite "
            "(did training diverge?)"
        )
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    parts.append(struct.pack("<B", _KIND_CODE[params.kind]))
    parts.append(struct.pack("<Q", params.schema_digest))
    parts.append(struct.pack("<I", params.embed_dim))
    parts.append(struct.pack("<I", params.n_fields))
    widths = params.mlp_widths
    parts.append(struct.pack("<I", len(widths)))
    for w in widths:
        parts.append(struct.pack("<I", w))
    parts.append(struct.pack("<I", len(params.cross)))
    parts.append(struct.pack("<Q", params.n_features))
    parts.append(struct.pack("<d", params.bias))
    if params.linear is not None:
        parts.append(_blob(params.linear))
    if params.emb is not None:
        parts.append(_blob(params.emb))
    for w, b in params.mlp:
        parts.append(_blob(w))
        parts.append(_blob(b))
    for w, b in params.cross:
        parts.append(_blob(w))
        parts.append(_blob(b))
    if params.head is not None:
        parts.append(_blob(params.head))
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(b"".join(parts))
    tmp.replace(path)


def load_checkpoint(path: str | Path) -> Params:
    """Deserialize a checkpoint written by save_checkpoint."""
    r = _Reader(Path(path).read_bytes())
    magic = r.take(len(MAGIC))
    if magic != MAGIC:
        raise BadMagicError(f"bad checkpoint magic {magic!r}")
    (version,) = r.unpack("<I")
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"unsupported checkpoint format version {version} "
            f"(expected {FORMAT_VERSION})"
        )
    (kind_code,) = r.unpack("<B")
    kind = _CODE_KIND.get(kind_code)
    if kind is None:
        raise CheckpointError(f"unknown model-kind code {kind_code}")
    (digest,) = r.unpack("<Q")
    (embed_dim,) = r.unpack("<I")
    (n_fields,) = r.unpack("<I")
    (n_mlp,) = r.unpack("<I")
    widths = [r.unpack("<I")[0] for _ in range(n_mlp)]
    (n_cross,) = r.unpack("<I")
    (n_features,) = r.unpack("<Q")

    params = Params(
        kind=kind,
        n_fields=n_fields,
        n_features=n_features,
        embed_dim=embed_dim,
        schema_digest=digest,
    )
    (params.bias,) = r.unpack("<d")
    if kind in ("lr", "fm", "deepfm"):
        params.linear = r.array(n_features)
    if kind != "lr":
        params.emb = r.array(n_features * embed_dim).reshape(n_features, embed_dim)
    prev = n_fields * embed_dim
    for w in widths:
        W = r.array(w * prev).reshape(w, prev)
        b = r.array(w)
        params.mlp.append((W, b))
        prev = w
    d = n_fields * embed_dim
    for _ in range(n_cross):
        params.cross.append((r.array(d), r.array(d)))
    if kind == "dcn":
        deep_w = widths[-1] if widths else 0
        params.head = r.array(d + deep_w)
    if r.pos != len(r.buf):
        raise TruncatedCheckpointError(
            f"checkpoint has {len(r.buf) - r.pos} unexpected trailing bytes"
        )
    return params


def check_schema(params: Params, schema: FeatureSchema) -> None:
    """Refuse to apply parameters built for a different schema."""
    if params.schema_digest != schema.digest():
        raise SchemaDigestError(
            f"checkpoint schema digest {params.schema_digest:#018x} does not "
            f"match dataset schema {schema.digest():#018x}"
        )

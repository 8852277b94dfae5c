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
  bias             f64
  parameter blobs  f64 little-endian, one per block in ``Params.blocks()``
                   order: linear (n_features); emb (n_features x embed_dim,
                   row-major); per mlp layer W (row-major) then b; per cross
                   layer w then b; head. Blocks a kind does not own are
                   simply absent.

A held-rows model (``Params.rows``, see ``models``) is written in the same
layout: ``save_checkpoint`` writes each table block by block, the held rows
over the init draw (``models.whole_blocks``), so the file is the one its
whole-table model would write and no whole table is allocated. Loading
always gives whole tables.

load(save(params)) reproduces the parameters bitwise. Corruption surfaces as
a distinct error class per failure mode.
"""

from __future__ import annotations

import math
import os
import shutil
import struct
import sys
from pathlib import Path

import numpy as np

from .features import FeatureSchema
from .models import ModelConfig, Params, build_params, model_layout, whole_blocks

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


class NoRoomError(CheckpointError):
    """The free disk cannot hold a checkpoint; raised before it is made."""


class _Reader:
    """Reads a checkpoint file in order, each block straight into its array."""

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = 0

    def _claim(self, n: int) -> None:
        """Raise unless the file holds ``n`` more bytes; checked before the
        buffer is allocated, so a corrupt header cannot allocate its claim."""
        if self.pos + n > self.size:
            raise TruncatedCheckpointError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"have {self.size - self.pos}"
            )

    def _fill(self, buf):
        """Read the next ``len(buf)`` bytes into ``buf``."""
        got = self.fh.readinto(buf)
        if got != len(buf):  # the file shrank after it was opened
            raise TruncatedCheckpointError(
                f"checkpoint truncated: wanted {len(buf)} bytes at offset {self.pos}, "
                f"have {got}"
            )
        self.pos += got
        return buf

    def take(self, n: int) -> bytearray:
        self._claim(n)
        return self._fill(bytearray(n))

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        self._claim(math.prod(shape) * 8)
        out = np.empty(shape, dtype=np.float64)
        self._fill(out.reshape(-1).view(np.uint8))
        if sys.byteorder == "big":
            out.byteswap(inplace=True)
        return out


def _blob(a: np.ndarray) -> memoryview:
    """The little-endian f64 bytes of ``a``; a view, not a copy, of a
    C-contiguous float64 array on a little-endian machine."""
    return np.ascontiguousarray(a, dtype="<f8").data.cast("B")


def _header_format(n_widths: int) -> str:
    """The struct format of the header after the magic."""
    return f"<IBQIII{n_widths}IIQd"


def checkpoint_nbytes(schema: FeatureSchema, cfg: ModelConfig) -> int:
    """The size of a checkpoint of ``cfg``'s model over ``schema``, worked out
    from the layout without allocating a block."""
    sizes = []
    layout = model_layout(schema, cfg)
    build_params(*layout, lambda _, shape: sizes.append(math.prod(shape)))
    widths = layout[5]
    return len(MAGIC) + struct.calcsize(_header_format(len(widths))) + 8 * sum(sizes)


def require_room(path: str | Path, schema: FeatureSchema, cfg: ModelConfig) -> None:
    """Refuse, before anything is drawn or trained, a checkpoint at ``path``
    that the free disk of its directory cannot hold.

    Raises:
        NoRoomError: naming the checkpoint's bytes and the bytes free.
    """
    need = checkpoint_nbytes(schema, cfg)
    where = Path(path).parent
    free = shutil.disk_usage(where).free
    if need > free:
        raise NoRoomError(
            f"a {cfg.kind} checkpoint over {schema.n_features} features takes {need} "
            f"bytes, but {where} has {free} bytes free"
        )


def save_checkpoint(params: Params, path: str | Path) -> None:
    """Serialize parameters; writes are atomic via a temp file rename.

    Whole tables are written from views, not copies; a held-rows table one
    block of rows at a time (see the module docstring).

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
    widths = params.mlp_widths
    header = struct.pack(
        _header_format(len(widths)), FORMAT_VERSION, _KIND_CODE[params.kind],
        params.schema_digest, params.embed_dim, params.n_fields, len(widths), *widths,
        len(params.cross), params.n_features, params.bias,
    )
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.writelines([MAGIC, header])
        fh.writelines(_blob(a) for a in whole_blocks(params))
    tmp.replace(path)


def load_checkpoint(path: str | Path) -> Params:
    """Deserialize a checkpoint written by save_checkpoint.

    Raises:
        NonFiniteCheckpointError: a parameter is NaN or inf, which
            save_checkpoint never writes: the file is damaged or foreign.
    """
    with Path(path).open("rb") as fh:
        params = _read_params(_Reader(fh))
    block = params.nonfinite_block()
    if block is not None:
        raise NonFiniteCheckpointError(f"{path}: parameter block {block} is not finite")
    return params


def _read_params(r: _Reader) -> Params:
    """The header, then each block, then the check that nothing is left."""
    magic = bytes(r.take(len(MAGIC)))
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
    digest, embed_dim, n_fields, n_mlp = r.unpack("<QIII")
    widths = r.unpack(f"<{n_mlp}I")
    n_cross, n_features, bias = r.unpack("<IQd")
    try:
        # blocks are read one at a time: a corrupt count stops at the first
        # block the file does not hold
        params = build_params(kind, n_fields, n_features, embed_dim, digest, widths,
                              n_cross, lambda _, shape: r.array(shape))
    except ValueError as exc:
        raise CheckpointError(f"checkpoint header: {exc}") from None
    params.bias = bias
    if r.pos != r.size:
        raise TruncatedCheckpointError(
            f"checkpoint has {r.size - r.pos} unexpected trailing bytes"
        )
    return params


def check_schema(params: Params, schema: FeatureSchema) -> None:
    """Refuse to apply parameters built for a different schema."""
    if params.schema_digest != schema.digest():
        raise SchemaDigestError(
            f"checkpoint schema digest {params.schema_digest:#018x} does not "
            f"match dataset schema {schema.digest():#018x}"
        )

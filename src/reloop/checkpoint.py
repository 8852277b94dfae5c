"""Binary model checkpoints with a fixed little-endian layout.

Layout, in order:

  magic            8 bytes  b"RLPCKPT1"
  format version   u32      2
  model kind       u8       0=lr 1=fm 2=mlp 3=deepfm 4=dcn
  schema digest    u64      FNV-1a of the schema's canonical serialization
  embed_dim        u32      0 for lr
  n_fields         u32
  n_mlp_layers     u32, then one u32 output width per layer
  n_cross_layers   u32
  n_features       u64      feature-table row count
  init_seed        u64      the seed whose init draw every row not stored has
  n_rows           u64      stored table rows, at most n_features
  bias             f64
  row indices      i64 x n_rows, strictly increasing in [0, n_features);
                   absent when n_rows == n_features (every row is stored)
  parameter blobs  f64 little-endian, one per block in ``Params.blocks()``
                   order: linear (n_rows); emb (n_rows x embed_dim,
                   row-major); per mlp layer W (row-major) then b; per cross
                   layer w then b; head. Blocks a kind does not own are
                   simply absent.

A held-rows model (``Params.rows``, see ``models``) stores the rows it holds
and a whole-table model every row, each from views of its arrays, so a
save draws nothing. ``load_checkpoint`` returns the stored rows as a
held-rows model (whole when every row is stored); a caller scoring a
dataset moves it to the dataset's rows with ``models.hold_rows``. Version-1
files, which stored whole tables, are refused (``FormatVersionError``).

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
from .models import ModelConfig, Params, build_params, model_layout

MAGIC = b"RLPCKPT1"
FORMAT_VERSION = 2
_U64 = (1 << 64) - 1

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

    def array(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """The next block of 8-byte ``dtype`` values, read into a new array."""
        self._claim(math.prod(shape) * 8)
        out = np.empty(shape, dtype=dtype)
        self._fill(out.reshape(-1).view(np.uint8))
        if sys.byteorder == "big":
            out.byteswap(inplace=True)
        return out


def _blob(a: np.ndarray, dtype: str = "<f8") -> np.ndarray:
    """The little-endian bytes of ``a`` as ``dtype``; a view, not a copy, of a
    C-contiguous array of that type on a little-endian machine."""
    return np.ascontiguousarray(a, dtype=dtype).reshape(-1).view(np.uint8)


def _header_format(n_widths: int) -> str:
    """The struct format of the header after the magic."""
    return f"<IBQIII{n_widths}IIQQQd"


def checkpoint_nbytes(schema: FeatureSchema, cfg: ModelConfig, n_rows: int) -> int:
    """The size of a checkpoint of ``cfg``'s model over ``schema`` storing
    ``n_rows`` table rows, worked out from the layout without allocating a
    block."""
    sizes = []
    layout = list(model_layout(schema, cfg))
    layout[2] = n_rows  # the tables' row count
    build_params(*layout, lambda _, shape: sizes.append(math.prod(shape)))
    index = 8 * n_rows if n_rows < schema.n_features else 0
    return (len(MAGIC) + struct.calcsize(_header_format(len(layout[5]))) + index
            + 8 * sum(sizes))


def require_room(path: str | Path, schema: FeatureSchema, cfg: ModelConfig,
                 n_rows: int) -> None:
    """Refuse, before anything is drawn or trained, a checkpoint at ``path``
    storing ``n_rows`` table rows that the free disk of its directory cannot
    hold.

    Raises:
        NoRoomError: naming the checkpoint's bytes and the bytes free.
    """
    need = checkpoint_nbytes(schema, cfg, n_rows)
    where = Path(path).parent
    free = shutil.disk_usage(where).free
    if need > free:
        raise NoRoomError(
            f"a {cfg.kind} checkpoint over {schema.n_features} features takes {need} "
            f"bytes, but {where} has {free} bytes free"
        )


def save_checkpoint(params: Params, path: str | Path) -> None:
    """Serialize parameters; writes are atomic via a temp file rename.

    Every block, and the held rows' indices, is written from a view, not a
    copy (see the module docstring).

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
    n_rows = params.n_features if params.rows is None else params.rows.size
    header = struct.pack(
        _header_format(len(widths)), FORMAT_VERSION, _KIND_CODE[params.kind],
        params.schema_digest, params.embed_dim, params.n_fields, len(widths), *widths,
        len(params.cross), params.n_features, (params.init_seed or 0) & _U64, n_rows,
        params.bias,
    )
    index = [_blob(params.rows, "<i8")] if n_rows < params.n_features else []
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.writelines([MAGIC, header, *index])
        fh.writelines(_blob(a) for _, a in params.blocks())
    tmp.replace(path)


def load_checkpoint(path: str | Path) -> Params:
    """Deserialize a checkpoint written by save_checkpoint: a held-rows model
    of the stored rows, or a whole-table one when every row is stored.

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
    n_cross, n_features, init_seed, n_rows, bias = r.unpack("<IQQQd")
    if n_rows > n_features:
        raise CheckpointError(f"checkpoint stores {n_rows} table rows of {n_features}")
    rows = None
    if n_rows < n_features:
        rows = r.array((n_rows,), np.int64)
        if rows.size and (rows[0] < 0 or int(rows[-1]) >= n_features
                          or np.any(rows[1:] <= rows[:-1])):
            raise CheckpointError(
                f"checkpoint row indices are not strictly increasing in [0, {n_features})")
    try:
        # blocks are read one at a time: a corrupt count stops at the first
        # block the file does not hold; the tables have n_rows rows
        params = build_params(kind, n_fields, n_rows, embed_dim, digest, widths,
                              n_cross, lambda _, shape: r.array(shape))
    except ValueError as exc:
        raise CheckpointError(f"checkpoint header: {exc}") from None
    params.n_features, params.rows, params.init_seed = n_features, rows, init_seed
    params.bias = bias
    if r.pos != r.size:
        raise TruncatedCheckpointError(
            f"checkpoint has {r.size - r.pos} unexpected trailing bytes"
        )
    return params


def check_schema(params: Params, schema: FeatureSchema) -> None:
    """Refuse to apply parameters built for a different schema."""
    if params.schema_digest != schema.digest() or params.n_features != schema.n_features:
        raise SchemaDigestError(
            f"checkpoint schema digest {params.schema_digest:#018x} over "
            f"{params.n_features} features does not match dataset schema "
            f"{schema.digest():#018x} over {schema.n_features}"
        )

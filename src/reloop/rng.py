"""Deterministic random streams built on the counter-based Philox generator.

Every stochastic component (synthetic data, parameter init, epoch shuffles)
draws from its own stream keyed by (seed, stream tags), so adding draws in
one place never perturbs another. The one FNV-1a digest of the package
lives here too: stream keys and feature hashing both use it, and its batch
kernel continues each string from its own prefix digest, so one call hashes
the tokens of many fields.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
# Up to this many strings of one length, a numpy call per byte column costs
# more than folding each string byte by byte.
_BYTE_LOOP_ROWS = 16


def _fold(state: int, data: bytes) -> int:
    """FNV-1a of ``data`` continued from the digest ``state``."""
    for byte in data:
        state = ((state ^ byte) * _FNV_PRIME) & _U64
    return state


def fnv1a64_batch(data: Sequence[bytes], state: int | np.ndarray = _FNV_OFFSET) -> np.ndarray:
    """64-bit FNV-1a digest of each byte string in ``data``, as ``uint64``.

    ``state`` is the digest of a prefix: from ``fnv1a64(prefix)``, a string
    hashes to ``fnv1a64(prefix + string)``. One state is shared by every
    string; an array of ``len(data)`` states gives string i its own prefix.
    The strings are concatenated into one flat byte buffer and grouped by
    length. For the strings of one length, byte column j is gathered by
    offset and folded into their digests with the wrapping ``uint64``
    xor-multiply, so nothing is padded to the longest string. A length held
    by at most ``_BYTE_LOOP_ROWS`` strings is folded byte by byte instead,
    as ``fnv1a64`` folds one blob. Memory and time are linear in the number
    of strings plus their total bytes.
    Lengths are ``len(bytes)``, so NUL bytes, trailing ones too, are hashed
    like any other byte.
    """
    sizes = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    order = np.argsort(sizes, kind="stable")
    starts = (np.cumsum(sizes) - sizes)[order]
    flat = np.frombuffer(b"".join(data), dtype=np.uint8)
    h = np.broadcast_to(np.asarray(state, dtype=np.uint64), sizes.shape)[order]
    lengths, counts = np.unique(sizes, return_counts=True)
    lo = 0
    for size, count in zip(lengths.tolist(), counts.tolist()):
        hi = lo + count
        if count > _BYTE_LOOP_ROWS:
            lane, rows = h[lo:hi], starts[lo:hi]
            for j in range(size):
                lane ^= flat[rows + j]
                lane *= _FNV_PRIME
        else:
            h[lo:hi] = [_fold(start, data[i])
                        for i, start in zip(order[lo:hi].tolist(), h[lo:hi].tolist())]
        lo = hi
    out = np.empty_like(h)
    out[order] = h
    return out


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest of one byte string."""
    return _fold(_FNV_OFFSET, data)


def _mix(*words: int) -> int:
    """FNV-1a over the little-endian bytes of the given 64-bit words."""
    return fnv1a64(b"".join(int(w & _U64).to_bytes(8, "little") for w in words))


def philox(seed: int, *stream: int) -> np.random.Generator:
    """Generator for an independent stream keyed by (seed, *stream).

    The same (seed, stream) always yields the same draw sequence on every
    platform; distinct stream tags give statistically independent streams.
    """
    key = np.array([seed & _U64, _mix(seed, *stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, *tags: int | str) -> int:
    """Stable 63-bit sub-seed for a named phase of a larger run."""
    words = []
    for t in tags:
        if isinstance(t, str):
            words.append(_mix(*t.encode("utf-8")))
        else:
            words.append(int(t))
    return _mix(seed, *words) & 0x7FFFFFFFFFFFFFFF

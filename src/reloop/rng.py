"""Deterministic random streams built on the counter-based Philox generator.

Every stochastic component (synthetic data, parameter init, epoch shuffles)
draws from its own stream keyed by (seed, stream tags), so adding draws in
one place never perturbs another. The one FNV-1a digest of the package
lives here too: stream keys and feature hashing both use it.
"""

from __future__ import annotations

import numpy as np

_U64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a digest."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _U64
    return h


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

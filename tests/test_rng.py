"""Seeded streams: one FNV-1a, and sub-seeds and stream keys pinned to golden values."""

import pytest

from reloop import features, rng
from reloop.rng import derive_seed, fnv1a64, philox


def test_features_hash_with_the_rng_digest():
    assert features.fnv1a64 is fnv1a64


def test_mix_is_fnv1a_over_little_endian_words():
    words = (0, 1, 2**64 - 1, -1, 0xDEADBEEF)
    payload = b"".join((w & (2**64 - 1)).to_bytes(8, "little") for w in words)
    assert rng._mix(*words) == fnv1a64(payload)


# Values recorded before the two FNV-1a copies became one: every seed, and
# with it every output byte, derives from these.
@pytest.mark.parametrize("seed, tags, expected", [
    (0, (), 2938590176187398597),
    (3, ("init", 1), 5643812560072992561),
    (7, ("train", "current"), 6005641960992995020),
    (2**63 + 5, ("prior",), 795546054060642749),
    (-1, (7, 0), 8462238483892471482),
    (801, ("train", 6), 5427290948128848803),
])
def test_derive_seed_golden(seed, tags, expected):
    assert derive_seed(seed, *tags) == expected


@pytest.mark.parametrize("seed, stream, key", [
    (0, (7, 0), [0, 10725320858063919682]),
    (5, (100,), [5, 6371942658670876612]),
    (123456789, (7, 3), [123456789, 6605309821865679741]),
    (2**64 - 1, (), [2**64 - 1, 10157053723145373757]),
])
def test_philox_key_golden(seed, stream, key):
    state = philox(seed, *stream).bit_generator.state["state"]
    assert [int(k) for k in state["key"]] == key

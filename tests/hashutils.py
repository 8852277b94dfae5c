"""Helpers that hash one token or one CSV cell.

Both go through ``FeatureSchema.hash_tokens``, the one way the library turns
a token into an index. ``encode_cell`` hashes a cell on its own, so it is the
per-cell reference for ingest, which hashes a block's cells together.
"""

from __future__ import annotations

from reloop.features import FeatureSchema


def feature_index(schema: FeatureSchema, name: str, token: str) -> int:
    """Global index of ``token`` in the field called ``name``."""
    pos = [f.name for f in schema.fields].index(name)
    return int(schema.hash_tokens(pos, [token])[0])


def encode_cell(schema: FeatureSchema, pos: int, cell: str) -> int:
    """Global index of one CSV cell of field ``pos``: its ``cell_token``, hashed."""
    return int(schema.hash_tokens(pos, [schema.cell_token(pos, cell)])[0])

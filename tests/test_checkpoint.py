"""Checkpoint format: bitwise round trips and distinct corruption errors."""

import struct

import numpy as np
import pytest

from gradutils import params_to_vector
from reloop.checkpoint import (
    MAGIC,
    BadMagicError,
    FormatVersionError,
    NonFiniteCheckpointError,
    SchemaDigestError,
    TruncatedCheckpointError,
    check_schema,
    load_checkpoint,
    save_checkpoint,
)
from reloop.features import FeatureSchema, FieldSpec
from reloop.models import MODEL_KINDS, ModelConfig, init_params


@pytest.fixture
def schema():
    return FeatureSchema([FieldSpec(f"f{i}", "categorical", 5) for i in range(3)])


def randomized(schema, kind, seed=4):
    p = init_params(schema, ModelConfig(kind, embed_dim=3, mlp_widths=(4, 2)), seed=seed)
    rng = np.random.default_rng(seed)
    p.bias = float(rng.normal())
    if p.linear is not None:
        p.linear[:] = rng.normal(size=p.linear.shape)
    return p


class TestRoundTrip:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_bitwise(self, tmp_path, schema, kind):
        p = randomized(schema, kind)
        path = tmp_path / f"{kind}.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert q.kind == p.kind
        assert q.schema_digest == p.schema_digest
        assert q.n_fields == p.n_fields and q.n_features == p.n_features
        assert np.array_equal(params_to_vector(p), params_to_vector(q))

    def test_dcn_without_mlp_branch(self, tmp_path, schema):
        p = init_params(schema, ModelConfig("dcn", embed_dim=2, mlp_widths=(), n_cross_layers=1), seed=1)
        save_checkpoint(p, tmp_path / "c.ckpt")
        q = load_checkpoint(tmp_path / "c.ckpt")
        assert np.array_equal(params_to_vector(p), params_to_vector(q))

    def test_save_twice_identical_bytes(self, tmp_path, schema):
        p = randomized(schema, "deepfm")
        save_checkpoint(p, tmp_path / "a.ckpt")
        save_checkpoint(p, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestNonFinite:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_refused_and_nothing_written(self, tmp_path, schema, kind):
        p = randomized(schema, kind)
        block, arr = ("linear", p.linear) if p.linear is not None else ("emb", p.emb)
        arr.flat[1] = np.nan
        path = tmp_path / "m.ckpt"
        with pytest.raises(NonFiniteCheckpointError, match=rf"block {block} "):
            save_checkpoint(p, path)
        assert list(tmp_path.iterdir()) == []

    def test_names_dense_block(self, tmp_path, schema):
        p = randomized(schema, "dcn")
        p.cross[1][0][0] = -np.inf
        with pytest.raises(NonFiniteCheckpointError, match=r"cross\[1\]\.w"):
            save_checkpoint(p, tmp_path / "m.ckpt")

    def test_existing_file_kept(self, tmp_path, schema):
        path = tmp_path / "m.ckpt"
        save_checkpoint(randomized(schema, "fm"), path)
        before = path.read_bytes()
        p = randomized(schema, "fm")
        p.bias = float("nan")
        with pytest.raises(NonFiniteCheckpointError, match="block bias "):
            save_checkpoint(p, path)
        assert path.read_bytes() == before


class TestCorruption:
    def _saved(self, tmp_path, schema):
        p = randomized(schema, "fm")
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        return path, path.read_bytes()

    def test_bad_magic(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(b"X" + raw[1:])
        with pytest.raises(BadMagicError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(MAGIC + struct.pack("<I", 99) + raw[12:])
        with pytest.raises(FormatVersionError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(TruncatedCheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, schema):
        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(raw + b"\x00" * 8)
        with pytest.raises(TruncatedCheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_schema_digest_mismatch(self, tmp_path, schema):
        path, _ = self._saved(tmp_path, schema)
        params = load_checkpoint(path)
        other = FeatureSchema([FieldSpec(f"f{i}", "categorical", 5) for i in range(4)])
        with pytest.raises(SchemaDigestError):
            check_schema(params, other)
        check_schema(params, schema)  # the matching schema passes

    def test_unknown_kind_code(self, tmp_path, schema):
        from reloop.checkpoint import CheckpointError

        path, raw = self._saved(tmp_path, schema)
        path.write_bytes(raw[:12] + b"\x7f" + raw[13:])
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path)

"""Feature pipeline: hashing, encoding, ingestion, synthetic generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reloop.features import (
    MISSING_TOKEN,
    DataError,
    Dataset,
    FeatureSchema,
    FieldSpec,
    SyntheticSpec,
    canonical_token,
    fnv1a64,
    generate_synthetic,
    generate_synthetic_csv,
    ingest_csv,
    transform_numerical,
)


def reference_fnv1a(data: bytes) -> int:
    """Independent FNV-1a oracle, written differently from the library path."""
    import functools

    return functools.reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data, 0xCBF29CE484222325
    )


class TestHashing:
    def test_fnv1a_matches_independent_reference(self):
        for payload in (b"", b"a", b"ad_id=12345", b"f0=__MISSING__", bytes(range(256))):
            assert fnv1a64(payload) == reference_fnv1a(payload)

    def test_fnv1a_known_offset_basis(self):
        # digest of the empty string is the offset basis by construction
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_single_bucket_field_forces_offset_index(self):
        schema = FeatureSchema([FieldSpec("pad", buckets=3), FieldSpec("f0", buckets=1)])
        assert schema.hash_feature("f0", "anything") == schema.index_base[1]
        assert schema.hash_feature("f0", "other") == schema.index_base[1]

    def test_frozen_regression_constant(self):
        # value computed once with the reference implementation and frozen
        schema = FeatureSchema([FieldSpec("ad_id", buckets=1000)])
        expected = reference_fnv1a(b"ad_id=12345") % 1000
        assert expected == 78
        assert schema.hash_feature("ad_id", "12345") == 78

    def test_determinism_across_schema_instances(self):
        a = FeatureSchema([FieldSpec("x", buckets=97)])
        b = FeatureSchema([FieldSpec("x", buckets=97)])
        for raw in ("", "0", "hello", "12345", MISSING_TOKEN):
            assert a.hash_feature("x", raw) == b.hash_feature("x", raw)

    @given(
        buckets=st.integers(min_value=1, max_value=5000),
        raw=st.text(max_size=30),
        name=st.text(alphabet="abcdef_", min_size=1, max_size=8),
    )
    def test_index_always_in_field_range(self, buckets, raw, name):
        schema = FeatureSchema([FieldSpec("lead", buckets=11), FieldSpec(name, buckets=buckets)])
        idx = schema.hash_feature(name, raw)
        assert schema.index_base[1] <= idx < schema.index_base[1] + buckets

    def test_canonical_token_numbers(self):
        assert canonical_token("x") == "x"
        assert canonical_token(7) == "7"
        assert canonical_token(7.0) == "7"
        assert canonical_token(True) == "1"
        assert canonical_token(2.5) == "2.5"


class TestSchema:
    def test_index_base_cumulative(self):
        schema = FeatureSchema(
            [FieldSpec("a", buckets=4), FieldSpec("b", buckets=7), FieldSpec("c", buckets=2)]
        )
        assert schema.index_base == (0, 4, 11)
        assert schema.n_features == 13

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="unique"):
            FeatureSchema([FieldSpec("a"), FieldSpec("a")])

    def test_bad_bucket_count_rejected(self):
        with pytest.raises(DataError):
            FieldSpec("a", buckets=0)

    def test_digest_depends_on_layout(self):
        a = FeatureSchema([FieldSpec("a", buckets=4)])
        b = FeatureSchema([FieldSpec("a", buckets=5)])
        c = FeatureSchema([FieldSpec("b", buckets=4)])
        assert len({a.digest(), b.digest(), c.digest()}) == 3


class TestTransformNumerical:
    @pytest.mark.parametrize(
        "v,bucket",
        [(0, 0), (7, 3), (-5, 0), (1, 1), (3, 2), (511, 9), (1023, 10), (0.5, 0)],
    )
    def test_examples(self, v, bucket):
        assert transform_numerical(v) == (bucket, 1.0)

    def test_missing_and_nan_clamp(self):
        assert transform_numerical(None) == (0, 1.0)
        assert transform_numerical(float("nan")) == (0, 1.0)


class TestIngest:
    def _write(self, path, text):
        path.write_text(text, encoding="utf-8")
        return path

    def _schema(self):
        return FeatureSchema([FieldSpec("a", buckets=5), FieldSpec("b", buckets=5)])

    def test_order_and_labels_preserved(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b\n1,x,y\n0,z,w\n")
        ds = ingest_csv(p, self._schema())
        assert len(ds) == 2
        assert ds.labels.tolist() == [1.0, 0.0]
        assert ds.row_ids.tolist() == [0, 1]
        assert ds.y_last is None

    def test_y_last_column_carried_and_clipped(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b,y_last\n1,x,y,0.25\n0,z,w,1.0\n")
        ds = ingest_csv(p, self._schema())
        assert ds.y_last is not None
        assert ds.y_last[0] == 0.25
        assert ds.y_last[1] == 1.0 - 1e-7  # exact 1 clipped inward

    def test_wrong_column_count_names_row(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b\n1,x,y\n0,z\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(p, self._schema())

    def test_bad_label_rejected(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b\n2,x,y\n")
        with pytest.raises(DataError, match="label"):
            ingest_csv(p, self._schema())

    def test_y_last_out_of_range_rejected(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b,y_last\n1,x,y,1.5\n")
        with pytest.raises(DataError, match="y_last"):
            ingest_csv(p, self._schema())

    def test_header_mismatch_rejected(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,c\n1,x,y\n")
        with pytest.raises(DataError, match="header"):
            ingest_csv(p, self._schema())

    def test_missing_cell_hashes_sentinel(self, tmp_path):
        schema = self._schema()
        p = self._write(tmp_path / "d.csv", "label,a,b\n1,,y\n")
        ds = ingest_csv(p, schema)
        assert ds.indices[0, 0] == schema.hash_feature("a", MISSING_TOKEN)

    def test_numerical_field_discretized(self, tmp_path):
        schema = FeatureSchema(
            [FieldSpec("n", "numerical", buckets=8), FieldSpec("c", buckets=8)]
        )
        p = self._write(tmp_path / "d.csv", "label,n,c\n1,7,x\n0,0,x\n1,oops,x\n")
        ds = ingest_csv(p, schema)
        assert ds.indices[0, 0] == schema.hash_feature("n", 3)  # floor(log2(8))
        assert ds.indices[1, 0] == schema.hash_feature("n", 0)
        assert ds.indices[2, 0] == schema.hash_feature("n", MISSING_TOKEN)

    def test_encoding_is_pure(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b\n1,x,y\n1,x,y\n")
        ds = ingest_csv(p, self._schema())
        assert np.array_equal(ds.indices[0], ds.indices[1])


class TestDataset:
    def test_arrays_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.labels[0] = 5.0

    def test_with_y_last_validates_and_clips(self, tiny_dataset):
        n = len(tiny_dataset)
        scored = tiny_dataset.with_y_last(np.full(n, 1.0))
        assert np.all(scored.y_last == 1.0 - 1e-7)
        with pytest.raises(DataError):
            tiny_dataset.with_y_last(np.full(n, 1.5))
        with pytest.raises(DataError):
            tiny_dataset.with_y_last(np.full(n, np.nan))
        with pytest.raises(DataError):
            tiny_dataset.with_y_last(np.zeros(n - 1))

    def test_row_view(self, tiny_dataset):
        inst = tiny_dataset.row(3)
        assert inst.row_id == 3
        assert inst.indices.shape == (4,)
        assert inst.y_last is None


class TestSynthetic:
    def test_spec_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(0, 4, 2, 10, seed=1)
        with pytest.raises(DataError):
            SyntheticSpec(2, 4, 2, 10, seed=1, drift_rate=1.5)

    def test_bitwise_determinism(self):
        spec = SyntheticSpec(4, 16, 3, 500, seed=7, n_windows=3, drift_rate=0.4)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for wa, wb in zip(a, b):
            assert np.array_equal(wa.labels, wb.labels)
            assert np.array_equal(wa.indices, wb.indices)

    def test_drift_zero_keeps_one_ground_truth(self):
        spec = SyntheticSpec(4, 16, 3, 400, seed=11, n_windows=3, drift_rate=0.0)
        _, truths = generate_synthetic(spec, return_truth=True)
        for t in truths[1:]:
            assert np.array_equal(t.latent, truths[0].latent)

    def test_drift_changes_ground_truth(self):
        spec = SyntheticSpec(4, 16, 3, 400, seed=11, n_windows=2, drift_rate=0.5)
        _, truths = generate_synthetic(spec, return_truth=True)
        changed = np.any(truths[0].latent != truths[1].latent, axis=1).sum()
        assert changed == round(0.5 * 64)

    def test_windows_exchangeable_without_drift(self):
        spec = SyntheticSpec(6, 32, 4, 20_000, seed=5, n_windows=4, drift_rate=0.0)
        windows = generate_synthetic(spec)
        means = np.array([w.labels.mean() for w in windows])
        pooled = means.mean()
        sigma = np.sqrt(pooled * (1 - pooled) / spec.n_rows)
        assert np.all(np.abs(means - pooled) <= 3 * sigma)

    def test_label_rate_matches_monte_carlo_oracle(self):
        from reloop.features import token_probabilities

        spec = SyntheticSpec(8, 64, 4, 100_000, seed=42)
        (ds,), (truth,) = generate_synthetic(spec, return_truth=True)
        schema = spec.schema()
        rng = np.random.default_rng(1234)
        # independent draw path: choice over the declared popularity law
        tokens = rng.choice(
            spec.buckets_per_field,
            p=token_probabilities(spec.buckets_per_field),
            size=(200_000, spec.n_fields),
        )
        table = np.array(
            [[schema.hash_feature(f, str(t)) for t in range(spec.buckets_per_field)]
             for f in range(spec.n_fields)]
        )
        indices = np.take_along_axis(table, tokens.T, axis=1).T
        expected = truth.ctr(indices).mean()
        assert abs(ds.labels.mean() - expected) <= 0.02

    def test_index_ranges(self):
        spec = SyntheticSpec(3, 10, 2, 1000, seed=3)
        (ds,) = generate_synthetic(spec)
        schema = ds.schema
        for f in range(schema.n_fields):
            lo = schema.index_base[f]
            hi = lo + schema.fields[f].buckets
            col = ds.indices[:, f]
            assert col.min() >= lo and col.max() < hi

    def test_csv_round_trip_equals_in_memory(self, tmp_path):
        spec = SyntheticSpec(4, 12, 3, 800, seed=21, n_windows=2, drift_rate=0.2)
        mem = generate_synthetic(spec)
        paths = generate_synthetic_csv(spec, tmp_path)
        assert [p.name for p in paths] == ["window_000.csv", "window_001.csv"]
        schema = spec.schema()
        for path, ref in zip(paths, mem):
            ds = ingest_csv(path, schema)
            assert np.array_equal(ds.labels, ref.labels)
            assert np.array_equal(ds.indices, ref.indices)
            assert np.array_equal(ds.row_ids, ref.row_ids)

    def test_gen_csv_byte_determinism(self, tmp_path):
        spec = SyntheticSpec(3, 8, 2, 300, seed=9, n_windows=2, drift_rate=0.1)
        a = generate_synthetic_csv(spec, tmp_path / "a")
        b = generate_synthetic_csv(spec, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**31))
def test_hash_of_int_equals_hash_of_its_string(raw):
    schema = FeatureSchema([FieldSpec("k", buckets=101)])
    assert schema.hash_feature("k", raw) == schema.hash_feature("k", str(raw))

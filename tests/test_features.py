"""Feature pipeline: hashing, encoding, ingestion, synthetic generation."""

import csv
import hashlib
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hashutils import encode_cell, feature_index
from reloop.features import (
    MISSING_TOKEN,
    ROW_BLOCK,
    DataError,
    Dataset,
    FeatureSchema,
    FieldSpec,
    SyntheticSpec,
    _hidden_model,
    _window_blocks,
    fnv1a64,
    generate_synthetic,
    generate_synthetic_csv,
    ingest_csv,
    token_probabilities,
    transform_numerical,
)
from reloop.losses import clip_prob
from reloop.models import forward_batch, predict_batch
from reloop.rng import fnv1a64_batch, philox


def reference_fnv1a(data: bytes) -> int:
    """Independent FNV-1a oracle, one byte at a time, unlike the library's
    column-wise kernel."""
    import functools

    return functools.reduce(
        lambda h, b: ((h ^ b) * 0x100000001B3) % 2**64, data, 0xCBF29CE484222325
    )


def hidden_models(spec: SyntheticSpec):
    """A copy of the hidden CTR model behind each generated window."""
    truth, models = _hidden_model(spec), []
    for w, *_ in _window_blocks(spec, truth):
        if w == len(models):  # the window's first block: its drift is applied
            models.append(truth.copy())
    return models


class TestHashing:
    def test_fnv1a_matches_independent_reference(self):
        for payload in (b"", b"a", b"ad_id=12345", b"f0=__MISSING__", bytes(range(256))):
            assert fnv1a64(payload) == reference_fnv1a(payload)

    def test_fnv1a_known_offset_basis(self):
        # digest of the empty string is the offset basis by construction
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_single_bucket_field_forces_offset_index(self):
        schema = FeatureSchema([FieldSpec("pad", buckets=3), FieldSpec("f0", buckets=1)])
        assert feature_index(schema, "f0", "anything") == schema.index_base[1]
        assert feature_index(schema, "f0", "other") == schema.index_base[1]

    def test_frozen_regression_constant(self):
        # value computed once with the reference implementation and frozen
        schema = FeatureSchema([FieldSpec("ad_id", buckets=1000)])
        expected = reference_fnv1a(b"ad_id=12345") % 1000
        assert expected == 78
        assert feature_index(schema, "ad_id", "12345") == 78

    def test_determinism_across_schema_instances(self):
        a = FeatureSchema([FieldSpec("x", buckets=97)])
        b = FeatureSchema([FieldSpec("x", buckets=97)])
        for raw in ("", "0", "hello", "12345", MISSING_TOKEN):
            assert feature_index(a, "x", raw) == feature_index(b, "x", raw)

    @given(
        buckets=st.integers(min_value=1, max_value=5000),
        raw=st.text(max_size=30),
        name=st.text(alphabet="abcdef_", min_size=1, max_size=8),
    )
    def test_index_always_in_field_range(self, buckets, raw, name):
        schema = FeatureSchema([FieldSpec("lead", buckets=11), FieldSpec(name, buckets=buckets)])
        idx = feature_index(schema, name, raw)
        assert schema.index_base[1] <= idx < schema.index_base[1] + buckets



# Byte strings of every shape: arbitrary bytes, NULs (trailing ones too),
# multibyte UTF-8, and strings longer than 64 bytes. Lists run past
# rng._BYTE_LOOP_ROWS strings of one length, so a draw can take both the
# column fold and the byte loop.
_BLOBS = (st.binary(max_size=12)
          | st.binary(max_size=4).map(lambda b: b + b"\x00" * 3)
          | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6).map(str.encode)
          | st.binary(min_size=65, max_size=130))
_SHORT = st.lists(st.binary(min_size=2, max_size=3), max_size=60)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_BLOBS, max_size=10), _SHORT, _BLOBS)
@example([], [], b"")
@example([b"", b"\x00", b"a\x00\x00", "é€😀".encode(), b"x" * 100], [], b"f0=")
@example([b"x" * 100] * 17 + [b""] * 17, [b"a\x00\x00"] * 20, b"f0=")
def test_kernel_is_fnv1a_of_each_string_and_of_prefix_plus_string(blobs, short, prefix):
    data = blobs + short
    assert fnv1a64_batch(data).tolist() == [reference_fnv1a(b) for b in data]
    state = reference_fnv1a(prefix)
    assert fnv1a64_batch(data, state).tolist() == [reference_fnv1a(prefix + b) for b in data]
    assert fnv1a64_batch(data).dtype == np.uint64


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

    def test_indices_past_int64_rejected(self):
        with pytest.raises(DataError, match="int64"):
            FeatureSchema([FieldSpec("a", buckets=2**63 + 1)])
        with pytest.raises(DataError, match="int64"):
            FeatureSchema([FieldSpec("a", buckets=2**62), FieldSpec("b", buckets=2**62 + 1)])
        widest = FeatureSchema([FieldSpec("a", buckets=2**63)])
        assert 0 <= feature_index(widest, "a", "x") < 2**63

    def test_index_dtype_is_int32_up_to_2_31_features(self):
        def dtype(*buckets):
            return FeatureSchema([FieldSpec(f"f{i}", buckets=b)
                                  for i, b in enumerate(buckets)]).index_dtype

        assert dtype(2**31) == np.int32
        assert dtype(2**30, 2**30) == np.int32
        assert dtype(2**31 + 1) == np.int64
        assert dtype(2**30, 2**30 + 1) == np.int64
        assert dtype(2**63) == np.int64

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
        assert transform_numerical(v) == bucket

    def test_missing_and_nan_clamp(self):
        assert transform_numerical(None) == 0
        assert transform_numerical(float("nan")) == 0

    def test_plus_inf_has_no_bucket(self):
        with pytest.raises(DataError, match="inf"):
            transform_numerical(float("inf"))
        assert transform_numerical(float("-inf")) == 0


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
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}:3: expected 3 columns"):
            ingest_csv(p, self._schema())

    def test_bad_label_rejected(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b\n2,x,y\n")
        with pytest.raises(DataError, match="label"):
            ingest_csv(p, self._schema())

    def test_y_last_out_of_range_rejected(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b,y_last\n1,x,y,1.5\n")
        with pytest.raises(DataError, match="y_last"):
            ingest_csv(p, self._schema())

    def test_non_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes(b"label,a,b\n1,x,y\n" + b"0,x,y\n" * 2000 + b"1,caf\xe9,y\n")
        # text is decoded in chunks, so the line named is the last one read
        # before the chunk holding the bad byte, not line 2003 itself
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))}: not UTF-8 text "
                           r"after line [1-9]\d*: invalid continuation byte$"):
            ingest_csv(p, self._schema())

    def test_header_mismatch_rejected(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,c\n1,x,y\n")
        with pytest.raises(DataError, match="header"):
            ingest_csv(p, self._schema())

    def test_missing_cell_hashes_sentinel(self, tmp_path):
        schema = self._schema()
        p = self._write(tmp_path / "d.csv", "label,a,b\n1,,y\n")
        ds = ingest_csv(p, schema)
        assert ds.indices[0, 0] == feature_index(schema, "a", MISSING_TOKEN)

    def test_numerical_field_discretized(self, tmp_path):
        schema = FeatureSchema(
            [FieldSpec("n", "numerical", buckets=8), FieldSpec("c", buckets=8)]
        )
        p = self._write(tmp_path / "d.csv", "label,n,c\n1,7,x\n0,0,x\n1,oops,x\n")
        ds = ingest_csv(p, schema)
        assert ds.indices[0, 0] == feature_index(schema, "n", "3")  # floor(log2(8))
        assert ds.indices[1, 0] == feature_index(schema, "n", "0")
        assert ds.indices[2, 0] == feature_index(schema, "n", MISSING_TOKEN)

    def test_infinite_numerical_cell_hashes_sentinel(self, tmp_path):
        schema = FeatureSchema([FieldSpec("n", "numerical", buckets=8)])
        p = self._write(tmp_path / "d.csv", "label,n\n1,inf\n0,1e400\n1,-inf\n")
        ds = ingest_csv(p, schema)
        assert ds.indices[:2, 0].tolist() == [feature_index(schema, "n", MISSING_TOKEN)] * 2
        assert ds.indices[2, 0] == feature_index(schema, "n", "0")  # negative: bucket 0

    def test_index_past_2_31_is_exact_on_the_int64_side(self, tmp_path):
        """A 2^32-bucket field keeps 8-byte indices; a token whose index is
        past 2^31 comes back exact, not wrapped."""
        schema = FeatureSchema([FieldSpec("a", buckets=2**32)])
        token = next(t for t in map(str, range(100))
                     if fnv1a64(f"a={t}".encode()) % 2**32 >= 2**31)
        ds = ingest_csv(self._write(tmp_path / "d.csv", f"label,a\n1,{token}\n"), schema)
        assert ds.indices.dtype == np.int64
        assert int(ds.indices[0, 0]) == fnv1a64(f"a={token}".encode()) % 2**32

    def test_encoding_is_pure(self, tmp_path):
        p = self._write(tmp_path / "d.csv", "label,a,b\n1,x,y\n1,x,y\n")
        ds = ingest_csv(p, self._schema())
        assert np.array_equal(ds.indices[0], ds.indices[1])



def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestIngestBlocks:
    """Ingest encodes a block of ROW_BLOCK rows at a time; no block edge shows."""

    N = 2 * ROW_BLOCK + 37
    SCHEMA = FeatureSchema([FieldSpec("c", buckets=97), FieldSpec("n", "numerical", 31),
                            FieldSpec("u", buckets=53)])

    def _rows(self):
        """Rows whose cells repeat across blocks, with empty, unparsable and
        non-ASCII cells and a y_last column."""
        rng = np.random.default_rng(3)
        numbers = ["", "oops", "inf", "-2", "0", "7", "12.5", "1e400", "65535"]
        return [[str(i % 2), "" if i % 11 == 0 else f"c{rng.integers(0, 300)}",
                 numbers[rng.integers(0, len(numbers))], f"é{rng.integers(0, 5000)}",
                 f"{rng.random():.6f}"]
                for i in range(self.N)]

    def _write(self, path, rows):
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([["label", "c", "n", "u", "y_last"],
                                                          *rows])
        return path

    def test_equals_encode_cell_per_cell(self, tmp_path):
        rows = self._rows()
        ds = ingest_csv(self._write(tmp_path / "d.csv", rows), self.SCHEMA)
        assert ds.labels.tolist() == [float(r[0]) for r in rows]
        assert ds.indices.tolist() == [[encode_cell(self.SCHEMA, p, cell)
                                        for p, cell in enumerate(r[1:4])] for r in rows]
        assert ds.y_last.tobytes() == clip_prob(np.array([float(r[4]) for r in rows])).tobytes()
        assert ds.row_ids.tolist() == list(range(self.N))

    @pytest.mark.parametrize("fault, message", [
        ("label", "label must be 0 or 1, got '2'"),
        ("width", "expected 5 columns, got 4"),
        ("y_last", "y_last must lie in [0, 1], got '1.5'"),
    ])
    def test_error_in_second_block_names_its_row(self, tmp_path, fault, message):
        rows = self._rows()
        bad = ROW_BLOCK + 5  # 1-based data row in the second block, on line bad + 1
        row = rows[bad - 1]
        if fault == "label":
            row[0] = "2"
        elif fault == "width":
            del row[2]
        else:
            row[4] = "1.5"
        path = self._write(tmp_path / "d.csv", rows)
        with pytest.raises(DataError, match=rf"^{re.escape(f'{path}:{bad + 1}: {message}')}$"):
            ingest_csv(path, self.SCHEMA)

    def test_peak_memory_grows_with_the_output_not_the_raw_rows(self, tmp_path):
        """Past the Dataset it returns (labels, indices and row ids: 80 bytes a
        row at 8 fields), ingest holds one block of raw cells, not the file's,
        whether cells repeat (40 tokens a field) or are all distinct."""
        schema = FeatureSchema([FieldSpec(f"f{i}", buckets=1000) for i in range(8)])
        rng = np.random.default_rng(0)

        def repeated(r):
            return [f"t{t}" for t in rng.integers(0, 40, 8)]

        def distinct(r):
            return [f"t{r}x{i}" for i in range(8)]

        def peak(n, cells):
            path = tmp_path / f"{n}.csv"
            with path.open("w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([["label"] + [f"f{i}" for i in range(8)]] + [
                    [r % 2] + cells(r) for r in range(n)])
            return _peak_bytes(lambda: ingest_csv(path, schema))

        small, large = 4 * ROW_BLOCK, 16 * ROW_BLOCK
        for cells in (repeated, distinct):
            per_row = (peak(large, cells) - peak(small, cells)) / (large - small)
            assert per_row <= 2.5 * 80, (cells.__name__, per_row)

    def test_one_long_cell_costs_its_bytes_not_the_block_times_its_length(self, tmp_path):
        """A new cell near csv's field size limit among short new cells: the
        kernel pays for the block's bytes, not its rows times the longest."""
        long = "\U0001F600" * (csv.field_size_limit() - 8)  # 4 UTF-8 bytes a char
        rows = [[r % 2, f"t{r}"] for r in range(ROW_BLOCK)]
        rows[ROW_BLOCK // 2][1] = long
        path = tmp_path / "d.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([["label", "c"], *rows])
        schema = FeatureSchema([FieldSpec("c", buckets=97)])
        start = time.perf_counter()
        ds = ingest_csv(path, schema)
        elapsed = time.perf_counter() - start
        assert ds.indices[:, 0].tolist() == [encode_cell(schema, 0, r[1]) for r in rows]
        peak = _peak_bytes(lambda: ingest_csv(path, schema))
        assert peak <= 8 * len(long.encode()) + 2**20, peak
        assert elapsed < 1.0, elapsed

    def test_high_cardinality_fields_hold_each_distinct_cell_once(self, tmp_path):
        """With every cell new, ingest grows by the Dataset's bytes plus what
        one cell->index dict entry per distinct cell takes, not by raw rows."""
        schema = FeatureSchema([FieldSpec(f"f{i}", buckets=1000) for i in range(8)])

        def peak(n):
            path = tmp_path / f"{n}.csv"
            with path.open("w", encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows([["label"] + [f"f{i}" for i in range(8)]] + [
                    [r % 2] + [f"t{r}x{i}" for i in range(8)] for r in range(n)])
            return _peak_bytes(lambda: ingest_csv(path, schema))

        def dicts(n):
            return _peak_bytes(lambda: [{f"t{r}x{i}": 2**20 + r for r in range(n)}
                                        for i in range(8)])

        small, large = 4 * ROW_BLOCK, 16 * ROW_BLOCK
        per_row = (peak(large) - peak(small)) / (large - small)
        per_row_dicts = (dicts(large) - dicts(small)) / (large - small)
        assert per_row <= 2.5 * 80 + 1.25 * per_row_dicts, (per_row, per_row_dicts)

    def test_gen_data_writer_holds_one_block(self, tmp_path):
        """Writing a window adds at most one block's rows to what generating it
        holds anyway."""
        spec = SyntheticSpec(8, 4096, 2, 16 * ROW_BLOCK, seed=1)
        arrays = _peak_bytes(lambda: [None for _ in _window_blocks(spec, _hidden_model(spec))])
        written = _peak_bytes(lambda: generate_synthetic_csv(spec, tmp_path))
        assert written - arrays <= 1024 * ROW_BLOCK, written - arrays

    def test_gen_data_memory_flat_in_rows(self, tmp_path):
        """A window is drawn, scored and written a block at a time, so four
        times the rows hold no more than the tables and one block."""

        def peak(rows):
            spec = SyntheticSpec(8, 4096, 2, rows, seed=1)
            return _peak_bytes(lambda: generate_synthetic_csv(spec, tmp_path / str(rows)))

        small, large = peak(4 * ROW_BLOCK), peak(16 * ROW_BLOCK)
        assert large <= 1.25 * small, (small, large)


class TestDataset:
    def test_arrays_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.labels[0] = 5.0

    def test_callers_arrays_stay_writeable(self, small_schema):
        """The dataset holds read-only views of arrays it needs not convert,
        and the caller's own arrays keep their flags."""
        lab, rid = np.array([1.0, 0.0]), np.arange(2)
        idx = np.arange(8, dtype=small_schema.index_dtype).reshape(2, 4)
        ds = Dataset(small_schema, lab, idx, rid)
        for mine, held in ((lab, ds.labels), (idx, ds.indices), (rid, ds.row_ids)):
            assert mine.flags.writeable
            assert not held.flags.writeable
            assert np.shares_memory(mine, held)
        lab[0] = 0.0  # no "assignment destination is read-only"

    def test_index_the_dtype_cannot_hold_refused(self, small_schema):
        """A 64-bit index past int32 is refused, not wrapped; one that fits
        but lies past the table is left for the trainer's DimensionError."""
        idx = np.arange(8, dtype=np.int64).reshape(2, 4)
        idx[1, 2] = 2**32 + 3
        with pytest.raises(DataError, match=r"^feature index 4294967299 does not fit int32"):
            Dataset(small_schema, np.zeros(2), idx, np.arange(2))
        with pytest.raises(DataError, match=r"^feature index 2\.5 does not fit int32"):
            Dataset(small_schema, np.zeros(2), [[0, 1, 2.5, 3], [4, 5, 6, 7]], np.arange(2))
        idx[1, 2] = small_schema.n_features
        held = Dataset(small_schema, np.zeros(2), idx, np.arange(2)).indices
        assert held.dtype == np.int32 and held.tolist() == idx.tolist()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        before=st.lists(st.integers(-(2**31), 2**31 - 1), max_size=9),
        bad=st.one_of(
            st.integers(min_value=2**31), st.integers(max_value=-(2**31) - 1),
            st.text(max_size=4), st.none(), st.binary(max_size=3),
            st.floats().filter(lambda x: not x.is_integer()),
        ),
        after=st.lists(st.one_of(st.integers(-(2**31), 2**31 - 1), st.none(), st.text()),
                       max_size=9),
    )
    def test_first_index_that_cannot_be_cast_named(self, before, bad, after):
        """An object index array holding values int() refuses (2**64, a
        string, None) or that the cast would change raises DataError naming
        the first such value, never a plain Python error."""
        schema = FeatureSchema([FieldSpec("a", buckets=6)])
        cells = before + [bad] + after
        indices = np.empty((len(cells), 1), dtype=object)
        indices[:, 0] = cells
        with pytest.raises(DataError) as info:
            Dataset(schema, np.zeros(len(cells)), indices, np.arange(len(cells)))
        assert str(info.value).startswith(f"feature index {bad!r} does not fit int32, ")

    def test_every_constructor_keeps_the_schema_dtype(self, tiny_dataset, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,f0,f1,f2,f3\n1,a,b,c,d\n", encoding="utf-8")
        spec = SyntheticSpec(n_fields=2, buckets_per_field=4, latent_dim=2, n_rows=5, seed=0)
        ds, n = tiny_dataset, len(tiny_dataset)
        made = [ds, ingest_csv(path, ds.schema), ds.take([3, 1]), ds.head(4), ds.tail(4),
                ds.with_y_last(np.full(n, 0.5)), *generate_synthetic(spec)]
        assert [d.indices.dtype for d in made] == [d.schema.index_dtype for d in made]
        assert {d.indices.dtype for d in made} == {np.dtype(np.int32)}

    def test_y_last_outside_unit_interval_rejected(self, tiny_dataset):
        ds, n = tiny_dataset, len(tiny_dataset)
        for bad in (1.5, -0.5, np.nan):
            y_last = np.full(n, 0.5)
            y_last[n // 2] = bad
            with pytest.raises(DataError, match=r"y_last must lie in \[0, 1\]"):
                Dataset(ds.schema, ds.labels, ds.indices, ds.row_ids, y_last)
        kept = Dataset(ds.schema, ds.labels, ds.indices, ds.row_ids, np.linspace(0, 1, n))
        assert kept.y_last.tobytes() == clip_prob(np.linspace(0, 1, n)).tobytes()

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


class TestSynthetic:
    def test_spec_validation(self):
        with pytest.raises(DataError):
            SyntheticSpec(0, 4, 2, 10, seed=1)
        with pytest.raises(DataError, match="n_fields must be >= 2"):
            SyntheticSpec(1, 4, 2, 10, seed=1)  # no field pairs: no hidden CTR
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
        truths = hidden_models(spec)
        for t in truths[1:]:
            assert np.array_equal(t.emb, truths[0].emb)

    def test_drift_changes_ground_truth(self):
        spec = SyntheticSpec(4, 16, 3, 400, seed=11, n_windows=2, drift_rate=0.5)
        truths = hidden_models(spec)
        changed = np.any(truths[0].emb != truths[1].emb, axis=1).sum()
        assert changed == round(0.5 * 64)

    def test_windows_exchangeable_without_drift(self):
        spec = SyntheticSpec(6, 32, 4, 20_000, seed=5, n_windows=4, drift_rate=0.0)
        windows = generate_synthetic(spec)
        means = np.array([w.labels.mean() for w in windows])
        pooled = means.mean()
        sigma = np.sqrt(pooled * (1 - pooled) / spec.n_rows)
        assert np.all(np.abs(means - pooled) <= 3 * sigma)

    def test_label_rate_matches_monte_carlo_oracle(self):
        spec = SyntheticSpec(8, 64, 4, 100_000, seed=42)
        (ds,), (truth,) = generate_synthetic(spec), hidden_models(spec)
        schema = spec.schema()
        rng = np.random.default_rng(1234)
        # independent draw path: choice over the declared popularity law
        tokens = rng.choice(
            spec.buckets_per_field,
            p=token_probabilities(spec.buckets_per_field),
            size=(200_000, spec.n_fields),
        )
        table = np.array(
            [[feature_index(schema, f"f{f}", str(t)) for t in range(spec.buckets_per_field)]
             for f in range(spec.n_fields)]
        )
        indices = np.take_along_axis(table, tokens.T, axis=1).T
        n = indices.shape[0]
        drawn = Dataset(schema, np.zeros(n), indices, np.arange(n))  # labels unused
        expected = predict_batch(truth, drawn).mean()
        assert abs(ds.labels.mean() - expected) <= 0.02

    def test_hidden_model_matches_pairwise_loop_oracle(self):
        """The hidden CTR is sigmoid(bias + sum over field pairs f < g of
        <v_f, v_g>), here written out pair by pair with no code from models,
        in every window of a drifting spec."""
        spec = SyntheticSpec(4, 16, 3, 2500, seed=9, n_windows=3, drift_rate=0.4)
        schema, truth = spec.schema(), _hidden_model(spec)
        for _, _, indices, _ in _window_blocks(spec, truth):  # 1024, 1024, 452 rows
            n = indices.shape[0]
            v = truth.emb[indices]  # (n, F, D)
            z = np.full(n, truth.bias)
            for f in range(spec.n_fields):
                for g in range(f + 1, spec.n_fields):
                    z += (v[:, f] * v[:, g]).sum(axis=1)
            oracle = 1.0 / (1.0 + np.exp(-z))
            got = predict_batch(truth, Dataset(schema, np.zeros(n), indices, np.arange(n)))
            assert np.max(np.abs(got - oracle)) <= 1e-12

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

    @pytest.mark.parametrize("n_rows, n_fields", [
        (7, 5), (1023, 3), (1024, 3), (1025, 2), (1025, 5), (2047, 2), (2049, 3),
    ])  # n * F % 4 = 3, 1, 0, 2, 1, 2, 3; below, at and just past a block edge
    def test_blocks_equal_whole_window_recipe(self, tmp_path, n_rows, n_fields):
        """The streamed draws equal the whole-window recipe written out here:
        per window, one ``random((n, F))`` for the tokens, the hidden model
        scored on the whole window, then one ``random(n)`` for the labels.
        Philox makes four doubles per counter step, so an n * F that is not a
        multiple of 4 tests where the label stream starts."""
        spec = SyntheticSpec(n_fields, 300, 3, n_rows, seed=n_rows, n_windows=3,
                             drift_rate=0.3)
        schema, truth = spec.schema(), _hidden_model(spec)
        n, F, B = n_rows, n_fields, spec.buckets_per_field
        table = np.array([[feature_index(schema, f"f{f}", str(t)) for t in range(B)]
                          for f in range(F)])
        cdf = np.cumsum(token_probabilities(B))
        scale = (1.6**2 / (F * (F - 1) / 2 * spec.latent_dim)) ** 0.25
        header = ",".join(["label"] + [f"f{f}" for f in range(F)]) + "\n"
        windows = generate_synthetic(spec)
        paths = generate_synthetic_csv(spec, tmp_path)
        for w, (ds, path) in enumerate(zip(windows, paths)):
            if w > 0:
                drift = philox(spec.seed, 3, w)
                k = round(0.3 * schema.n_features)
                rows = drift.choice(schema.n_features, size=k, replace=False)
                truth.emb[rows] = drift.normal(0.0, scale, size=(k, spec.latent_dim))
            rng = philox(spec.seed, 2, w)
            tokens = np.minimum(np.searchsorted(cdf, rng.random((n, F)), side="right"), B - 1)
            indices = np.take_along_axis(table, tokens.T, axis=1).T
            labels = (rng.random(n) < forward_batch(truth, indices)[1]).astype(np.float64)
            assert np.array_equal(ds.indices, indices)
            assert np.array_equal(ds.labels, labels)
            lines = [f"{int(y)}," + ",".join(map(str, row)) + "\n"
                     for y, row in zip(labels.tolist(), tokens.tolist())]
            assert path.read_bytes() == (header + "".join(lines)).encode("ascii")

    def test_gen_csv_golden_bytes(self, tmp_path):
        # sha256 recorded from the row-at-a-time writer that the block writer
        # replaced; three blocks, the last one short, and tokens past 255
        spec = SyntheticSpec(3, 300, 2, 2 * ROW_BLOCK + 37, seed=5, n_windows=2,
                             drift_rate=0.1)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in generate_synthetic_csv(spec, tmp_path)]
        assert digests == [
            "f6da045e38f4e2a697626b7b76cc311d31348c125ce8f8ac7d9df22376acb7f6",
            "f052645a467b6e6b6dd5b5a8759ee92cdf2f1a77ea23ee2d3e1952964b27d176",
        ]

    def test_gen_csv_byte_determinism(self, tmp_path):
        spec = SyntheticSpec(3, 8, 2, 300, seed=9, n_windows=2, drift_rate=0.1)
        a = generate_synthetic_csv(spec, tmp_path / "a")
        b = generate_synthetic_csv(spec, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()


# Cells that exercise both field kinds: numbers of every shape, the spellings
# float() accepts for inf and nan, csv's special characters, and any text.
_NUMBERS = st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.integers().map(str)
_TEXT = st.characters(blacklist_categories=("Cs",))  # a UTF-8 file holds no surrogates
_CELLS = (_NUMBERS | st.sampled_from(["", "inf", "-inf", "1e400", "nan", " 7 ", "1_0"])
          | st.text(_TEXT, max_size=8))
_FUZZ_SCHEMA = FeatureSchema([FieldSpec("c", buckets=13), FieldSpec("n", "numerical", 17)])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from("01"), _CELLS, _CELLS), min_size=1, max_size=6))
def test_ingested_index_is_encode_cell_of_each_cell(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        with path.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([("label", "c", "n"), *rows])
        ds = ingest_csv(path, _FUZZ_SCHEMA)
    assert ds.labels.tolist() == [float(label) for label, _, _ in rows]
    expected = [[encode_cell(_FUZZ_SCHEMA, p, cell) for p, cell in enumerate(cells)]
                for _, *cells in rows]
    assert ds.indices.tolist() == expected


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from('01,.-+eEinfa"\r\n \x00') | _TEXT, max_size=40))
def test_fuzzed_csv_text_ingests_or_raises_data_error(body):
    """Any text after a valid header is a Dataset or a DataError, never another
    exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text("label,c,n\n" + body, encoding="utf-8")
        try:
            ds = ingest_csv(path, _FUZZ_SCHEMA)
        except DataError:
            return
    assert ds.indices.shape == (len(ds), 2)
    assert np.all(np.isfinite(ds.labels))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_CELLS)
def test_any_numerical_cell_encodes_in_its_range(cell):
    base = _FUZZ_SCHEMA.index_base[1]
    assert base <= encode_cell(_FUZZ_SCHEMA, 1, cell) < base + 17

"""Stage records across the trust boundary: the frame codec, and what
both stores do with a record that is not one.

The shared cache directory is written by other processes and may be
copied around, so a hostile record there must be a counted miss
(``cache.stage.corrupt``, unlinked, recomputed), never an exception; in
a checkpoint it is this run's own state gone bad and raises a
``CheckpointError`` naming the file.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.cache import EvaluationCache
from repro.codec import FrameError, decode_frame, encode_frame
from repro.core.metrics import PPAMetrics
from repro.core.ppa_clustering import ClusteringResult
from repro.core.stages import encode_stage, stage_decoder
from repro.recovery import CheckpointError, CheckpointStore

KEY = "ab" + "0" * 62


def _record() -> bytes:
    result = ClusteringResult(
        cluster_of=np.array([0, 1, 1, 2, 0]),
        edge_scores=np.linspace(0.5, 2.0, 4),
        runtimes={"clustering": 0.5},
    )
    return encode_stage("clustering", KEY, result)


def _frame(envelope: bytes, blobs: bytes = b"") -> bytes:
    """A frame around arbitrary envelope bytes, with a valid checksum."""
    body = struct.pack("<I", len(envelope)) + envelope + blobs
    digest = hashlib.sha256(body).digest()
    return struct.pack("<8sQ32s", b"REPROFR1", len(body), digest) + body


def _object_column_frame() -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(
        buffer, np.array([{"a": 1}], dtype=object), allow_pickle=True
    )
    blob = buffer.getvalue()
    header = {"form": "repro.stage/1", "stage": "clustering", "key": KEY, "fields": {}}
    envelope = json.dumps({"header": header, "columns": [["cluster_of", len(blob)]]})
    return _frame(envelope.encode(), blob)


def _damaged(data: bytes, how: str, where: int, bit: int) -> bytes:
    where %= len(data)
    if how == "truncate":
        return data[:where]
    if how == "flip":
        return data[:where] + bytes([data[where] ^ (1 << bit)]) + data[where + 1 :]
    if how == "garbage header":
        return _frame(bytes((where + i * bit) % 256 for i in range(40)))
    if how == "oversize length":
        return data[:8] + struct.pack("<Q", 1 << 40 + bit) + data[16:]
    if how == "object dtype":
        return _object_column_frame()
    raise AssertionError(how)


DAMAGE = st.tuples(
    st.sampled_from(
        ["truncate", "flip", "garbage header", "oversize length", "object dtype"]
    ),
    st.integers(0, 10_000),
    st.integers(0, 7),
)


class TestCodec:
    def test_roundtrip_keeps_dtype_shape_and_order(self):
        columns = {
            "i": np.arange(6, dtype=np.int32).reshape(2, 3),
            "f": np.asfortranarray(np.linspace(0, 1, 6).reshape(3, 2)),
            "b": np.array([True, False]),
            "empty": np.zeros(0, dtype=np.uint8),
        }
        header, decoded = decode_frame(encode_frame({"k": [1, None, 0.1]}, columns))
        assert header == {"k": [1, None, 0.1]}
        assert list(decoded) == list(columns)
        for name, column in columns.items():
            assert decoded[name].dtype == column.dtype
            np.testing.assert_array_equal(decoded[name], column)
        assert decoded["f"].flags.f_contiguous

    def test_object_columns_are_not_encoded(self):
        with pytest.raises(FrameError, match="unsupported dtype"):
            encode_frame({}, {"o": np.array([object()])})

    def test_object_columns_are_not_decoded(self):
        with pytest.raises(FrameError, match="refused dtype"):
            decode_frame(_object_column_frame())

    @settings(max_examples=150, deadline=None)
    @given(damage=DAMAGE)
    def test_damage_is_a_frame_error(self, damage):
        data = _record()
        broken = _damaged(data, *damage)
        if broken == data:
            return
        with pytest.raises(ValueError):
            stage_decoder("clustering", KEY)(broken)

    def test_a_record_under_another_key_is_refused(self):
        other = "cd" + "0" * 62
        with pytest.raises(ValueError, match="not the 'clustering' record"):
            stage_decoder("clustering", other)(_record())
        with pytest.raises(ValueError, match="not the 'metrics' record"):
            stage_decoder("metrics", KEY)(_record())

    def test_instances_are_checked(self):
        with pytest.raises(ValueError, match="5 rows, expected 6"):
            stage_decoder("clustering", KEY, instances=6)(_record())

    def test_metrics_roundtrip(self):
        metrics = PPAMetrics(hpwl=1.25, rwl=None, wns=-0.1, runtimes={"route": 2.0})
        decoded = stage_decoder("metrics", KEY)(encode_stage("metrics", KEY, metrics))
        assert decoded == metrics


class TestHostileStageRecords:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(damage=DAMAGE)
    def test_shared_cache_counts_a_miss_and_unlinks(self, tmp_path, damage):
        cache = EvaluationCache(str(tmp_path / "cache"))
        cache.save_stage("clustering", KEY, _damaged(_record(), *damage))
        path = cache._stage_path(KEY)
        perf.enable()
        perf.reset()
        try:
            decode = stage_decoder("clustering", KEY)
            served = cache.load_stage("clustering", KEY, decode)
            corrupt = perf.counter_value("cache.stage.corrupt")
            misses = perf.counter_value("cache.stage.miss")
        finally:
            perf.disable()
        assert served is None
        assert (corrupt, misses) == (1, 1)
        assert not path.exists()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(damage=DAMAGE)
    def test_checkpoint_raises_naming_the_file(self, tmp_path, damage):
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.initialize({})
        store.save_stage("clustering", KEY, _damaged(_record(), *damage))
        with pytest.raises(CheckpointError, match="stage_clustering.pkl.*delete"):
            store.load_stage("clustering", KEY, stage_decoder("clustering", KEY))

    def test_intact_record_is_a_hit_in_both(self, tmp_path):
        cache = EvaluationCache(str(tmp_path / "cache"))
        store = CheckpointStore(str(tmp_path / "ckpt"))
        store.initialize({})
        decode = stage_decoder("clustering", KEY)
        for target in (cache, store):
            target.save_stage("clustering", KEY, _record())
            served = target.load_stage("clustering", KEY, decode)
            np.testing.assert_array_equal(served.cluster_of, [0, 1, 1, 2, 0])
        stats = cache.stats()
        assert stats.kinds["stages"]["entries"] == 1
        assert stats.kinds["items"]["entries"] == 0

    def test_gc_evicts_both_kinds(self, tmp_path):
        import os

        cache = EvaluationCache(str(tmp_path), max_entries=None)
        cache.save_stage("clustering", KEY, _record())
        os.utime(cache._stage_path(KEY), (1, 1))  # the oldest entry
        cache.put("ef" + "0" * 62, {"hpwl_cost": 1.0, "congestion_cost": 0.5})
        assert cache.gc(max_entries=1) == 1
        assert not cache._stage_path(KEY).exists()
        cache.save_stage("clustering", KEY, _record())
        assert cache.gc(max_entries=0) == 2
        assert cache.stats().entries == 0

"""The replay cache's disk entries: exact round trip and typed rejection.

An entry is a fixed prefix (magic, header and body lengths, sha256), a
canonical-JSON header and the raw bytes of the event columns.  Damaged
or foreign entries must raise ``ReplayCacheEntryError`` with a reason
(``truncated``, ``digest``, ``schema``, ``shape``); through
``ReplayCache.get`` they are counted by reason, unlinked and
recomputed.  The fuzz cases re-sign crafted headers with a valid digest
so the schema and shape checks are reached, not just the digest.
"""

import hashlib
import inspect
import json
import logging
import os
import pickle
import struct
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.events import EventColumns
from repro.engine import Engine, EstimatorSpec, GATING_POLICY, ReplayCache, SimJob
from repro.engine import cache as cache_mod
from repro.engine.cache import (
    ReplayCacheEntryError,
    decode_entry,
    encode_entry,
)
from repro.telemetry.registry import parse_key

_PREFIX = struct.Struct("<8sIQ32s")

JOBS = {
    "int-raw": SimJob("gzip", 1_500, 500, 1,
                      estimator=EstimatorSpec.of("perceptron", threshold=0),
                      policy=GATING_POLICY, collect_outputs=True, backend="fast"),
    "float-raw": SimJob("mcf", 1_500, 500, 1, estimator=EstimatorSpec.of("jrs"),
                        policy=GATING_POLICY, backend="fast"),
}
REASONS = set(ReplayCacheEntryError.REASONS)


@pytest.fixture(scope="module")
def outcomes():
    engine = Engine()
    return {name: engine.replay(job) for name, job in JOBS.items()}


@pytest.fixture(scope="module")
def entry(outcomes):
    job = JOBS["int-raw"]
    return job.fingerprint, encode_entry(job.fingerprint, outcomes["int-raw"])


def same_outcome(a, b):
    return (
        a.events == b.events
        and [type(e.signal.raw) for e in a.events] == [type(e.signal.raw) for e in b.events]
        and a.canonical_metrics() == b.canonical_metrics()
        and a.result.outputs_correct == b.result.outputs_correct
        and a.result.outputs_mispredicted == b.result.outputs_mispredicted
    )


def resign(data: bytes, edit_header=None, body=None) -> bytes:
    """Rebuild an entry with an edited header/body and a valid digest."""
    _, header_len, _, _ = _PREFIX.unpack_from(data)
    start = _PREFIX.size
    header = json.loads(data[start:start + header_len])
    if edit_header is not None:
        edit_header(header)
    header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = data[start + header_len:] if body is None else body
    digest = hashlib.sha256(header + body).digest()
    return _PREFIX.pack(b"REPROEVC", len(header), len(body), digest) + header + body


def reason_of(fingerprint, data) -> str:
    with pytest.raises(ReplayCacheEntryError) as info:
        decode_entry(fingerprint, data)
    assert info.value.reason in REASONS
    return info.value.reason


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(JOBS))
    def test_exact(self, outcomes, name):
        job = JOBS[name]
        back = decode_entry(job.fingerprint, encode_entry(job.fingerprint, outcomes[name]))
        assert back.from_cache
        assert isinstance(back.events, EventColumns)
        assert same_outcome(back, outcomes[name])
        assert back.events.raw.typecode == outcomes[name].events.raw.typecode

    def test_encoding_is_deterministic(self, outcomes, entry):
        fingerprint, data = entry
        assert encode_entry(fingerprint, outcomes["int-raw"]) == data

    def test_list_columns_round_trip(self, outcomes):
        events = outcomes["float-raw"].events
        wide = EventColumns(
            [2**64 + 1] + list(events.pc[1:]), events.taken, events.prediction,
            events.final_prediction, events.level,
            [1, 2.5] + list(events.raw[2:]), events.action, events.uops_before,
        )
        outcome = Engine().replay(JOBS["float-raw"])
        outcome.events = wide
        back = decode_entry("fp", encode_entry("fp", outcome))
        assert [type(r) for r in back.events.raw[:3]] == [int, float, float]
        assert back.events.pc[0] == 2**64 + 1
        assert back.events == wide

    def test_no_pickle_in_the_cache_module(self, outcomes, tmp_path, monkeypatch):
        assert "pickle" not in inspect.getsource(cache_mod)

        def refuse(*args, **kwargs):
            raise AssertionError("the replay cache unpickled something")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        job = JOBS["int-raw"]
        ReplayCache(disk_dir=str(tmp_path)).put(job.fingerprint, outcomes["int-raw"])
        assert same_outcome(
            ReplayCache(disk_dir=str(tmp_path)).get(job.fingerprint), outcomes["int-raw"]
        )


class TestTypedRejection:
    def test_truncated(self, entry):
        fingerprint, data = entry
        for cut in (0, 10, _PREFIX.size, _PREFIX.size + 5, len(data) - 1):
            assert reason_of(fingerprint, data[:cut]) == "truncated"

    def test_digest(self, entry):
        fingerprint, data = entry
        flipped = bytearray(data)
        flipped[-1] ^= 0x40
        assert reason_of(fingerprint, bytes(flipped)) == "digest"
        assert reason_of("0" * 64, data) == "digest"

    def test_foreign_schema_version(self, entry):
        fingerprint, data = entry
        crafted = resign(data, lambda h: h.update(schema=h["schema"] + 1))
        assert reason_of(fingerprint, crafted) == "schema"

    def test_foreign_byte_order(self, entry):
        fingerprint, data = entry
        other = "big" if sys.byteorder == "little" else "little"
        crafted = resign(data, lambda h: h.update(byteorder=other))
        assert reason_of(fingerprint, crafted) == "schema"

    def test_planted_pickle(self, outcomes, entry):
        fingerprint, _ = entry
        outcome = outcomes["int-raw"]
        planted = pickle.dumps((list(outcome.events), outcome.result))
        assert reason_of(fingerprint, planted) == "schema"

    def test_trailing_bytes(self, entry):
        fingerprint, data = entry
        assert reason_of(fingerprint, data + b"\0") == "shape"

    @pytest.mark.parametrize("column", [0, 4, 7])
    def test_column_length_mismatch(self, entry, column):
        fingerprint, data = entry

        def shrink(header):
            header["columns"][column][3] -= header["columns"][column][2]

        _, header_len, _, _ = _PREFIX.unpack_from(data)
        body = data[_PREFIX.size + header_len:]
        # The header now under-counts one column, the body is unchanged.
        assert reason_of(fingerprint, resign(data, shrink, body)) == "shape"

    def test_event_count_mismatch(self, entry):
        fingerprint, data = entry
        crafted = resign(data, lambda h: h.update(events=h["events"] + 1))
        assert reason_of(fingerprint, crafted) == "shape"

    def test_typecode_mismatch(self, entry):
        fingerprint, data = entry

        def retype(header):
            header["columns"][4][1] = "q"  # level must be 'b'

        assert reason_of(fingerprint, resign(data, retype)) == "shape"

    def test_invalid_codes(self, entry):
        fingerprint, data = entry
        _, header_len, body_len, _ = _PREFIX.unpack_from(data)
        header = json.loads(data[_PREFIX.size:_PREFIX.size + header_len])
        offsets = {}
        offset = 0
        for name, _, _, nbytes in header["columns"]:
            offsets[name] = offset
            offset += nbytes
        body = bytearray(data[_PREFIX.size + header_len:])
        body[offsets["action"]] = 3
        assert reason_of(fingerprint, resign(data, body=bytes(body))) == "shape"

    def test_result_shape(self, entry):
        fingerprint, data = entry
        crafted = resign(data, lambda h: h["result"].update(branches="many"))
        assert reason_of(fingerprint, crafted) == "shape"
        crafted = resign(data, lambda h: h["result"].pop("reversals"))
        assert reason_of(fingerprint, crafted) == "shape"


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(0, 10**6))
def test_fuzz_truncation(entry, cut):
    fingerprint, data = entry
    assert reason_of(fingerprint, data[: cut % len(data)]) == "truncated"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_fuzz_byte_flips(entry, flips):
    fingerprint, data = entry
    damaged = bytearray(data)
    for position, mask in flips:
        damaged[position % len(data)] ^= mask
    if bytes(damaged) != data:
        reason_of(fingerprint, bytes(damaged))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(header=st.dictionaries(st.sampled_from(
    ["schema", "fingerprint", "events", "byteorder", "columns", "lists", "result"]),
    st.one_of(st.none(), st.integers(), st.text(max_size=4),
              st.lists(st.integers(), max_size=3)), max_size=7))
def test_fuzz_foreign_headers(entry, header):
    fingerprint, data = entry
    _, header_len, _, _ = _PREFIX.unpack_from(data)
    original = json.loads(data[_PREFIX.size:_PREFIX.size + header_len])
    assume(any(original[key] != value for key, value in header.items()))

    def replace_keys(h):
        h.update(header)

    reason_of(fingerprint, resign(data, replace_keys))


class TestCacheAccounting:
    @pytest.fixture
    def recording(self):
        telemetry.disable()
        telemetry.reset()
        telemetry.enable()
        yield
        telemetry.disable()
        telemetry.reset()

    @pytest.mark.parametrize(
        "damage,reason",
        [
            (lambda d: d[: len(d) // 2], "truncated"),
            (lambda d: d[:-1] + bytes([d[-1] ^ 1]), "digest"),
            (lambda d: pickle.dumps("planted"), "schema"),
            (lambda d: resign(d, lambda h: h.update(events=1)), "shape"),
        ],
    )
    def test_counted_unlinked_and_recomputed(self, tmp_path, caplog, recording,
                                             entry, damage, reason):
        fingerprint, data = entry
        cache = ReplayCache(disk_dir=str(tmp_path))
        path = cache._disk_path(fingerprint)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as fh:
            fh.write(damage(data))
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            assert cache.get(fingerprint) is None
        assert not os.path.exists(path)
        assert cache.stats.corrupt == 1 and cache.stats.misses == 1
        series = telemetry.get_registry().snapshot().counter_series(
            "cache_disk_corrupt_total"
        )
        assert {parse_key(k)[1]["reason"]: v for k, v in series.items()} == {reason: 1}
        assert any("corrupt" in r.message for r in caplog.records)

    def test_entries_use_the_new_suffix(self, tmp_path, outcomes):
        job = JOBS["int-raw"]
        cache = ReplayCache(disk_dir=str(tmp_path))
        cache.put(job.fingerprint, outcomes["int-raw"])
        names = [f for _, _, files in os.walk(tmp_path) for f in files]
        assert names == [job.fingerprint + ".evc"]
        # A legacy pickle next to it is never opened.
        legacy = os.path.join(tmp_path, job.fingerprint[:2], job.fingerprint + ".pkl")
        with open(legacy, "wb") as fh:
            fh.write(b"not read")
        fresh = ReplayCache(disk_dir=str(tmp_path))
        assert fresh.get(job.fingerprint) is not None
        assert fresh.stats.corrupt == 0

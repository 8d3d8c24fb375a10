"""Keyed replay and trace caches with hit/miss accounting.

Two caches back the engine:

- :class:`ReplayCache` -- job fingerprint -> :class:`ReplayOutcome`.
  In-memory entries are LRU-evicted against an *event budget* (the
  post-warm-up event count of each outcome), because the unbounded
  ``lru_cache`` it replaces could grow without limit over a long
  experiment suite.  An optional on-disk layer stores each outcome as
  one file, ``<dir>/<aa>/<fingerprint>.evc`` (two-level fan-out keeps
  directories small), so replays survive across processes and runs.
  An entry is data only: a fixed prefix, a canonical-JSON header and
  the raw bytes of the :class:`~repro.core.events.EventColumns`
  buffers (see :func:`encode_entry`).  Reading one builds arrays and
  plain JSON values, never arbitrary objects, so a shared cache
  directory holds nothing executable.
- :class:`TraceCache` -- (name, n_branches, seed) -> generated trace,
  LRU-evicted against a total-branches budget.

Both expose monotonic counters; :class:`CacheStats` snapshots support
per-experiment deltas in the run summary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import struct
import sys
import tempfile
from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro import telemetry
from repro.core.events import COLUMNS, EventColumns
from repro.core.frontend import FrontEndResult
from repro.core.metrics import ConfidenceMatrix, MetricsCollector
from repro.engine.job import ReplayOutcome

__all__ = [
    "CacheStats",
    "ENTRY_SCHEMA",
    "ReplayCache",
    "ReplayCacheEntryError",
    "TraceCache",
    "decode_entry",
    "encode_entry",
]

logger = logging.getLogger(__name__)

#: Default in-memory replay budget: total cached post-warm-up events.
#: ~50 MB of column buffers at ~25 B/event; at --quick sizing it holds a
#: few hundred outcomes, at full sizing a few dozen -- enough for the
#: cross-experiment baseline/ladder sharing the suite relies on.
DEFAULT_EVENT_BUDGET = 2_000_000

#: Default trace budget in dynamic branches (~25 full-size traces).
DEFAULT_TRACE_BUDGET = 4_000_000

#: Version of the disk entry layout; entries of any other version are
#: rejected (reason ``schema``) and recomputed.
ENTRY_SCHEMA = 1
ENTRY_SUFFIX = ".evc"
_MAGIC = b"REPROEVC"
#: Magic, header length, body length, sha256 over header and body.
_PREFIX = struct.Struct("<8sIQ32s")

#: Encodings each column may have: an array typecode, ``bytes`` (0/1
#: flags) or ``json`` (a list column, kept in the header).
_ENCODINGS = {
    "pc": ("Q", "json"),
    "taken": ("bytes",),
    "prediction": ("bytes",),
    "final_prediction": ("bytes",),
    "level": ("b",),
    "raw": ("q", "d", "json"),
    "action": ("b",),
    "uops_before": ("i", "json"),
}
#: Bytes each code column may hold: flags 0/1, level/action codes 0-2.
_FLAG_CODES, _LEVEL_CODES = b"\x00\x01", b"\x00\x01\x02"
_CODES = {
    "taken": _FLAG_CODES,
    "prediction": _FLAG_CODES,
    "final_prediction": _FLAG_CODES,
    "level": _LEVEL_CODES,
    "action": _LEVEL_CODES,
}
_COUNTS = tuple(
    f.name for f in dataclasses.fields(FrontEndResult)
    if f.name not in ("metrics", "outputs_correct", "outputs_mispredicted")
)
_MATRIX = tuple(f.name for f in dataclasses.fields(ConfidenceMatrix))


class ReplayCacheEntryError(Exception):
    """A disk entry that cannot be used; ``reason`` says why.

    - ``truncated``: the file is shorter than its prefix and header say;
    - ``digest``: the content does not hash to the recorded sha256, or
      the entry belongs to another fingerprint;
    - ``schema``: not an entry of this layout (magic, version, header
      encoding) or written on a machine of the other byte order;
    - ``shape``: column encodings, lengths, codes or the result do not
      fit together.
    """

    REASONS = ("truncated", "digest", "schema", "shape")

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _result_doc(result) -> dict:
    # Replays aggregate overall matrices only (FrontEndResult's default
    # collector); a per-pc collector would be lost, so refuse it.
    if result.metrics.per_pc:
        raise TypeError("per-pc metrics are not persisted")
    doc = {name: getattr(result, name) for name in _COUNTS}
    doc["outputs_correct"] = result.outputs_correct
    doc["outputs_mispredicted"] = result.outputs_mispredicted
    doc["overall"] = [getattr(result.metrics.overall, name) for name in _MATRIX]
    return doc


def _result_from_doc(doc) -> FrontEndResult:
    expected = set(_COUNTS) | {"outputs_correct", "outputs_mispredicted", "overall"}
    if not isinstance(doc, dict) or set(doc) != expected:
        raise ReplayCacheEntryError("shape", "result fields do not match FrontEndResult")
    counts = [doc[name] for name in _COUNTS] + list(doc["overall"])
    if (
        {*map(type, counts)} != {int}
        or len(doc["overall"]) != len(_MATRIX)
        or not isinstance(doc["outputs_correct"], list)
        or not isinstance(doc["outputs_mispredicted"], list)
    ):
        raise ReplayCacheEntryError("shape", "result values have the wrong types")
    metrics = MetricsCollector()
    metrics.overall = ConfidenceMatrix(*doc["overall"])
    return FrontEndResult(
        **{name: doc[name] for name in _COUNTS},
        metrics=metrics,
        outputs_correct=doc["outputs_correct"],
        outputs_mispredicted=doc["outputs_mispredicted"],
    )


def encode_entry(fingerprint: str, outcome: ReplayOutcome) -> bytes:
    """One disk entry for ``outcome``.

    Layout: :data:`_PREFIX` (magic, header and body lengths, sha256 of
    everything after the prefix), then the canonical-JSON header, then
    the body: the raw bytes of every array/bytes column in
    :data:`COLUMNS` order.  The header records the schema version,
    fingerprint, event count, byte order, each column's encoding and
    byte length (list columns carry their values in the header instead)
    and the ``FrontEndResult``.  Raises ``TypeError`` when the events
    are not an :class:`EventColumns`, a list column or result value has
    no JSON form, or the result tracks per-pc metrics.
    """
    events = outcome.events
    if not isinstance(events, EventColumns):
        raise TypeError(f"outcome events are {type(events).__name__}, not EventColumns")
    columns, lists, body = [], {}, []
    for name, column in zip(COLUMNS, events.columns()):
        if isinstance(column, array):
            data = column.tobytes()
            columns.append([name, column.typecode, column.itemsize, len(data)])
            body.append(data)
        elif isinstance(column, bytes):
            columns.append([name, "bytes", 1, len(column)])
            body.append(column)
        else:
            columns.append([name, "json", 0, 0])
            lists[name] = column
    header = _canonical(
        {
            "schema": ENTRY_SCHEMA,
            "fingerprint": fingerprint,
            "events": len(events),
            "byteorder": sys.byteorder,
            "columns": columns,
            "lists": lists,
            "result": _result_doc(outcome.result),
        }
    )
    body = b"".join(body)
    digest = hashlib.sha256(header + body).digest()
    return _PREFIX.pack(_MAGIC, len(header), len(body), digest) + header + body


def decode_entry(fingerprint: str, data: bytes) -> ReplayOutcome:
    """Inverse of :func:`encode_entry`; raises :class:`ReplayCacheEntryError`."""
    if data[:len(_MAGIC)] != _MAGIC[:len(data)]:
        raise ReplayCacheEntryError("schema", f"not a replay cache entry ({data[:8]!r})")
    if len(data) < _PREFIX.size:
        raise ReplayCacheEntryError("truncated", f"{len(data)} bytes, no full prefix")
    _, header_len, body_len, digest = _PREFIX.unpack_from(data)
    view = memoryview(data)[_PREFIX.size:]
    if len(view) < header_len + body_len:
        raise ReplayCacheEntryError(
            "truncated", f"{len(view)} of {header_len + body_len} bytes after the prefix"
        )
    if len(view) > header_len + body_len:
        raise ReplayCacheEntryError("shape", "bytes after the body")
    if hashlib.sha256(view).digest() != digest:
        raise ReplayCacheEntryError("digest", "content does not match its sha256")
    try:
        header = json.loads(bytes(view[:header_len]))
        schema, byteorder = header["schema"], header["byteorder"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ReplayCacheEntryError("schema", f"unreadable header: {exc}") from None
    if schema != ENTRY_SCHEMA:
        raise ReplayCacheEntryError("schema", f"entry schema {schema!r}, expected {ENTRY_SCHEMA}")
    if byteorder != sys.byteorder:
        raise ReplayCacheEntryError("schema", f"{byteorder!r}-endian entry on a {sys.byteorder} machine")
    if header.get("fingerprint") != fingerprint:
        raise ReplayCacheEntryError("digest", "entry belongs to another fingerprint")
    try:
        return ReplayOutcome(
            _columns_from(header, view[header_len:]),
            _result_from_doc(header["result"]),
            from_cache=True,
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise ReplayCacheEntryError("shape", f"{type(exc).__name__}: {exc}") from None


def _columns_from(header: dict, body: memoryview) -> EventColumns:
    n, specs, lists = header["events"], header["columns"], header["lists"]
    if [spec[0] for spec in specs] != list(COLUMNS):
        raise ReplayCacheEntryError("shape", "column names or order differ")
    if not isinstance(lists, dict) or set(lists) != {
        spec[0] for spec in specs if spec[1] == "json"
    }:
        raise ReplayCacheEntryError("shape", "list columns do not match the encodings")
    columns, offset = [], 0
    for name, encoding, itemsize, nbytes in specs:
        if encoding not in _ENCODINGS[name]:
            raise ReplayCacheEntryError("shape", f"{name} has encoding {encoding!r}")
        if encoding == "json":
            column = lists[name]
            if not isinstance(column, list) or not {*map(type, column)} <= {int, float, bool}:
                raise ReplayCacheEntryError("shape", f"{name} is not a list of numbers")
        else:
            chunk = body[offset:offset + nbytes]
            offset += nbytes
            if encoding == "bytes":
                column = bytes(chunk)
            else:
                column = array(encoding)
                if column.itemsize != itemsize:
                    raise ReplayCacheEntryError(
                        "schema", f"{name} items are {itemsize} bytes, here {column.itemsize}"
                    )
                column.frombytes(chunk)
            if len(chunk) != nbytes or nbytes != n * itemsize:
                raise ReplayCacheEntryError("shape", f"{name} holds {len(chunk)} bytes")
            codes = _CODES.get(name)
            if codes is not None and bytes(chunk).translate(None, codes):
                raise ReplayCacheEntryError("shape", f"{name} holds an invalid code")
        if len(column) != n:
            raise ReplayCacheEntryError("shape", f"{name} holds {len(column)} of {n} events")
        columns.append(column)
    if offset != len(body):
        raise ReplayCacheEntryError("shape", f"{len(body) - offset} trailing body bytes")
    return EventColumns(*columns)


@dataclass
class CacheStats:
    """Monotonic cache counters (snapshot-subtractable)."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    corrupt: int = 0  # unreadable disk entries dropped and recomputed

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            self.hits, self.misses, self.disk_hits, self.evictions, self.corrupt
        )

    def since(self, other: "CacheStats") -> "CacheStats":
        """Delta relative to an earlier snapshot."""
        return CacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            disk_hits=self.disk_hits - other.disk_hits,
            evictions=self.evictions - other.evictions,
            corrupt=self.corrupt - other.corrupt,
        )

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def format(self) -> str:
        disk = f" ({self.disk_hits} from disk)" if self.disk_hits else ""
        bad = f", {self.corrupt} corrupt dropped" if self.corrupt else ""
        return f"{self.hits} hits{disk} / {self.misses} misses{bad}"


class _LruBudget:
    """An OrderedDict LRU bounded by a caller-defined cost budget."""

    def __init__(self, budget: int):
        if budget <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        self.budget = budget
        self._entries: "OrderedDict[object, Tuple[object, int]]" = OrderedDict()
        self._spent = 0
        self.evictions = 0

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return entry[0]

    def put(self, key, value, cost: int) -> None:
        if key in self._entries:
            self._spent -= self._entries.pop(key)[1]
        # Oversized single entries are still admitted (evicting all
        # others): refusing them would make the hot job permanently
        # uncacheable, the worst possible behaviour.
        self._entries[key] = (value, cost)
        self._spent += cost
        while self._spent > self.budget and len(self._entries) > 1:
            _, (_, evicted_cost) = self._entries.popitem(last=False)
            self._spent -= evicted_cost
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._spent = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def spent(self) -> int:
        return self._spent


class ReplayCache:
    """Fingerprint-keyed outcome cache: memory LRU plus optional disk."""

    def __init__(
        self,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        disk_dir: Optional[str] = None,
    ):
        self._lru = _LruBudget(event_budget)
        self.disk_dir = disk_dir
        self.stats = CacheStats()

    def _disk_path(self, fingerprint: str) -> str:
        return os.path.join(
            self.disk_dir, fingerprint[:2], fingerprint + ENTRY_SUFFIX
        )

    def get(self, fingerprint: str) -> Optional[ReplayOutcome]:
        tel = telemetry.get_registry()
        outcome = self._lru.get(fingerprint)
        if outcome is not None:
            self.stats.hits += 1
            if tel.enabled:
                tel.counter("cache_replay_hits_total", tier="memory").inc()
            return ReplayOutcome(outcome.events, outcome.result, from_cache=True)
        if self.disk_dir is not None:
            outcome = self._load(fingerprint, tel)
            if outcome is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                if tel.enabled:
                    tel.counter("cache_replay_hits_total", tier="disk").inc()
                self._lru.put(fingerprint, outcome, cost=max(1, len(outcome.events)))
                self._note_evictions(tel)
                return outcome
        self.stats.misses += 1
        if tel.enabled:
            tel.counter("cache_replay_misses_total").inc()
        return None

    def _load(self, fingerprint: str, tel) -> Optional[ReplayOutcome]:
        """The disk entry's outcome; ``None`` when absent or unusable."""
        path = self._disk_path(fingerprint)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None  # no entry on disk: an ordinary miss
        try:
            return decode_entry(fingerprint, data)
        except ReplayCacheEntryError as exc:
            # The entry is unusable.  Drop it (so put() can rewrite a
            # good one), record the corruption by reason, and fall
            # through to a recompute.  log_event keeps the stdlib
            # warning on this module's logger and mirrors a structured
            # copy into the trace stream, so corruption is countable
            # rather than grep-able only.
            self.stats.corrupt += 1
            if tel.enabled:
                tel.counter("cache_disk_corrupt_total", reason=exc.reason).inc()
            telemetry.log_event(
                "cache.corrupt_entry",
                level=logging.WARNING,
                message="replay cache: dropping corrupt entry; recomputing",
                logger=logger,
                path=path,
                reason=exc.reason,
                error=str(exc),
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _note_evictions(self, tel) -> None:
        """Sync the evictions counter with the LRU's running total."""
        new = self._lru.evictions - self.stats.evictions
        self.stats.evictions = self._lru.evictions
        if new and tel.enabled:
            tel.counter("cache_replay_evictions_total").inc(new)

    def put(self, fingerprint: str, outcome: ReplayOutcome) -> None:
        self._lru.put(fingerprint, outcome, cost=max(1, len(outcome.events)))
        self._note_evictions(telemetry.get_registry())
        if self.disk_dir is not None:
            path = self._disk_path(fingerprint)
            if not os.path.exists(path):
                data = encode_entry(fingerprint, outcome)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                # Atomic publish: concurrent writers of the same
                # fingerprint produce identical bytes, last rename wins.
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(path), suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(data)
                    os.replace(tmp, path)
                except BaseException:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
                    raise

    def clear(self) -> None:
        """Drop in-memory entries (the disk layer is left alone)."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def cached_events(self) -> int:
        """Total events currently held in memory."""
        return self._lru.spent


class TraceCache:
    """(name, n_branches, seed) -> trace, LRU by total branches.

    Besides generator benchmark names, the cache resolves ``segtrace:``
    tokens (``segtrace:<digest16>:<path>``, from
    :meth:`~repro.trace.segments.SegmentedTrace.job_token`): the
    directory is opened lazily, its content digest checked against the
    token, and a length-limited view returned -- recorded on-disk
    traces flow through the engine without materializing any records
    up front, so they cost the LRU almost nothing.
    """

    def __init__(self, branch_budget: int = DEFAULT_TRACE_BUDGET):
        self._lru = _LruBudget(branch_budget)
        self.stats = CacheStats()

    @staticmethod
    def _open_segmented(token: str, n_branches: int):
        from repro.trace.segments import SegmentedTrace

        _, digest, path = token.split(":", 2)
        trace = SegmentedTrace(path)
        if digest and not trace.content_digest.startswith(digest):
            raise ValueError(
                f"{path}: recorded trace content does not match the job's "
                f"token (expected digest {digest}..., found "
                f"{trace.content_digest[:len(digest)]}...)"
            )
        if n_branches > len(trace):
            raise ValueError(
                f"{path}: job wants {n_branches} branches, recorded trace "
                f"holds {len(trace)}"
            )
        if n_branches == len(trace):
            return trace
        return trace.prefix(n_branches)

    def get(self, name: str, n_branches: int, seed: int):
        tel = telemetry.get_registry()
        key = (name, n_branches, seed)
        trace = self._lru.get(key)
        if trace is not None:
            self.stats.hits += 1
            if tel.enabled:
                tel.counter("cache_trace_hits_total").inc()
            return trace

        self.stats.misses += 1
        if tel.enabled:
            tel.counter("cache_trace_misses_total").inc()
        if name.startswith("segtrace:"):
            # Lazy reader: holds index metadata only, records load per
            # access, so it costs the branch budget next to nothing.
            trace = self._open_segmented(name, n_branches)
            self._lru.put(key, trace, cost=1)
        else:
            from repro.trace.benchmarks import generate_benchmark_trace

            trace = generate_benchmark_trace(
                name, n_branches=n_branches, seed=seed
            )
            self._lru.put(key, trace, cost=max(1, n_branches))
        self.stats.evictions = self._lru.evictions
        return trace

    def clear(self) -> None:
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)

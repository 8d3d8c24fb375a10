"""Process-wide metrics registry: counters, gauges, histograms.

The registry is a single module-level object that is **disabled by
default** and designed to cost one attribute check per instrumented
call site while disabled::

    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("cache_replay_hits_total").inc()

Instruments are keyed by ``(name, sorted labels)`` and rendered as
``name{label=value,...}`` strings in snapshots and exports, so the
on-disk metrics document is stable and diffable.

Aggregation across process-pool workers works by value, not
by sharing: each worker enables its own registry, :meth:`drain` returns
a picklable :class:`MetricsSnapshot` (and resets the worker registry),
and the parent folds it in with :meth:`merge`.  All merges are plain
additions, so parent totals are independent of how jobs were scheduled
across workers.

Telemetry is strictly observational: nothing in the simulation ever
reads an instrument back, so enabling or disabling the registry cannot
change job fingerprints, canonical metrics or golden digests (proved by
``tests/test_telemetry.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SECONDS_BUCKETS",
    "COUNT_BUCKETS",
    "instrument_key",
    "parse_key",
    "histogram_quantile",
    "get_registry",
    "enable",
    "disable",
    "reset",
]

#: Default histogram buckets for durations, in seconds.
SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Default histogram buckets for event/uop/branch counts.
COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


def instrument_key(name: str, labels: Dict[str, object]) -> str:
    """Stable string key: ``name`` or ``name{k=v,...}`` (keys sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`instrument_key` (labels come back as strings)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = {}
    for pair in rest.rstrip("}").split(","):
        if pair:
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins on merge)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: cumulative-free counts plus sum/count/max.

    ``buckets`` are inclusive upper bounds; one extra overflow bucket
    catches everything above the last bound.  Buckets are fixed at
    creation so snapshots from different processes merge bucket-wise.
    The running ``max`` makes overflow-bucket quantiles exact at q=1
    and bounds the p95 estimate (see :func:`histogram_quantile`).
    """

    __slots__ = ("buckets", "counts", "sum", "count", "max")

    def __init__(self, buckets: Sequence[float]):
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"buckets must be strictly increasing: {buckets}")
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0
        self.max = 0.0

    def observe(self, value: float) -> None:
        i = 0
        for bound in self.buckets:
            if value <= bound:
                break
            i += 1
        self.counts[i] += 1
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value


def histogram_quantile(hist: dict, q: float) -> float:
    """Estimate quantile ``q`` from a snapshot histogram dict.

    Walks the cumulative bucket counts and linearly interpolates within
    the bucket containing the target rank (lower bound 0 for the first
    bucket).  The overflow bucket has no upper bound, so anything
    landing there reports the recorded ``max``.  With zero
    observations, returns 0.0.
    """
    count = hist.get("count", 0)
    if not count:
        return 0.0
    buckets = hist["buckets"]
    counts = hist["counts"]
    top = hist.get("max", 0.0)
    rank = q * count
    cumulative = 0
    for i, n in enumerate(counts):
        prev = cumulative
        cumulative += n
        if cumulative >= rank:
            if i >= len(buckets):  # overflow bucket
                return top
            lo = buckets[i - 1] if i else 0.0
            hi = min(buckets[i], top) if top else buckets[i]
            if hi < lo:
                hi = buckets[i]
            if not n:
                return hi
            return lo + (hi - lo) * ((rank - prev) / n)
    return top


class _NoopInstrument:
    """Shared do-nothing stand-in returned while the registry is off."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NOOP = _NoopInstrument()


class MetricsSnapshot:
    """A picklable, mergeable value-copy of a registry's instruments."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(
        self,
        counters: Optional[Dict[str, int]] = None,
        gauges: Optional[Dict[str, float]] = None,
        histograms: Optional[Dict[str, dict]] = None,
    ):
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.histograms = dict(histograms or {})

    def counter(self, name: str, **labels) -> int:
        """Read one counter's value (0 when absent)."""
        return self.counters.get(instrument_key(name, labels), 0)

    def counter_series(self, name: str) -> Dict[str, int]:
        """All ``label-key -> value`` entries for one counter name."""
        series = {}
        for key, value in self.counters.items():
            base, _ = parse_key(key)
            if base == name:
                series[key] = value
        return series

    def since(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Delta relative to an earlier snapshot (gauges keep ours)."""
        counters = {
            key: value - other.counters.get(key, 0)
            for key, value in self.counters.items()
            if value - other.counters.get(key, 0)
        }
        histograms = {}
        for key, hist in self.histograms.items():
            prior = other.histograms.get(key)
            if prior is None:
                histograms[key] = dict(hist)
                continue
            delta_count = hist["count"] - prior["count"]
            if delta_count:
                histograms[key] = {
                    "buckets": list(hist["buckets"]),
                    "counts": [
                        a - b for a, b in zip(hist["counts"], prior["counts"])
                    ],
                    "sum": hist["sum"] - prior["sum"],
                    "count": delta_count,
                    # max is not subtractable; keep the current high-water
                    "max": hist.get("max", 0.0),
                }
        return MetricsSnapshot(counters, dict(self.gauges), histograms)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)


class MetricsRegistry:
    """The mutable registry behind :func:`get_registry`.

    One instance lives for the process lifetime; :func:`enable` /
    :func:`disable` flip :attr:`enabled` in place so call sites that
    grabbed the registry object once keep seeing the current state.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return _NOOP
        key = instrument_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return _NOOP
        key = instrument_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = SECONDS_BUCKETS,
        **labels,
    ) -> Histogram:
        if not self.enabled:
            return _NOOP
        key = instrument_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Value-copy of every instrument (picklable, JSON-safe)."""
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={k: g.value for k, g in self._gauges.items()},
            histograms={
                k: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "max": h.max,
                }
                for k, h in self._histograms.items()
            },
        )

    def drain(self) -> MetricsSnapshot:
        """Snapshot then reset -- the per-job worker handoff primitive."""
        snap = self.snapshot()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        return snap

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (worker) snapshot into this registry by addition."""
        was_enabled = self.enabled
        self.enabled = True  # merging implies collection is wanted
        try:
            for key, value in snapshot.counters.items():
                name, labels = parse_key(key)
                self.counter(name, **labels).inc(value)
            for key, value in snapshot.gauges.items():
                name, labels = parse_key(key)
                self.gauge(name, **labels).set(value)
            for key, hist in snapshot.histograms.items():
                name, labels = parse_key(key)
                mine = self.histogram(
                    name, buckets=hist["buckets"], **labels
                )
                if list(mine.buckets) == list(hist["buckets"]):
                    for i, n in enumerate(hist["counts"]):
                        mine.counts[i] += n
                    mine.sum += hist["sum"]
                    mine.count += hist["count"]
                else:  # bucket skew (mixed versions): keep sum/count
                    mine.sum += hist["sum"]
                    mine.count += hist["count"]
                    mine.counts[-1] += hist["count"]
                theirs = hist.get("max", 0.0)
                if theirs > mine.max:
                    mine.max = theirs
        finally:
            self.enabled = was_enabled

    def reset(self) -> None:
        """Drop every instrument (state, not the enabled flag)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry.  Object identity is stable for the whole
#: process; only its ``enabled`` flag and contents change.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (disabled unless :func:`enable` ran)."""
    return _REGISTRY


def enable() -> MetricsRegistry:
    """Turn metric collection on; returns the registry."""
    _REGISTRY.enabled = True
    return _REGISTRY


def disable() -> None:
    """Turn metric collection off (existing instruments are kept)."""
    _REGISTRY.enabled = False


def reset() -> None:
    """Clear all collected instruments (the enabled flag is kept)."""
    _REGISTRY.reset()

"""Per-layer attribution for the traced benchmark run.

:class:`LayerTracer` wraps the public entry points of each layer in a
``repro.telemetry.trace_span`` named ``bench.<layer>`` and counts the
work that passes through them.  Nothing under ``src/`` changes: the
wrappers are installed for one traced phase and removed after it.  The
spans go to the telemetry capture buffer, so they stay in memory until
the phase ends and are then written as a JSON-lines trace that
``python -m repro.telemetry timeline`` exports to Perfetto.

A layer's self time is its span durations minus the durations of the
nearest ``bench.*`` spans nested under it.  Spans the program emits
itself (``engine.run``, ``experiment``, ``sweep``...) are transparent:
their time belongs to the nearest enclosing ``bench.*`` span.  Whatever
no ``bench.*`` span covers is reported as ``unattributed_s``.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from typing import Dict, List, Optional

from repro import telemetry

PREFIX = "bench."

#: Self-time metric -> the spans whose self time it sums.
SELF_TIME_METRICS = {
    "pipeline.self_s": ("pipeline",),
    "replay.self_s": ("replay",),
    "cache.get.self_s": ("cache.get",),
    "cache.put.self_s": ("cache.put",),
    "trace.self_s": ("trace",),
    "engine.run.self_s": ("engine.run",),
    "results.put.self_s": ("results.put",),
    "sweeps.plan_s": ("sweeps.plan",),
    "experiments.self_s": ("experiments",),
    "analysis.render_s": ("analysis.format", "analysis.render"),
}


class LayerTracer:
    """Installs the layer wrappers and turns a phase into layer metrics."""

    def __init__(self):
        self.counts: Counter = Counter()
        self._patches: list = []
        self._events_owner: Dict[int, str] = {}  # id(events) -> fingerprint
        self._sim_inputs: set = set()
        self._submitted: set = set()
        self._formats: set = set()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, owner, attr: str, span: Optional[str], after=None) -> None:
        """Replace ``owner.attr`` by a spanned/counted call of the original.

        ``after(args, result)`` sees every completed call.  Static and
        class methods keep their descriptor kind.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                with telemetry.trace_span(PREFIX + span):
                    result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        from repro import sweeps
        from repro.analysis import report as report_mod
        from repro.engine import engine as engine_mod
        from repro.engine.cache import ReplayCache, TraceCache
        from repro.experiments import runner
        from repro.pipeline.simulator import PipelineSimulator
        from repro.results.store import ResultStore
        from repro.sweeps.dag import SweepDag

        counts = self.counts

        def tally(name):
            def after(args, result):
                counts[name] += 1

            return after

        def engine_run(args, outcomes):
            jobs = args[1]
            counts["engine.jobs_submitted"] += len(jobs)
            for job, outcome in zip(jobs, outcomes):
                self._submitted.add(job.fingerprint)
                self._events_owner[id(outcome.events)] = job.fingerprint

        def replay(args, outcome):
            counts["replay.calls"] += 1
            counts["replay.branches"] += args[0].n_branches
            counts["replay.events_out"] += len(outcome.events)
            counts["replay.fast"] += outcome.backend == "fast"

        def simulate(args, stats):
            events, config = args
            counts["pipeline.events"] += len(events)
            owner = self._events_owner.get(id(events), f"anon-{id(events)}")
            self._sim_inputs.add((owner, repr(config)))

        self._wrap(TraceCache, "get", "trace", tally("trace.calls"))
        self._wrap(engine_mod.Engine, "run", "engine.run", engine_run)
        self._wrap(engine_mod, "_replay_trace", "replay", replay)
        self._wrap(ReplayCache, "get", "cache.get", tally("cache.get.calls"))
        self._wrap(ReplayCache, "put", "cache.put", tally("cache.put.calls"))
        # Engine.simulate only keys the input; the timed span is the
        # simulator's own entry point underneath it.
        self._wrap(engine_mod.Engine, "simulate", None, simulate)
        self._wrap(PipelineSimulator, "simulate", "pipeline", tally("pipeline.calls"))
        for attr in ("put_job", "put_experiment"):
            self._wrap(ResultStore, attr, "results.put", tally("results.put.calls"))
        self._wrap(SweepDag, "from_spec", "sweeps.plan")
        self._wrap(sweeps, "render_from_store", "analysis.render")
        self._wrap(report_mod, "render_report", "analysis.render")
        for name in list(runner.EXPERIMENTS):
            self._wrap_experiment(runner.EXPERIMENTS, name)

    def _wrap_experiment(self, table: dict, name: str) -> None:
        original = table[name]

        @functools.wraps(original)
        def run(settings, *args, **kwargs):
            with telemetry.trace_span(PREFIX + "experiments", experiment=name):
                result = original(settings, *args, **kwargs)
            # Result types are only known once an experiment returns;
            # their format() is the rendering step of the analysis layer.
            cls = type(result)
            if cls not in self._formats and "format" in vars(cls):
                self._formats.add(cls)
                self._wrap(cls, "format", "analysis.format")
            return result

        table[name] = run
        self._patches.append((table, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._formats.clear()

    # -- metrics ----------------------------------------------------------

    def metrics(self, spans: List[dict], wall_s: float, engine) -> Dict[str, float]:
        """Every per-layer metric of one traced phase, except the overhead."""
        counts = self.counts
        selfs = self_times(spans)
        out: Dict[str, float] = {
            metric: sum(selfs.get(name, 0.0) for name in names)
            for metric, names in SELF_TIME_METRICS.items()
        }
        calls = counts["pipeline.calls"]
        replays = counts["replay.calls"]
        replay_stats = engine.stats.replay
        out.update(
            {
                "pipeline.calls": calls,
                "pipeline.events": counts["pipeline.events"],
                "pipeline.unique_ratio": len(self._sim_inputs) / calls if calls else 0.0,
                "replay.calls": replays,
                "replay.branches": counts["replay.branches"],
                "replay.events_out": counts["replay.events_out"],
                "replay.fast_ratio": counts["replay.fast"] / replays if replays else 0.0,
                "cache.get.calls": counts["cache.get.calls"],
                "cache.hits_memory": replay_stats.hits - replay_stats.disk_hits,
                "cache.hits_disk": replay_stats.disk_hits,
                "cache.misses": replay_stats.misses,
                "cache.evictions": replay_stats.evictions,
                "cache.put.calls": counts["cache.put.calls"],
                "cache.disk_bytes": disk_bytes(engine.cache_dir),
                "trace.calls": counts["trace.calls"],
                "trace.generated": engine.stats.traces.misses,
                "engine.jobs_submitted": counts["engine.jobs_submitted"],
                "engine.jobs_unique": len(self._submitted),
                "engine.jobs_executed": engine.stats.executed,
                "results.put.calls": counts["results.put.calls"],
                "unattributed_s": wall_s - sum(selfs.values()),
            }
        )
        return out


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Summed self time per ``bench.*`` span name (prefix stripped)."""
    by_id = {e["span_id"]: e for e in spans if e.get("event") == "span"}

    def bench_parent(event) -> Optional[int]:
        parent = by_id.get(event["parent_id"])
        while parent is not None and not parent["name"].startswith(PREFIX):
            parent = by_id.get(parent["parent_id"])
        return parent["span_id"] if parent is not None else None

    bench = [e for e in by_id.values() if e["name"].startswith(PREFIX)]
    covered: Counter = Counter()
    for event in bench:
        parent = bench_parent(event)
        if parent is not None:
            covered[parent] += event["duration_s"]
    totals: Dict[str, float] = {}
    for event in bench:
        name = event["name"][len(PREFIX):]
        own = event["duration_s"] - covered[event["span_id"]]
        totals[name] = totals.get(name, 0.0) + own
    return totals


def disk_bytes(path: Optional[str]) -> int:
    """Total size of the regular files under ``path`` (0 without one)."""
    if path is None:
        return 0
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def write_trace(spans: List[dict], path: str) -> None:
    """Write captured spans through the program's own trace writer.

    The spans were captured in memory so that no file I/O falls inside
    the timed phase; they are written only after it ends.
    """
    os.makedirs(os.path.dirname(path), exist_ok=True)
    telemetry.set_trace_path(path)
    try:
        telemetry.replay_captured(spans)
    finally:
        telemetry.close_trace()

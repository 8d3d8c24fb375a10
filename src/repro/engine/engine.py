"""Execution engine: cached, optionally parallel simulation runs.

:class:`Engine` is the single choke point for all front-end replay
work.  ``Engine.run(jobs)`` deduplicates the job list by fingerprint,
serves repeats from the replay cache (memory, then disk), and runs the
remainder through :func:`repro.engine.executor.execute` -- inline, or
fanned out over a per-call process pool -- returning outcomes in the
order the jobs were given.  Replay is fully deterministic in the job
description, so serial, parallel and cached runs of the same job
produce bit-identical events and results; the worker count is purely
a throughput knob.

A module-level default engine serves the experiment suite; configure it
once from the CLI (``--jobs``, ``--cache-dir``) via
:func:`configure_engine`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.engine.cache import (
    DEFAULT_EVENT_BUDGET,
    DEFAULT_TRACE_BUDGET,
    CacheStats,
    ReplayCache,
    TraceCache,
)
from repro.engine.executor import execute
from repro.engine.job import ReplayOutcome, SimJob

__all__ = [
    "Engine",
    "EngineStats",
    "execute_job",
    "get_engine",
    "configure_engine",
]


def _replay_trace(job: SimJob, trace) -> ReplayOutcome:
    """Replay a prepared trace (optionally under the cProfile hotspot
    accumulator -- ``--profile`` wraps every executed job here)."""
    from repro.telemetry import profile

    if profile.profiling_enabled():
        with profile.profile_block():
            return _replay_trace_impl(job, trace)
    return _replay_trace_impl(job, trace)


def _replay_trace_impl(job: SimJob, trace) -> ReplayOutcome:
    """Replay a prepared trace through fresh spec-built components.

    Pure in the job description: no shared mutable state is read, which
    is what lets serial, parallel and cached execution agree bit for
    bit.  Jobs requesting ``backend="fast"`` run the vectorized
    :mod:`repro.fastpath` driver when the configuration is inside its
    proven support matrix; anything else (including a missing numpy)
    falls back to the reference loop below, which is the semantic
    definition both backends must match.
    """
    from repro.core.events import EventColumns
    from repro.core.frontend import FrontEnd, FrontEndResult

    tel = telemetry.get_registry()
    started = time.monotonic() if tel.enabled else 0.0

    if job.backend == "fast":
        from repro import fastpath

        if fastpath.supports(job):
            try:
                events, result = fastpath.replay(job, trace)
            except fastpath.FastPathUnsupported:
                # runtime rejection (e.g. oversized pcs): fall back
                if tel.enabled:
                    tel.counter(
                        "fastpath_fallbacks_total", reason="runtime"
                    ).inc()
            else:
                if tel.enabled:
                    tel.counter("engine_replays_total", backend="fast").inc()
                    tel.histogram(
                        "engine_replay_seconds", backend="fast"
                    ).observe(time.monotonic() - started)
                return ReplayOutcome(events=events, result=result, backend="fast")
        elif tel.enabled:
            tel.counter(
                "fastpath_fallbacks_total",
                reason=fastpath.unsupported_reason(job) or "unknown",
            ).inc()

    frontend = FrontEnd(
        job.predictor.build(),
        job.estimator.build(),
        job.policy.build(),
        collect_outputs=job.collect_outputs,
    )
    result = FrontEndResult()
    events = []
    for i, record in enumerate(trace):
        event = frontend.process(record)
        if i < job.warmup:
            continue
        frontend.aggregate(result, event)
        events.append(event)
    events = EventColumns.from_events(events)
    if tel.enabled:
        tel.counter("engine_replays_total", backend="reference").inc()
        tel.histogram("engine_replay_seconds", backend="reference").observe(
            time.monotonic() - started
        )
    return ReplayOutcome(events=events, result=result)


def execute_job(job: SimJob) -> ReplayOutcome:
    """Run one job start to finish (also the worker-process entry).

    Worker processes lazily create their own default engine, so traces
    are generated once per (worker, trace key) and reused across the
    jobs that land on that worker.
    """
    return _replay_trace(job, get_engine().trace(*job.trace_key))


def _traced_execute_job(job: SimJob) -> ReplayOutcome:
    """Worker-side task: one job under its ``worker.replay`` span.

    The executor owns the telemetry bootstrap and shipment
    (:mod:`repro.telemetry.workers`); this wrapper only contributes the
    span that names the work, so pool timelines show one
    ``worker.replay`` lane entry per executed job.
    """
    with telemetry.trace_span(
        "worker.replay",
        benchmark=job.benchmark,
        n_branches=job.n_branches,
        fingerprint=job.fingerprint[:12],
    ) as span:
        outcome = execute_job(job)
        span.note(backend=outcome.backend)
    return outcome


def _check_workers(max_workers: int) -> None:
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")


def _check_budget(event_budget: int) -> None:
    if event_budget < 1:
        raise ValueError(f"event_budget must be >= 1, got {event_budget}")


class EngineStats:
    """Replay + trace cache counters plus execution tallies."""

    def __init__(
        self,
        replay: CacheStats,
        traces: CacheStats,
        executed: int = 0,
        parallel_executed: int = 0,
    ):
        self.replay = replay
        self.traces = traces
        self.executed = executed
        self.parallel_executed = parallel_executed

    def snapshot(self) -> "EngineStats":
        return EngineStats(
            self.replay.snapshot(),
            self.traces.snapshot(),
            self.executed,
            self.parallel_executed,
        )

    def since(self, other: "EngineStats") -> "EngineStats":
        return EngineStats(
            self.replay.since(other.replay),
            self.traces.since(other.traces),
            self.executed - other.executed,
            self.parallel_executed - other.parallel_executed,
        )

    def format(self) -> str:
        return (
            f"replays: {self.replay.format()}; "
            f"traces: {self.traces.format()}"
        )


class Engine:
    """Runs :class:`SimJob` s through the replay cache, inline or pooled.

    Args:
        max_workers: Default process fan-out for :meth:`run`.  1 means
            in-process execution (still cached and deduplicated).
        event_budget: In-memory replay cache size, in cached events.
        cache_dir: Enables the on-disk replay cache at this directory.
        trace_budget: Trace cache size, in total dynamic branches.
    """

    def __init__(
        self,
        max_workers: int = 1,
        event_budget: int = DEFAULT_EVENT_BUDGET,
        cache_dir: Optional[str] = None,
        trace_budget: int = DEFAULT_TRACE_BUDGET,
    ):
        _check_workers(max_workers)
        _check_budget(event_budget)
        self.max_workers = max_workers
        #: Optional ``callable(job, outcome)`` invoked once per
        #: *executed* job (never for cache hits), as each outcome
        #: lands -- not after the whole batch.  The sweep layer points
        #: this at a :class:`~repro.results.store.ResultStore` so a
        #: crashed run keeps every completed job.  Sink errors
        #: propagate: a sweep must not report success while silently
        #: dropping results.
        self.result_sink = None
        self._replays = ReplayCache(event_budget, disk_dir=cache_dir)
        self._traces = TraceCache(trace_budget)
        self._executed = 0
        self._parallel_executed = 0

    # -- caching ----------------------------------------------------------

    @property
    def cache_dir(self) -> Optional[str]:
        return self._replays.disk_dir

    @property
    def stats(self) -> EngineStats:
        return EngineStats(
            self._replays.stats,
            self._traces.stats,
            self._executed,
            self._parallel_executed,
        )

    def clear_cache(self) -> None:
        """Drop all in-memory cached replays and traces."""
        self._replays.clear()
        self._traces.clear()

    def trace(self, name: str, n_branches: int, seed: int):
        """Generate (or reuse) one benchmark trace."""
        return self._traces.get(name, n_branches, seed)

    # -- execution --------------------------------------------------------

    def replay(self, job: SimJob) -> ReplayOutcome:
        """Run (or fetch) a single job."""
        return self.run([job])[0]

    def run(
        self,
        jobs: Sequence[SimJob],
        max_workers: Optional[int] = None,
    ) -> List[ReplayOutcome]:
        """Execute a batch of jobs; outcomes align with ``jobs`` order.

        Duplicate jobs (same fingerprint) are executed once.  Cache
        lookups happen first; only genuinely new work is executed.
        With ``max_workers > 1`` and more than one new job, execution
        fans out across processes -- results are collected in
        submission order, so parallelism never perturbs output order.
        """
        workers = self.max_workers if max_workers is None else max_workers
        _check_workers(workers)

        tel = telemetry.get_registry()
        with telemetry.trace_span("engine.run", jobs=len(jobs)):
            fingerprints = [job.fingerprint for job in jobs]
            resolved: Dict[str, ReplayOutcome] = {}
            pending: List[SimJob] = []
            for job, fp in zip(jobs, fingerprints):
                if fp in resolved:
                    continue
                cached = self._replays.get(fp)
                if cached is not None:
                    resolved[fp] = cached
                else:
                    resolved[fp] = None  # placeholder keeps dedup order
                    pending.append(job)
            if tel.enabled:
                tel.counter("engine_jobs_submitted_total").inc(len(jobs))
                tel.counter("engine_jobs_deduplicated_total").inc(
                    len(jobs) - len(resolved)
                )

            if pending:
                processes = min(workers, len(pending))
                # Outcomes land one at a time, in submission order --
                # the executor owns worker bootstrap and telemetry
                # shipment, _finish owns caching and the result sink.
                for job, outcome in execute(pending, self, processes):
                    self._finish(job, outcome, resolved)
                if processes > 1:
                    self._parallel_executed += len(pending)
                    if tel.enabled:
                        tel.counter("engine_jobs_parallel_total").inc(
                            len(pending)
                        )

            return [resolved[fp] for fp in fingerprints]

    def _finish(self, job: SimJob, outcome: ReplayOutcome, resolved) -> None:
        """Land one executed outcome: cache, tally, and sink it.

        Called per outcome *as it completes* (not after the batch), so
        an interrupted run keeps everything finished so far -- the
        crash-resume contract of the sweep layer.
        """
        fp = job.fingerprint
        resolved[fp] = outcome
        self._replays.put(fp, outcome)
        self._executed += 1
        if self.result_sink is not None:
            self.result_sink(job, outcome)

    @staticmethod
    def simulate(events, config):
        """Run the pipeline timing model over a prepared event stream.

        ``events`` is an outcome's :class:`~repro.core.events.EventColumns`
        (pass ``outcome.events`` as it is: the kernel reads its buffers in
        place) or any sequence of ``FrontEndEvent``, converted to columns
        once on the way into the kernel.  Spanned as ``pipeline.simulate``,
        noting the event count and the loop that ran it (``path``:
        ``kernel`` or ``python``).
        """
        from repro.pipeline.simulator import PipelineSimulator

        simulator = PipelineSimulator(config)
        with telemetry.trace_span("pipeline.simulate") as span:
            stats = simulator.simulate(events)
            span.note(events=stats.branches, path=simulator.path)
        return stats


#: The process-wide default engine (lazily created).
_default_engine: Optional[Engine] = None


def get_engine() -> Engine:
    """The default engine, creating it on first use."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def configure_engine(
    max_workers: Optional[int] = None,
    cache_dir: Optional[str] = None,
    event_budget: Optional[int] = None,
    reset: bool = False,
) -> Engine:
    """Create or reconfigure the default engine.

    Passing ``reset=True`` replaces the engine outright (dropping its
    in-memory caches); otherwise existing caches are preserved and only
    the requested knobs change.  ``None`` leaves a knob at its current
    (or default) value; anything else is validated exactly as
    :class:`Engine` validates it, before any knob changes.
    """
    global _default_engine
    if reset or _default_engine is None:
        _default_engine = Engine(
            max_workers=1 if max_workers is None else max_workers,
            event_budget=(
                DEFAULT_EVENT_BUDGET if event_budget is None else event_budget
            ),
            cache_dir=cache_dir,
        )
        return _default_engine
    if max_workers is not None:
        _check_workers(max_workers)
    if event_budget is not None:
        _check_budget(event_budget)
    engine = _default_engine
    if max_workers is not None:
        engine.max_workers = max_workers
    if cache_dir is not None:
        engine._replays.disk_dir = cache_dir
    if event_budget is not None:
        engine._replays._lru.budget = event_budget
    return engine

"""Branch-granularity pipeline timing model.

The simulator replays :class:`repro.core.frontend.FrontEndEvent`
streams through a parametric out-of-order machine and accounts the two
quantities every experiment in the paper reports: **uops executed**
(correct-path plus wrong-path) and **cycles** (the retire-stream
completion time).

Two clocks drive the model:

- the **fetch clock** advances at ``fetch_width`` uops/cycle, pauses
  for pipeline-gating stalls (Figure 1) and for instruction-window
  (ROB) back-pressure, and jumps forward on misprediction recovery;
- the **retire clock** advances at the back-end's sustained rate
  (``1 / base_uop_cycles``) but can never run ahead of
  ``fetch time + depth`` for the uops being retired.

This split captures the effect the paper's conclusions rest on: the
front end normally runs far ahead of the back end, so a fetch stall on
a *correctly predicted* low-confidence branch is mostly absorbed by the
buffered backlog (small P), while the stall still keeps wrong-path uops
out of the machine when the branch was *mispredicted* (large U).
Performance loss emerges only when stalls starve the back end -- e.g.
right after a misprediction flush, when the window is empty.

Mechanisms modelled explicitly:

- **wrong-path fetch**: a branch mispredicted (after any reversal) at
  fetch time ``t`` resolves around ``t + depth``; wrong-path uops are
  fetched at full width until resolution, bounded by free window
  capacity and cut short by gating;
- **pipeline gating**: branches the policy marks ``GATE`` raise the
  low-confidence counter once their estimate is available
  (``estimator_latency`` after fetch) and lower it at resolution;
  fetch stalls while the counter is at or above the threshold;
- **branch reversal**: a correcting reversal eliminates the whole
  misprediction episode; a breaking reversal creates one;
- **misprediction recovery**: fetch restarts at resolution and the
  retire stream pays the refill (``depth``) on the next correct-path
  uops -- the squashed window cannot hide it.

Determinism: resolution jitter is a hash of (pc, sequence number), so a
given (trace, config, policy) triple always produces identical
statistics.

The methods below are the model's definition.  ``simulate`` runs them
as a line-for-line C port (``timing_kernel.c``, loaded by
:mod:`repro.pipeline.kernel`) with bit-identical results, and runs them
in Python whenever the kernel cannot run.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.bits import mix_hash
from repro.core.frontend import FrontEndEvent
from repro.core.reversal import BranchAction
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stats import SimStats

__all__ = ["PipelineSimulator"]

_INFINITY = float("inf")


@dataclass
class _InFlight:
    """One unresolved branch inside the machine."""

    resolve_time: float
    activation_time: float  # when the LC estimate can gate fetch
    counts_gating: bool

    def __lt__(self, other: "_InFlight") -> bool:
        return self.resolve_time < other.resolve_time


class PipelineSimulator:
    """Replays front-end event streams through the timing model."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.path: Optional[str] = None  # loop of the last simulate call
        self._reset()

    def _reset(self) -> None:
        self._fetch_time = 0.0
        self._retire_time = 0.0
        self._inflight = []  # heap of _InFlight by resolve_time
        self._seq = 0
        # Window occupancy: (retire_time, uops) per retired group, plus
        # the running totals needed for ROB back-pressure.
        self._retire_queue = deque()
        self._fetched_uops = 0.0
        self._retired_uops = 0.0

    # ------------------------------------------------------------------
    # In-flight branch bookkeeping
    # ------------------------------------------------------------------

    def _resolve_until(self, t: float) -> None:
        """Drop every branch whose resolution time has passed."""
        heap = self._inflight
        while heap and heap[0].resolve_time <= t:
            heapq.heappop(heap)

    def _active_lc_count(self, t: float) -> int:
        """Unresolved gating-counted branches with live estimates at ``t``."""
        return sum(
            1
            for b in self._inflight
            if b.counts_gating and b.activation_time <= t
        )

    def _earliest_lc_resolve(self, t: float) -> float:
        """Next resolution among active gating-counted branches."""
        times = [
            b.resolve_time
            for b in self._inflight
            if b.counts_gating and b.activation_time <= t
        ]
        return min(times) if times else _INFINITY

    def _next_event_after(self, t: float) -> float:
        """Next resolution or LC activation strictly after ``t``."""
        next_time = _INFINITY
        for b in self._inflight:
            if b.resolve_time > t:
                next_time = min(next_time, b.resolve_time)
            if b.counts_gating and b.activation_time > t:
                next_time = min(next_time, b.activation_time)
        return next_time

    # ------------------------------------------------------------------
    # Window (ROB) occupancy
    # ------------------------------------------------------------------

    def _drain_retired(self, t: float) -> None:
        """Account groups that have retired by time ``t``."""
        queue = self._retire_queue
        while queue and queue[0][0] <= t:
            _, uops = queue.popleft()
            self._retired_uops += uops

    def _window_free(self, t: float) -> float:
        """Free window slots at time ``t``."""
        self._drain_retired(t)
        return self.config.rob_size - (self._fetched_uops - self._retired_uops)

    def _wait_for_window(self, t: float, uops: float) -> float:
        """Earliest time >= ``t`` at which ``uops`` slots are free."""
        while self._window_free(t) < uops and self._retire_queue:
            t = max(t, self._retire_queue[0][0])
        return t

    # ------------------------------------------------------------------
    # Fetch engine
    # ------------------------------------------------------------------

    def _fetch_span(
        self,
        start: float,
        uop_budget: float,
        deadline: float,
        stats: SimStats,
        wrong_path: bool,
    ):
        """Advance fetch from ``start`` until the budget or deadline runs out.

        Returns ``(end_time, uops_fetched)``.  Fetch stalls while the
        low-confidence counter is at or above the gating threshold and
        while the instruction window is full.  Gating stall time is
        charged to ``stats.gated_cycles`` only on the correct path
        (wrong-path cycles were doomed regardless).
        """
        cfg = self.config
        per_uop = 1.0 / cfg.fetch_width
        throttling = cfg.gating_mode == "throttle" and cfg.throttle_factor > 0
        throttled_per_uop = (
            per_uop / cfg.throttle_factor if throttling else float("inf")
        )
        threshold = cfg.gating_threshold
        t = start
        fetched = 0.0
        stalled = False
        while uop_budget > 1e-9 and t < deadline - 1e-9:
            self._resolve_until(t)
            gated = self._active_lc_count(t) >= threshold
            if gated and not throttling:
                resume = min(self._earliest_lc_resolve(t), deadline)
                if not stalled:
                    stats.gating_stalls += 1
                    stalled = True
                if not wrong_path:
                    stats.gated_cycles += resume - t
                t = resume
                continue
            step_per_uop = throttled_per_uop if gated else per_uop
            stalled = False
            if not wrong_path:
                # Window back-pressure applies to correct-path fetch:
                # wait for one fetch group of room.
                group = min(uop_budget, float(cfg.fetch_width))
                t_ready = self._wait_for_window(t, group)
                if t_ready > t:
                    t = min(t_ready, deadline)
                    continue
            horizon = t + uop_budget * step_per_uop
            step_end = min(horizon, deadline, self._next_event_after(t))
            if step_end <= t:
                break
            span_uops = min((step_end - t) / step_per_uop, uop_budget)
            if not wrong_path:
                free = self._window_free(t)
                if span_uops > free:
                    span_uops = free
                    step_end = t + span_uops * step_per_uop
                if span_uops <= 1e-9:
                    # Window full, nothing retiring before the deadline.
                    if not self._retire_queue:
                        break
                    t = min(max(t, self._retire_queue[0][0]), deadline)
                    continue
                self._fetched_uops += span_uops
                if gated:
                    stats.throttled_cycles += step_end - t
            fetched += span_uops
            uop_budget -= span_uops
            t = step_end
        return t, fetched

    def _wrong_path_episode(
        self, t_fetch: float, t_resolve: float, stats: SimStats
    ) -> None:
        """Account one misprediction's wrong-path fetch window.

        Wrong-path uops enter from the branch's fetch until resolution
        at full fetch bandwidth, bounded by the instruction window size
        and cut short by gating.  They are squashed at recovery and
        never appear in the retire stream; window slots recycle fast
        enough during the multi-tens-of-cycles window that live
        occupancy is not the binding constraint (DESIGN.md note 2).
        """
        cfg = self.config
        cap = float(cfg.wrong_path_cap)
        _, fetched = self._fetch_span(
            t_fetch, cap, t_resolve, stats, wrong_path=True
        )
        potential = min(cap, (t_resolve - t_fetch) * cfg.fetch_width)
        stats.wrong_path_uops += fetched
        stats.wrong_path_uops_saved += max(0.0, potential - fetched)

    # ------------------------------------------------------------------
    # Per-branch processing
    # ------------------------------------------------------------------

    def _resolve_latency(self, pc: int) -> float:
        """Depth plus deterministic per-instance jitter."""
        cfg = self.config
        if cfg.resolve_jitter == 0:
            return float(cfg.depth)
        jitter = mix_hash((pc << 17) ^ self._seq) % (cfg.resolve_jitter + 1)
        return float(cfg.depth + jitter)

    def _retire_group(self, uops: int, fetch_done: float, floor: float) -> None:
        """Advance the retire clock over one correct-path uop group."""
        cfg = self.config
        backend = max(
            self._retire_time + uops * cfg.base_uop_cycles,
            fetch_done + cfg.depth,
        )
        self._retire_time = max(backend, floor)
        self._retire_queue.append((self._retire_time, float(uops)))

    def _process(self, event: FrontEndEvent, stats: SimStats) -> None:
        cfg = self.config
        uops = event.uops_before + 1
        end, _ = self._fetch_span(
            self._fetch_time, float(uops), _INFINITY, stats, wrong_path=False
        )
        self._fetch_time = end
        stats.correct_path_uops += uops

        t_fetch = self._fetch_time
        t_resolve = t_fetch + self._resolve_latency(event.pc)
        self._seq += 1

        counts_gating = event.decision.counts_toward_gating
        heapq.heappush(
            self._inflight,
            _InFlight(
                resolve_time=t_resolve,
                activation_time=t_fetch + cfg.estimator_latency,
                counts_gating=counts_gating,
            ),
        )

        stats.branches += 1
        if counts_gating:
            stats.gated_branches += 1
        if not event.predictor_correct:
            stats.raw_mispredictions += 1
        if event.decision.action is BranchAction.REVERSE:
            stats.reversals += 1
            if not event.predictor_correct and event.final_correct:
                stats.reversals_correcting += 1
            elif event.predictor_correct and not event.final_correct:
                stats.reversals_breaking += 1

        if not event.final_correct:
            stats.mispredictions += 1
            self._wrong_path_episode(t_fetch, t_resolve, stats)
            # Recovery: fetch restarts at resolution; the branch group
            # cannot retire before it resolved, which makes the refill
            # visible in the retire stream.
            stats.squash_cycles += t_resolve - self._fetch_time
            self._fetch_time = t_resolve
            self._retire_group(uops, t_fetch, floor=t_resolve)
        else:
            self._retire_group(uops, t_fetch, floor=0.0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def simulate(
        self,
        events: Iterable[FrontEndEvent],
        stats: Optional[SimStats] = None,
    ) -> SimStats:
        """Replay a front-end event stream; returns accumulated stats.

        Internal time state is reset at the start of every call.  The
        stream runs on the compiled kernel (:mod:`repro.pipeline.kernel`),
        which is bit-identical to the Python model below; when the kernel
        cannot run, the Python model does and the fallback is counted.
        ``self.path`` records which one ran (``"kernel"``/``"python"``).
        """
        result = stats if stats is not None else SimStats()
        from repro import telemetry
        from repro.pipeline import kernel

        tel = telemetry.get_registry()
        if tel.enabled:
            # Callers may pass an accumulating SimStats: record this
            # call's contribution, not the running totals.
            base_wrong = result.wrong_path_uops
            base_stalls = result.gating_stalls
            base_correcting = result.reversals_correcting
            base_breaking = result.reversals_breaking
        if not isinstance(events, (list, tuple)):
            events = list(events)
        reason = kernel.simulate(self.config, events, result)
        if reason is None:
            self.path = "kernel"
        else:
            if tel.enabled:
                tel.counter(
                    "pipeline_kernel_fallbacks_total", reason=reason
                ).inc()
            self._run(events, result)
        if tel.enabled:
            buckets = telemetry.COUNT_BUCKETS
            tel.counter("pipeline_simulations_total").inc()
            tel.histogram(
                "pipeline_wrong_path_uops", buckets=buckets
            ).observe(result.wrong_path_uops - base_wrong)
            tel.histogram(
                "pipeline_gating_stalls", buckets=buckets
            ).observe(result.gating_stalls - base_stalls)
            tel.histogram(
                "pipeline_reversal_recoveries", buckets=buckets
            ).observe(result.reversals_correcting - base_correcting)
            tel.counter(
                "pipeline_reversals_total", kind="correcting"
            ).inc(result.reversals_correcting - base_correcting)
            tel.counter(
                "pipeline_reversals_total", kind="breaking"
            ).inc(result.reversals_breaking - base_breaking)
        return result

    def simulate_reference(
        self,
        events: Iterable[FrontEndEvent],
        stats: Optional[SimStats] = None,
    ) -> SimStats:
        """The Python model alone, recording no telemetry: the kernel's oracle."""
        result = stats if stats is not None else SimStats()
        self._run(events, result)
        return result

    def _run(self, events: Iterable[FrontEndEvent], result: SimStats) -> None:
        self._reset()
        self.path = "python"
        for event in events:
            self._process(event, result)
        result.total_cycles = self._retire_time

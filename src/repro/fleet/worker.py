"""The fleet worker loop: lease, execute, ship, repeat.

One worker process drains one queue against the shared cache
directory.  Per leased job it:

1. re-arms its telemetry window (registry + span capture + profile --
   capture is *forced*, because a fleet worker was never forked from
   the submitter and must always ship spans home through the queue);
2. executes the job through a private serial
   :class:`~repro.engine.engine.Engine` pointed at the shared
   ``cache_dir`` -- the disk replay cache is how the outcome reaches
   every submitter, and content addressing means a job another worker
   already executed is served from disk instead of replayed;
3. wraps the execution in a ``fleet.lease`` span (the worker lanes of
   ``python -m repro.telemetry timeline``) and counts
   ``fleet_leased_total`` / ``fleet_completed_total``;
4. drains the window into a
   :class:`~repro.telemetry.workers.WorkerShipment` and attaches it to
   the queue row via :meth:`~repro.fleet.queue.WorkQueue.complete`.

A job that raises is reported with
:meth:`~repro.fleet.queue.WorkQueue.fail` (requeue while attempts
remain); the telemetry collected up to the failure stays in the
worker's registry and rides home with the next successful shipment,
so failure-path counters are not lost.

The loop exits cleanly on ``--max-jobs``, on ``--idle-exit`` seconds
without claimable work, or on SIGINT/SIGTERM after the in-flight job
settles.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import socket
import time
from typing import Optional

from repro import telemetry
from repro.engine.engine import Engine
from repro.fleet.queue import DEFAULT_LEASE_SECONDS, WorkQueue
from repro.telemetry.spans import log_event
from repro.telemetry.workers import worker_begin, worker_collect

__all__ = ["FleetWorker"]

logger = logging.getLogger(__name__)


class FleetWorker:
    """Drains ``queue_path`` against ``cache_dir`` until told to stop."""

    def __init__(
        self,
        queue_path: str,
        cache_dir: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll: float = 0.2,
        max_jobs: Optional[int] = None,
        idle_exit: Optional[float] = None,
        worker_id: Optional[str] = None,
    ):
        self.queue_path = queue_path
        self.cache_dir = cache_dir
        self.lease_seconds = lease_seconds
        self.poll = poll
        self.max_jobs = max_jobs
        self.idle_exit = idle_exit
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}"
        )
        self._stop = False

    def request_stop(self, *_args) -> None:
        """Finish the in-flight job, then exit the loop."""
        self._stop = True

    def install_signal_handlers(self) -> None:
        signal.signal(signal.SIGINT, self.request_stop)
        signal.signal(signal.SIGTERM, self.request_stop)

    def run(self) -> int:
        """The worker loop; returns the number of jobs completed."""
        # The worker is its own telemetry domain: one window per job,
        # drained into the queue row.  The engine is serial on purpose
        # -- fan-out across jobs is the fleet's.
        worker_begin(count=True, capture=True)
        tel = telemetry.get_registry()
        queue = WorkQueue(self.queue_path)
        engine = Engine(max_workers=1, cache_dir=self.cache_dir)
        completed = 0
        idle_since = time.monotonic()
        try:
            while not self._stop:
                if self.max_jobs is not None and completed >= self.max_jobs:
                    break
                lease = queue.lease(self.worker_id, self.lease_seconds)
                if lease is None:
                    if (
                        self.idle_exit is not None
                        and time.monotonic() - idle_since >= self.idle_exit
                    ):
                        break
                    time.sleep(self.poll)
                    continue
                idle_since = time.monotonic()
                # Re-arm span capture (draining disarms it) so this
                # job's spans land in a fresh buffer.
                telemetry.begin_span_capture()
                tel.counter("fleet_leased_total").inc()
                try:
                    with telemetry.trace_span(
                        "fleet.lease",
                        fingerprint=lease.fingerprint[:12],
                        worker=self.worker_id,
                        attempt=lease.attempts,
                    ) as span:
                        outcome = engine.replay(lease.job)
                        span.note(backend=outcome.backend)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    queue.fail(
                        lease.fingerprint, self.worker_id, repr(exc)
                    )
                    continue
                tel.counter("fleet_completed_total").inc()
                shipment = worker_collect(count=True)
                queue.complete(
                    lease.fingerprint,
                    self.worker_id,
                    pickle.dumps(shipment),
                )
                completed += 1
        finally:
            queue.close()
            log_event(
                "fleet_worker_exit",
                level=logging.INFO,
                message=f"completed {completed} job(s)",
                logger=logger,
                worker=self.worker_id,
                stopped=self._stop,
            )
        return completed

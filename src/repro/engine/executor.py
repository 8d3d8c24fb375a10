"""Where the engine's pending jobs run: inline, or over a process pool.

:func:`execute` is the single home of process fan-out and of the
worker-bootstrap / telemetry-drain / result-marshalling protocol: each
pooled job runs through :func:`_pool_entry` and ships a
:mod:`repro.telemetry.workers` shipment home.  It yields
``(job, outcome)`` pairs in submission order as they land (the
engine's per-outcome crash-resume contract).

The process count is a throughput knob only.  Replay is deterministic
in the job description, so inline and pooled runs produce
bit-identical events and results; the verify layers enforce it.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterator, Sequence, Tuple

from repro import telemetry
from repro.telemetry.workers import absorb_shipment, worker_begin, worker_collect

__all__ = ["execute"]


def _pool_entry(payload):
    """Worker-process entry: one job under the shipment protocol.

    Module-level so pools can pickle it by reference.  ``payload`` is
    ``(count, job)``; the outcome comes back paired with the drained
    :class:`~repro.telemetry.workers.WorkerShipment`.
    """
    from repro.engine.engine import _traced_execute_job

    count, job = payload
    worker_begin(count=count)
    outcome = _traced_execute_job(job)
    return outcome, worker_collect(count=count)


def execute(
    jobs: Sequence, engine, processes: int
) -> Iterator[Tuple[object, object]]:
    """Run ``jobs`` through ``engine``'s trace cache; yield per outcome.

    With ``processes <= 1`` the jobs replay inline, in this process.
    Otherwise they fan out over a process pool of that size,
    scoped to this call, so forked workers inherit the caller's
    telemetry state as of the call -- the fork-time capture decision
    the shipment protocol relies on.
    """
    if processes <= 1:
        # Looked up per call: instrumentation may wrap the module-level
        # ``_replay_trace`` by name.
        from repro.engine.engine import _replay_trace

        for job in jobs:
            yield job, _replay_trace(job, engine.trace(*job.trace_key))
        return
    # Workers count into their own registries only when the parent is
    # collecting; each job ships a drained shipment home.
    count = telemetry.get_registry().enabled
    payloads = [(count, job) for job in jobs]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        for job, (outcome, shipment) in zip(
            jobs, pool.map(_pool_entry, payloads, chunksize=1)
        ):
            absorb_shipment(shipment)
            yield job, outcome

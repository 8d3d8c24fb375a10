"""The engine's fan-out: inline below two processes, pooled above.

The contract: all process fan-out goes through
:func:`repro.engine.executor.execute` (no direct process-pool
usage left in the engine), and the worker count is a throughput knob
only -- inline and pooled runs produce bit-identical outcomes.
"""

import inspect

import pytest

from repro import telemetry
from repro.engine import Engine, SimJob
from repro.engine import engine as engine_mod
from repro.engine.canonical import canonical_metrics


def _jobs(n=3, n_branches=1500):
    return [
        SimJob(benchmark="gzip", n_branches=n_branches, warmup=100, seed=s)
        for s in range(1, n + 1)
    ]


class TestNoDirectPoolUsage:
    """Fan-out lives in the executor module only."""

    @pytest.mark.parametrize("module_name", ["engine"])
    def test_no_process_pool_executor(self, module_name):
        import importlib

        module = importlib.import_module(f"repro.engine.{module_name}")
        source = inspect.getsource(module)
        assert "ProcessPoolExecutor" not in source


class TestExecutorEquivalence:
    def test_inline_and_pool_agree(self):
        jobs = _jobs()
        inline = Engine(max_workers=1).run(jobs)
        pool = Engine(max_workers=2).run(jobs)
        for a, b in zip(inline, pool):
            assert a.events == b.events
            assert canonical_metrics(a.result) == canonical_metrics(b.result)

    def test_pool_delegates_single_job_inline(self):
        engine = Engine(max_workers=4)
        engine.run(_jobs(1))
        assert engine.stats.executed == 1
        assert engine.stats.parallel_executed == 0

    def test_parallel_tally_counts_distributed_batches_only(self):
        jobs = _jobs(2)
        engine = Engine(max_workers=2)
        engine.run(jobs)
        assert engine.stats.parallel_executed == 2
        serial = Engine(max_workers=1)
        serial.run(jobs)
        assert serial.stats.parallel_executed == 0
        assert serial.stats.executed == 2

    def test_inline_path_looks_up_replay_at_call_time(self, monkeypatch):
        # Instrumentation wraps the module-level _replay_trace by name;
        # the inline path must see the wrapper, not a bound original.
        seen = []
        original = engine_mod._replay_trace

        def wrapped(job, trace):
            seen.append(job.fingerprint)
            return original(job, trace)

        monkeypatch.setattr(engine_mod, "_replay_trace", wrapped)
        jobs = _jobs(2)
        Engine(max_workers=1).run(jobs)
        assert seen == [job.fingerprint for job in jobs]


class TestPoolTelemetryShipments:
    def test_worker_metrics_merge_home(self):
        jobs = _jobs(2)
        registry = telemetry.enable()
        registry.reset()
        try:
            Engine(max_workers=2).run(jobs)
            snap = registry.snapshot()
            replays = sum(
                snap.counter_series("engine_replays_total").values()
            )
            assert replays == len(jobs)
            assert snap.counter("engine_jobs_parallel_total") == len(jobs)
        finally:
            telemetry.disable()
            registry.reset()

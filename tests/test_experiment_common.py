"""Unit tests for the shared experiment infrastructure."""

from repro.engine import ALWAYS_HIGH, GATING_POLICY, EstimatorSpec, get_engine
from repro.experiments.common import (
    ExperimentSettings,
    get_trace,
    job_for,
    replay_benchmark,
    run_jobs,
)
from repro.pipeline.config import BASELINE_40X4

SMALL = ExperimentSettings(
    n_branches=4_000, warmup=1_000, benchmarks=("gzip",)
)

JRS7 = EstimatorSpec.of("jrs", threshold=7)


class TestGetTrace:
    def test_cached(self):
        a = get_trace("gzip", 3_000, 5)
        b = get_trace("gzip", 3_000, 5)
        assert a is b

    def test_distinct_keys(self):
        assert get_trace("gzip", 3_000, 5) is not get_trace("gzip", 3_000, 6)


class TestReplayBenchmark:
    def test_event_count_excludes_warmup(self):
        events, result = replay_benchmark("gzip", SMALL, ALWAYS_HIGH)
        assert len(events) == SMALL.n_branches - SMALL.warmup
        assert result.branches == len(events)

    def test_policy_decisions_present(self):
        events, _ = replay_benchmark(
            "gzip", SMALL, JRS7, policy=GATING_POLICY
        )
        assert any(e.decision.counts_toward_gating for e in events)

    def test_collect_outputs(self):
        _, result = replay_benchmark(
            "gzip", SMALL, JRS7, collect_outputs=True
        )
        total = len(result.outputs_correct) + len(result.outputs_mispredicted)
        assert total == result.branches


class TestRunJobs:
    def test_batch_order_matches_jobs(self):
        jobs = [
            job_for(SMALL, "gzip", ALWAYS_HIGH),
            job_for(SMALL, "gzip", JRS7),
            job_for(SMALL, "gzip", ALWAYS_HIGH),
        ]
        outcomes = run_jobs(jobs)
        assert len(outcomes) == 3
        # Duplicate jobs resolve to the identical cached outcome.
        assert outcomes[0].events is outcomes[2].events

    def test_repeat_is_cache_hit(self):
        job = job_for(SMALL, "gzip", JRS7)
        first = run_jobs([job])[0]
        second = run_jobs([job])[0]
        assert second.from_cache
        assert first.result.branches == second.result.branches


class TestSimulateEvents:
    def test_runs_over_replay(self):
        events, _ = replay_benchmark("gzip", SMALL, ALWAYS_HIGH)
        stats = get_engine().simulate(events, BASELINE_40X4)
        assert stats.branches == len(events)
        assert stats.total_cycles > 0

    def test_rerunnable(self):
        events, _ = replay_benchmark("gzip", SMALL, ALWAYS_HIGH)
        a = get_engine().simulate(events, BASELINE_40X4)
        b = get_engine().simulate(events, BASELINE_40X4)
        assert a.total_cycles == b.total_cycles


class TestRunnerCli:
    def test_main_quick_single(self, capsys):
        from repro.experiments.runner import main

        assert main(["--branches", "4000", "figure6_7"]) == 0
        assert "figure6_7" in capsys.readouterr().out

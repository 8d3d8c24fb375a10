"""Single machine runs and baseline-vs-policy comparisons.

A machine run is an engine replay (``Engine.run``) timed by
``Engine.simulate``; a comparison takes U and P from
:meth:`SimStats.uop_reduction_vs` / :meth:`SimStats.performance_loss_vs`
against the ungated baseline, exactly as the experiments do.
"""

import pytest

from repro.engine import (
    ALWAYS_HIGH,
    GATING_POLICY,
    NO_POLICY,
    Engine,
    EstimatorSpec,
    SimJob,
)
from repro.pipeline.config import BASELINE_40X4

BASE = SimJob(benchmark="gzip", n_branches=4_000, warmup=1_000, seed=3)


@pytest.fixture(scope="module")
def engine():
    return Engine()


def compare(engine, job, config):
    """(baseline stats, policy stats) for ``job`` against ``BASE``."""
    base_out, out = engine.run([BASE, job])
    base = engine.simulate(base_out.events, BASELINE_40X4)
    return base, engine.simulate(out.events, config)


class TestRunMachine:
    def test_baseline_run(self, engine):
        events, _ = engine.replay(BASE)
        stats = engine.simulate(events, BASELINE_40X4)
        assert stats.branches == BASE.n_branches - BASE.warmup
        assert stats.total_cycles > 0
        assert stats.total_uops_executed >= stats.correct_path_uops

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            BASE.with_(warmup=-5)

    def test_frontend_metrics_populated(self, engine):
        events, frontend = engine.replay(
            BASE.with_(
                estimator=EstimatorSpec.of("jrs", threshold=7),
                policy=GATING_POLICY,
            )
        )
        stats = engine.simulate(events, BASELINE_40X4)
        assert frontend.metrics.overall.total == stats.branches


class TestComparePolicies:
    def test_gating_reduces_uops(self, engine):
        base, gated = compare(
            engine,
            BASE.with_(
                estimator=EstimatorSpec.of("perceptron", threshold=-25),
                policy=GATING_POLICY,
            ),
            BASELINE_40X4.with_gating(1),
        )
        assert gated.uop_reduction_vs(base) > 0
        # Gating never reduces *correct-path* work.
        assert gated.correct_path_uops == base.correct_path_uops

    def test_null_policy_matches_baseline(self, engine):
        # Gating hardware enabled, but nothing is ever low confidence.
        base, null = compare(
            engine,
            BASE.with_(estimator=ALWAYS_HIGH, policy=NO_POLICY),
            BASELINE_40X4.with_gating(1),
        )
        assert null.uop_reduction_vs(base) == pytest.approx(0.0, abs=1e-9)
        assert null.performance_loss_vs(base) == pytest.approx(0.0, abs=1e-9)

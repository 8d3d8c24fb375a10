"""Unit tests for the front-end coupling (repro.core.frontend)."""

import pytest

from repro.core.estimator import AlwaysHighEstimator
from repro.core.frontend import FrontEnd
from repro.core.jrs import JRSEstimator
from repro.core.perceptron_estimator import PerceptronConfidenceEstimator
from repro.core.reversal import (
    BranchAction,
    GatingOnlyPolicy,
    NoSpeculationControl,
    ThreeRegionPolicy,
)
from repro.predictors.hybrid import make_baseline_hybrid
from repro.predictors.static import AlwaysTakenPredictor
from repro.trace.record import BranchRecord, Trace


def two_branch_trace(n=200):
    records = []
    for i in range(n):
        records.append(BranchRecord(pc=0x40, taken=True, uops_before=7))
        records.append(BranchRecord(pc=0x44, taken=False, uops_before=7))
    return Trace(records, name="two")


class TestProcess:
    def test_event_fields(self):
        fe = FrontEnd(AlwaysTakenPredictor(), AlwaysHighEstimator())
        ev = fe.process(BranchRecord(pc=0x40, taken=False, uops_before=3))
        assert ev.pc == 0x40
        assert ev.prediction is True
        assert ev.final_prediction is True
        assert not ev.predictor_correct
        assert not ev.final_correct
        assert ev.uops_before == 3
        assert ev.decision.action is BranchAction.NORMAL

    def test_predictor_trains_through_frontend(self):
        fe = FrontEnd(make_baseline_hybrid(), AlwaysHighEstimator())
        result = fe.replay(two_branch_trace(), warmup=40)
        assert result.misprediction_rate < 0.05

    def test_estimator_history_shifts(self):
        est = PerceptronConfidenceEstimator()
        fe = FrontEnd(AlwaysTakenPredictor(), est)
        fe.process(BranchRecord(pc=0x40, taken=True))
        assert est.history.bits == 1


class TestRun:
    def test_warmup_excluded_from_metrics(self):
        fe = FrontEnd(make_baseline_hybrid(), JRSEstimator())
        trace = two_branch_trace(50)
        full = fe.replay(trace)
        assert full.branches == len(trace)
        fe2 = FrontEnd(make_baseline_hybrid(), JRSEstimator())
        warm = fe2.replay(trace, warmup=60)
        assert warm.branches == len(trace) - 60

    def test_negative_warmup_rejected(self):
        fe = FrontEnd(AlwaysTakenPredictor(), AlwaysHighEstimator())
        with pytest.raises(ValueError):
            fe.replay(two_branch_trace(), warmup=-1)

    def test_always_high_estimator_never_flags(self, simple_trace):
        fe = FrontEnd(make_baseline_hybrid(), AlwaysHighEstimator())
        result = fe.replay(simple_trace)
        assert result.metrics.overall.flagged_low == 0
        assert result.metrics.overall.spec == 0.0

    def test_continue_aggregation(self):
        fe = FrontEnd(AlwaysTakenPredictor(), AlwaysHighEstimator())
        first = fe.replay(two_branch_trace(10))
        combined = fe.replay(two_branch_trace(10), result=first)
        assert combined.branches == 40

    def test_collect_outputs(self, simple_trace):
        fe = FrontEnd(
            make_baseline_hybrid(),
            PerceptronConfidenceEstimator(),
            collect_outputs=True,
        )
        result = fe.replay(simple_trace, warmup=500)
        total = len(result.outputs_correct) + len(result.outputs_mispredicted)
        assert total == result.branches


class TestReversalAccounting:
    def test_correcting_and_breaking_counts(self):
        # Estimator that always reports strong-low forces reversal of
        # every branch: reversals fix mispredictions and break correct
        # predictions symmetrically.
        class AlwaysStrongLow(AlwaysHighEstimator):
            def estimate(self, pc, prediction):
                from repro.core.types import ConfidenceSignal

                return ConfidenceSignal.strong_low(100.0)

        fe = FrontEnd(
            AlwaysTakenPredictor(), AlwaysStrongLow(), ThreeRegionPolicy()
        )
        result = fe.replay(two_branch_trace(50))
        assert result.reversals == 100
        # taken branches were predicted correctly -> broken by reversal;
        # not-taken branches were mispredicted -> fixed.
        assert result.reversals_correcting == 50
        assert result.reversals_breaking == 50
        assert result.net_reversal_gain == 0
        assert result.final_misprediction_rate == pytest.approx(0.5)


def _events(trace, policy=None):
    fe = FrontEnd(make_baseline_hybrid(), JRSEstimator(threshold=7), policy)
    return [fe.process(r) for r in trace]


class TestApplyPolicy:
    """A policy reclassifies decisions; it leaves predictions and
    signals as they are."""

    def test_reclassifies_decisions(self, simple_trace):
        events = _events(simple_trace)
        gated = _events(simple_trace, GatingOnlyPolicy())
        assert len(gated) == len(events)
        n_gate = sum(1 for e in gated if e.decision.action is BranchAction.GATE)
        n_low = sum(1 for e in events if e.signal.low_confidence)
        assert n_gate == n_low > 0

    def test_baseline_strip(self, simple_trace):
        gated = _events(simple_trace, GatingOnlyPolicy())
        stripped = _events(simple_trace, NoSpeculationControl())
        assert all(e.decision.action is BranchAction.NORMAL for e in stripped)
        # Predictions and signals are untouched.
        for orig, new in zip(gated, stripped):
            assert orig.prediction == new.prediction
            assert orig.signal == new.signal


class TestPolicyIndependence:
    """Estimators train on the raw prediction, so the policy changes
    only decisions: one job yields the same (pc, taken, prediction,
    signal) stream under every policy."""

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_streams_identical_across_policies(self, backend):
        from repro.engine import (
            GATING_POLICY,
            NO_POLICY,
            THREE_REGION_POLICY,
            Engine,
            EstimatorSpec,
            SimJob,
        )

        job = SimJob(
            benchmark="gzip",
            n_branches=3_000,
            warmup=500,
            seed=1,
            estimator=EstimatorSpec.of(
                "perceptron", threshold=-25, strong_threshold=40
            ),
            backend=backend,
        )
        plain, gated, three = Engine().run(
            [
                job.with_(policy=NO_POLICY),
                job.with_(policy=GATING_POLICY),
                job.with_(policy=THREE_REGION_POLICY),
            ]
        )
        assert {o.backend for o in (plain, gated, three)} == {backend}

        def stream(outcome):
            return [(e.pc, e.taken, e.prediction, e.signal) for e in outcome.events]

        assert stream(gated) == stream(plain)
        assert stream(three) == stream(plain)
        # Only the decisions differ, each as its policy dictates.
        assert all(e.decision.action is BranchAction.NORMAL for e in plain.events)
        n_gate = sum(e.decision.action is BranchAction.GATE for e in gated.events)
        assert n_gate == sum(e.signal.low_confidence for e in plain.events) > 0
        assert any(e.decision.action is BranchAction.REVERSE for e in three.events)

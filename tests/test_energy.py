"""Unit tests for the energy model (extension)."""

import pytest

from repro.pipeline.energy import EnergyModel, EnergyReport
from repro.pipeline.stats import SimStats


def stats(correct=1000, wrong=200, branches=125, cycles=500.0):
    s = SimStats()
    s.correct_path_uops = correct
    s.wrong_path_uops = wrong
    s.branches = branches
    s.total_cycles = cycles
    return s


class TestEnergyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(dynamic_per_uop=-1)
        with pytest.raises(ValueError):
            EnergyModel(static_per_cycle=-0.1)

    def test_evaluate_components(self):
        model = EnergyModel(
            dynamic_per_uop=2.0, estimator_per_branch=0.5, static_per_cycle=1.0
        )
        report = model.evaluate(stats())
        assert report.dynamic == 2.0 * 1200
        assert report.estimator == 0.5 * 125
        assert report.static == 500.0
        assert report.total == report.dynamic + report.estimator + report.static

    def test_estimator_energy_optional(self):
        model = EnergyModel()
        active = model.evaluate(stats(), estimator_active=True)
        inactive = model.evaluate(stats(), estimator_active=False)
        assert inactive.estimator == 0.0
        assert active.total > inactive.total


class TestEnergyReport:
    def test_edp(self):
        report = EnergyReport(dynamic=100, estimator=0, static=50, cycles=10)
        assert report.energy_delay_product == 150 * 10

    def test_savings(self):
        base = EnergyReport(dynamic=200, estimator=0, static=100, cycles=10)
        better = EnergyReport(dynamic=150, estimator=10, static=100, cycles=10)
        assert better.savings_vs(base) == pytest.approx(
            100.0 * (300 - 260) / 300
        )

    def test_edp_tradeoff(self):
        """Less energy but longer runtime can lose on EDP."""
        base = EnergyReport(dynamic=300, estimator=0, static=0, cycles=10)
        gated = EnergyReport(dynamic=250, estimator=0, static=0, cycles=13)
        assert gated.savings_vs(base) > 0
        assert gated.edp_savings_vs(base) < 0

    def test_zero_baseline_safe(self):
        zero = EnergyReport(dynamic=0, estimator=0, static=0, cycles=0)
        other = EnergyReport(dynamic=1, estimator=0, static=0, cycles=1)
        assert other.savings_vs(zero) == 0.0
        assert other.edp_savings_vs(zero) == 0.0


class TestEndToEnd:
    def test_gating_saves_energy(self):
        from repro.engine import GATING_POLICY, Engine, EstimatorSpec, SimJob
        from repro.pipeline.config import BASELINE_40X4

        engine = Engine()
        job = SimJob(benchmark="gzip", n_branches=12_000, warmup=4000, seed=7)
        base_out, gated_out = engine.run(
            [
                job,
                job.with_(
                    estimator=EstimatorSpec.of("perceptron", threshold=-25),
                    policy=GATING_POLICY,
                ),
            ]
        )
        base = engine.simulate(base_out.events, BASELINE_40X4)
        gated = engine.simulate(gated_out.events, BASELINE_40X4.with_gating(1))
        model = EnergyModel()
        base_e = model.evaluate(base, estimator_active=False)
        gated_e = model.evaluate(gated, estimator_active=True)
        assert gated_e.savings_vs(base_e) > 0

"""Tests for the differential-verification subsystem itself.

The verify layers guard the simulator; these tests guard the layers:
every registered kind really has a reference-oracle differential test,
the golden gate catches drift and names it, and the mutation harness
proves the whole apparatus can fail.
"""

import pytest

from repro.engine.engine import Engine
from repro.engine.specs import (
    GATING_POLICY,
    NO_POLICY,
    EstimatorSpec,
    PolicySpec,
    PredictorSpec,
)
from repro.trace.benchmarks import generate_benchmark_trace
from repro.verify.differential import run_differential
from repro.verify.golden import (
    GoldenEntry,
    compare,
    compute_entries,
    load_baseline,
    write_baseline,
)
from repro.verify.matrix import (
    CASES,
    PROFILES,
    VerifyError,
    VerifyProfile,
    jobs_for_profile,
    specs_for_estimator_kind,
    specs_for_predictor_kind,
)
from repro.verify.metamorphic import run_invariants
from repro.verify.mutation import MUTATION_GATES, MUTATIONS, apply_mutation
from repro.verify.timing import (
    TIMING_CONFIGS,
    TIMING_GOLDEN,
    TIMING_POLICIES,
    TIMING_SMT,
    compute_timing_entries,
)

DIFF_TRACE = generate_benchmark_trace("gzip", n_branches=1_200, seed=11)

TINY = VerifyProfile(
    name="tiny",
    n_branches=2_000,
    warmup=500,
    benchmarks=("gzip",),
    differential_branches=600,
)


@pytest.fixture(scope="module")
def engine():
    return Engine(max_workers=1)


class TestDifferentialOracles:
    """Every registered kind is cross-checked against its oracle."""

    @pytest.mark.parametrize("kind", EstimatorSpec.kinds())
    def test_estimator_kind_matches_reference(self, kind):
        label, estimator = specs_for_estimator_kind(kind)[0]
        report = run_differential(
            DIFF_TRACE,
            PredictorSpec.of("baseline_hybrid"),
            estimator,
            GATING_POLICY,
            label=f"{kind}-via-{label}",
        )
        assert report.ok, report.format()
        assert report.branches == len(DIFF_TRACE)

    @pytest.mark.parametrize("kind", PredictorSpec.kinds())
    def test_predictor_kind_matches_reference(self, kind):
        label, predictor = specs_for_predictor_kind(kind)[0]
        report = run_differential(
            DIFF_TRACE,
            predictor,
            EstimatorSpec.of("always_high"),
            NO_POLICY,
            label=f"{kind}-via-{label}",
        )
        assert report.ok, report.format()

    @pytest.mark.parametrize("kind", PolicySpec.kinds())
    def test_policy_kind_matches_reference(self, kind):
        # three_region needs a strong-capable signal to exercise reversal.
        estimator = EstimatorSpec.of(
            "perceptron", threshold=-75, strong_threshold=0
        )
        report = run_differential(
            DIFF_TRACE,
            PredictorSpec.of("baseline_hybrid"),
            estimator,
            PolicySpec.of(kind),
            label=f"policy-{kind}",
        )
        assert report.ok, report.format()

    def test_every_matrix_case_matches_reference(self):
        for case in CASES:
            report = run_differential(
                DIFF_TRACE.slice(0, 600),
                case.predictor,
                case.estimator,
                case.policy,
                label=case.label,
            )
            assert report.ok, report.format()

    def test_divergence_is_detected_and_located(self):
        """Under a mutation the differential must fail with a location."""
        with apply_mutation("perceptron-update"):
            report = run_differential(
                DIFF_TRACE.slice(0, 600),
                PredictorSpec.of("baseline_hybrid"),
                EstimatorSpec.of("perceptron", threshold=0),
                GATING_POLICY,
                label="mutated",
            )
        assert not report.ok
        assert report.divergence.field.startswith("signal")
        assert "mutated" in report.format()
        # The mutation context manager must have restored the original.
        assert run_differential(
            DIFF_TRACE.slice(0, 600),
            PredictorSpec.of("baseline_hybrid"),
            EstimatorSpec.of("perceptron", threshold=0),
            GATING_POLICY,
        ).ok

    def test_unknown_kind_raises(self):
        from repro.verify.oracles import reference_estimator

        class FakeSpec:
            kind = "no_such_kind"

            def param_dict(self):
                return {}

        with pytest.raises(KeyError):
            reference_estimator(FakeSpec())


class TestGoldenGate:
    def test_roundtrip_clean(self, engine, tmp_path):
        entries = compute_entries(TINY, engine)
        path = str(tmp_path / "tiny.json")
        write_baseline(TINY, entries, "test baseline", path=path)
        baseline = load_baseline("tiny", path=path)
        report = compare(baseline, compute_entries(TINY, engine), "tiny")
        assert report.ok, report.format()
        assert report.checked == len(CASES) * len(TINY.benchmarks)

    def test_drift_names_case_and_metric(self, engine, tmp_path):
        entries = compute_entries(TINY, engine)
        path = str(tmp_path / "tiny.json")
        write_baseline(TINY, entries, "test baseline", path=path)
        baseline = load_baseline("tiny", path=path)
        # Perturb one recorded metric: the gate must name it exactly.
        label = entries[0].label
        baseline["entries"][label]["metrics"]["mispredictions"] += 5
        baseline["entries"][label]["digest"] = "0" * 64
        report = compare(baseline, entries, "tiny")
        assert not report.ok
        assert any(
            lbl == label and metric == "mispredictions"
            for lbl, metric, _, _ in report.drifts
        )
        formatted = report.format()
        assert label in formatted
        assert "mispredictions" in formatted
        assert "drifted" in formatted

    def test_fingerprint_change_is_not_metric_drift(self, engine, tmp_path):
        entries = compute_entries(TINY, engine)
        path = str(tmp_path / "tiny.json")
        write_baseline(TINY, entries, "test baseline", path=path)
        baseline = load_baseline("tiny", path=path)
        label = entries[0].label
        baseline["entries"][label]["fingerprint"] = "f" * 64
        report = compare(baseline, entries, "tiny")
        assert not report.ok
        assert report.fingerprint_mismatches == [label]
        assert report.drifts == []
        assert "different experiment" in report.format()

    def test_matrix_drift_reported(self, engine, tmp_path):
        entries = compute_entries(TINY, engine)
        path = str(tmp_path / "tiny.json")
        write_baseline(TINY, entries, "test baseline", path=path)
        baseline = load_baseline("tiny", path=path)
        extra = GoldenEntry("new-case/gzip", "ab" * 32, "cd" * 32, {})
        report = compare(baseline, entries[1:] + [extra], "tiny")
        assert report.missing == [entries[0].label]
        assert report.unexpected == ["new-case/gzip"]

    def test_refresh_requires_reason(self, engine, tmp_path):
        entries = compute_entries(TINY, engine)
        with pytest.raises(VerifyError):
            write_baseline(TINY, entries, "", path=str(tmp_path / "t.json"))
        with pytest.raises(VerifyError):
            write_baseline(TINY, entries, "  ", path=str(tmp_path / "t.json"))

    def test_refresh_is_deterministic(self, engine, tmp_path):
        entries = compute_entries(TINY, engine)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_baseline(TINY, entries, "same reason", path=a)
        write_baseline(TINY, compute_entries(TINY, engine), "same reason", path=b)
        with open(a) as fa, open(b) as fb:
            assert fa.read() == fb.read()

    def test_missing_baseline_explains_refresh(self, tmp_path):
        with pytest.raises(VerifyError, match="--refresh"):
            load_baseline("tiny", path=str(tmp_path / "absent.json"))

    def test_checked_in_baselines_match_matrix(self):
        """The repo's golden files cover exactly the current matrix."""
        for name in PROFILES:
            baseline = load_baseline(name)
            expected = {label for label, _ in jobs_for_profile(PROFILES[name])}
            assert set(baseline["entries"]) == expected
            fingerprints = {
                label: job.fingerprint
                for label, job in jobs_for_profile(PROFILES[name])
            }
            for label, entry in baseline["entries"].items():
                assert entry["fingerprint"] == fingerprints[label], (
                    f"{name}:{label} baseline fingerprint is stale -- "
                    f"refresh with a reason"
                )


class TestMutationHarness:
    def test_mutations_are_reversible(self):
        from repro.common.perceptron import PerceptronArray

        original = PerceptronArray.train
        with apply_mutation("perceptron-update"):
            assert PerceptronArray.train is not original
        assert PerceptronArray.train is original

    def test_unknown_mutation(self):
        with pytest.raises(KeyError):
            apply_mutation("no-such-mutation")

    def test_mutation_fails_golden_gate(self, engine, tmp_path):
        path = str(tmp_path / "tiny.json")
        write_baseline(TINY, compute_entries(TINY, engine), "clean", path=path)
        baseline = load_baseline("tiny", path=path)
        with apply_mutation("perceptron-update"):
            mutated = compute_entries(TINY, Engine(max_workers=1))
        report = compare(baseline, mutated, "tiny")
        assert not report.ok
        drifted_labels = {label for label, _, _, _ in report.drifts}
        assert any("perceptron" in label for label in drifted_labels)

    def test_every_registered_mutation_is_caught(self, engine, tmp_path):
        gates = {
            "golden": lambda e: compute_entries(TINY, e),
            "timing": lambda e: compute_timing_entries(TINY, e)[0],
        }
        assert set(MUTATION_GATES) == set(MUTATIONS)
        for name in MUTATIONS:
            compute = gates[MUTATION_GATES[name]]
            path = str(tmp_path / f"{name}.json")
            write_baseline(TINY, compute(engine), "clean", path=path)
            baseline = load_baseline("tiny", path=path)
            with apply_mutation(name):
                mutated = compute(Engine(max_workers=1))
            report = compare(baseline, mutated, "tiny")
            assert not report.ok, f"mutation {name!r} slipped through the gate"


class TestTimingGate:
    def test_checked_in_baseline_matches_matrix(self):
        baseline = load_baseline(TIMING_GOLDEN)
        entries, _ = compute_timing_entries(PROFILES["quick"], Engine(max_workers=1))
        assert {e.label for e in entries} == set(baseline["entries"])
        report = compare(baseline, entries, TIMING_GOLDEN)
        assert report.ok, report.format()
        benchmarks = len(PROFILES["quick"].benchmarks)
        assert report.checked == (
            len(TIMING_POLICIES) * len(TIMING_CONFIGS) * benchmarks
            + len(TIMING_SMT) * (benchmarks - 1)
        )

    def test_kernel_and_python_model_agree(self, engine):
        kernel_run, _ = compute_timing_entries(TINY, engine)
        python_run, paths = compute_timing_entries(TINY, engine, reference=True)
        assert paths == {"python": len(python_run)}
        assert kernel_run == python_run

    @pytest.mark.parametrize("path", ["kernel", "python"])
    def test_event_mutation_bites_on_both_paths(self, engine, tmp_path,
                                                monkeypatch, path):
        from repro.pipeline import kernel

        entries, _ = compute_timing_entries(TINY, engine)
        baseline_path = str(tmp_path / "timing.json")
        write_baseline(TINY, entries, "clean", path=baseline_path)
        if path == "python":
            monkeypatch.setattr(kernel, "_kernel", "test")
        elif kernel.unavailable_reason() is not None:
            pytest.skip(f"kernel unavailable: {kernel.unavailable_reason()}")
        with apply_mutation("timing-events"):
            mutated, paths = compute_timing_entries(TINY, engine)
        assert paths == {path: len(mutated)}
        report = compare(load_baseline("tiny", path=baseline_path), mutated, "tiny")
        assert not report.ok
        assert "drifted" in report.format()
        assert "correct_path_uops" in report.format()

    def test_event_mutation_bites_on_smt_entries(self, engine, tmp_path):
        pair = VerifyProfile(
            name="tiny-pair",
            n_branches=2_000,
            warmup=500,
            benchmarks=("gzip", "mcf"),
            differential_branches=600,
        )
        entries, _ = compute_timing_entries(pair, engine)
        smt = [e for e in entries if e.label.startswith("smt-")]
        assert sorted(e.label for e in smt) == [
            f"{label}/40c4w/gzip+mcf" for label, _ in sorted(TIMING_SMT)
        ]
        baseline_path = str(tmp_path / "smt.json")
        write_baseline(pair, smt, "clean", path=baseline_path)
        with apply_mutation("timing-events"):
            mutated, _ = compute_timing_entries(pair, engine)
        report = compare(
            load_baseline("tiny-pair", path=baseline_path),
            [e for e in mutated if e.label.startswith("smt-")],
            "tiny-pair",
        )
        assert {label for label, _, _, _ in report.drifts} == {e.label for e in smt}
        assert "t0.correct_uops" in report.format()


class TestInvariants:
    def test_all_pass_on_clean_tree(self, engine):
        results = run_invariants(engine, TINY)
        failures = [r.format() for r in results if not r.ok]
        assert not failures, "\n".join(failures)
        assert len(results) >= 5


class TestCli:
    def test_refresh_without_reason_rejected(self):
        from repro.verify.cli import main

        with pytest.raises(SystemExit):
            main(["--quick", "--refresh"])

    def test_run_verification_reports_failures(self, tmp_path, capsys):
        from repro.verify.cli import run_verification

        # Golden-only mutated run against the checked-in quick baseline
        # must exit nonzero and name a perceptron case in its output.
        code = run_verification(
            "quick",
            differential=False,
            invariants=False,
            golden=True,
            mutate="perceptron-update",
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "drifted" in out
        assert "perceptron" in out

    def test_runner_verify_flag_aborts_on_failure(self, monkeypatch, capsys):
        import repro.experiments.runner as runner
        import repro.verify.cli as cli

        calls = {}

        def fake_verification(profile, jobs=1):
            calls["profile"] = profile
            return 1

        monkeypatch.setattr(cli, "run_verification", fake_verification)
        assert runner.main(["table2", "--quick", "--verify"]) == 1
        assert calls["profile"] == "quick"
        assert "aborting" in capsys.readouterr().out

    def test_markdown_report(self, tmp_path, capsys):
        from repro.verify.cli import run_verification

        md = str(tmp_path / "verify.md")
        code = run_verification(
            "quick",
            differential=False,
            invariants=True,
            golden=False,
            markdown=md,
        )
        assert code == 0
        with open(md) as fh:
            text = fh.read()
        assert "| layer |" in text
        assert "invariants" in text

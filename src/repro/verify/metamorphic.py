"""Metamorphic invariants: pipeline-level properties with known answers.

Reference oracles check that components compute what we *implemented*;
metamorphic invariants check that the system obeys relations we can
derive without any implementation at all.  Each invariant transforms a
configuration in a way whose effect on the output is known a priori
(often "identical") and fails loudly when the relation breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.core.oracle import oracle_events
from repro.core.reversal import GatingOnlyPolicy
from repro.engine.canonical import canonical_metrics
from repro.engine.specs import (
    ALWAYS_HIGH,
    GATING_POLICY,
    NO_POLICY,
    THREE_REGION_POLICY,
    EstimatorSpec,
)
from repro.pipeline.config import STANDARD_20X4
from repro.pipeline.simulator import PipelineSimulator
from repro.pipeline.smt import SmtSimulator
from repro.verify.matrix import VerifyProfile

__all__ = ["InvariantResult", "run_invariants", "INVARIANTS"]


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant check."""

    name: str
    ok: bool
    detail: str

    def format(self) -> str:
        return f"{'ok  ' if self.ok else 'FAIL'} invariant {self.name}: {self.detail}"


def _base_job(engine, profile: VerifyProfile, **overrides):
    from repro.verify.matrix import jobs_for_profile

    label, job = jobs_for_profile(profile)[0]
    return job.with_(**overrides) if overrides else job


def _inv_oracle_gating_never_hurts(engine, profile):
    """Perfect-confidence gating cannot add wrong-path work."""
    job = _base_job(engine, profile)
    events, _ = engine.run([job])[0]
    config = STANDARD_20X4.with_gating(1)
    baseline = PipelineSimulator(config).simulate(events)
    gated = PipelineSimulator(config).simulate(
        oracle_events(events, GatingOnlyPolicy())
    )
    ok = gated.wrong_path_uops <= baseline.wrong_path_uops
    return InvariantResult(
        "oracle-gating-never-hurts",
        ok,
        f"wrong-path uops {gated.wrong_path_uops:.0f} (oracle-gated) vs "
        f"{baseline.wrong_path_uops:.0f} (ungated)",
    )


def _inv_unreachable_reversal_is_gating(engine, profile):
    """three_region with an unreachable strong threshold == gating-only."""
    estimator = EstimatorSpec.of(
        "perceptron", threshold=0, strong_threshold=10**9
    )
    base = _base_job(engine, profile).with_(estimator=estimator)
    reversal = base.with_(policy=THREE_REGION_POLICY)
    gating = base.with_(policy=GATING_POLICY)
    out_r, out_g = engine.run([reversal, gating])
    m_r = canonical_metrics(out_r.result)
    m_g = canonical_metrics(out_g.result)
    ok = m_r == m_g and m_r["reversals"] == 0
    return InvariantResult(
        "unreachable-reversal-equals-gating",
        ok,
        "identical metrics, zero reversals"
        if ok
        else f"metrics diverged or reversals fired: {m_r} vs {m_g}",
    )


def _inv_always_high_policy_inert(engine, profile):
    """Gating policy is inert when nothing is ever low confidence."""
    base = _base_job(engine, profile).with_(estimator=ALWAYS_HIGH)
    out_gated, out_plain = engine.run(
        [base.with_(policy=GATING_POLICY), base.with_(policy=NO_POLICY)]
    )
    same_metrics = canonical_metrics(out_gated.result) == canonical_metrics(
        out_plain.result
    )
    same_events = all(
        a.final_prediction == b.final_prediction
        and a.decision.action is b.decision.action
        for a, b in zip(out_gated.events, out_plain.events)
    )
    ok = same_metrics and same_events and len(out_gated.events) == len(
        out_plain.events
    )
    return InvariantResult(
        "always-high-gating-inert",
        ok,
        "gating over an always-high estimator changed nothing"
        if ok
        else "gating over an always-high estimator altered the stream",
    )


def _inv_smt_single_thread_conserves_uops(engine, profile):
    """One SMT thread fetches exactly the trace's uops, gated or not."""
    job = _base_job(engine, profile, policy=GATING_POLICY)
    events, _ = engine.run([job])[0]
    expected = sum(e.uops_before + 1 for e in events)
    config = STANDARD_20X4.with_gating(1)
    on = SmtSimulator(config, gate_yields=True).simulate(events)
    off = SmtSimulator(config, gate_yields=False).simulate(events)
    checks = (
        on.combined_correct_uops == expected,
        off.combined_correct_uops == expected,
        on.threads[0].branches == off.threads[0].branches == len(events),
        on.threads[0].mispredictions == off.threads[0].mispredictions,
        on.total_cycles >= off.total_cycles,
    )
    ok = all(checks)
    return InvariantResult(
        "smt-single-thread-conserves-uops",
        ok,
        f"correct uops {on.combined_correct_uops}/{off.combined_correct_uops} "
        f"vs trace {expected}; cycles on/off "
        f"{on.total_cycles:.0f}/{off.total_cycles:.0f}",
    )


def _inv_job_order_irrelevant(engine, profile):
    """Permuting a batch leaves every job's metrics unchanged."""
    from repro.engine.engine import Engine
    from repro.verify.matrix import jobs_for_profile

    labelled = jobs_for_profile(profile)[:4]
    jobs = [job for _, job in labelled]
    fwd = Engine(max_workers=1).run(jobs)
    rev = Engine(max_workers=1).run(list(reversed(jobs)))
    ok = all(
        canonical_metrics(f.result) == canonical_metrics(r.result)
        for f, r in zip(fwd, reversed(rev))
    )
    return InvariantResult(
        "job-order-irrelevant",
        ok,
        f"{len(jobs)} jobs, forward == reversed"
        if ok
        else "metrics depend on batch order",
    )


def _inv_warmup_is_a_suffix(engine, profile):
    """Warm-up only trims the stream; it never changes what follows."""
    job = _base_job(engine, profile)
    w = job.warmup
    with_warmup, without = engine.run([job, job.with_(warmup=0)])
    tail = without.events[w:]
    ok = len(with_warmup.events) == len(tail) and all(
        a.pc == b.pc
        and a.taken == b.taken
        and a.prediction == b.prediction
        and a.final_prediction == b.final_prediction
        for a, b in zip(with_warmup.events, tail)
    )
    return InvariantResult(
        "warmup-is-a-suffix",
        ok,
        f"events[{w}:] of the unwarmed run match the warmed run"
        if ok
        else "warm-up changed post-warm-up behaviour",
    )


INVARIANTS: List[Callable] = [
    _inv_oracle_gating_never_hurts,
    _inv_unreachable_reversal_is_gating,
    _inv_always_high_policy_inert,
    _inv_smt_single_thread_conserves_uops,
    _inv_job_order_irrelevant,
    _inv_warmup_is_a_suffix,
]


def run_invariants(engine, profile: VerifyProfile) -> List[InvariantResult]:
    """Run every invariant; collects results instead of failing fast."""
    results = []
    for invariant in INVARIANTS:
        try:
            results.append(invariant(engine, profile))
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            name = invariant.__name__.removeprefix("_inv_").replace("_", "-")
            results.append(
                InvariantResult(
                    name, False, f"raised {type(exc).__name__}: {exc}"
                )
            )
    return results

"""Timing-model golden gate: pinned ``SimStats`` for the U/P results.

The replay golden (:mod:`repro.verify.golden`) pins the front end; this
gate pins the pipeline timing model that turns event streams into the
U/P numbers of Tables 4-6 and Figures 8-9.  For each benchmark of the
quick profile it replays four policies and times each stream on a fixed
set of machines, then diffs every ``SimStats`` field against
``golden/timing_quick.json``:

- policies: ungated (null), perceptron gating (lambda=0), 3-region
  reversal, and a perfect-confidence oracle;
- machines: the three Table 1/2 pipelines at PL1, plus the 40-cycle
  machine at PL2, PL3, estimator latency 9 and in throttle mode;
- SMT: each adjacent benchmark pair co-run on the two-thread
  :class:`~repro.pipeline.smt.SmtSimulator` (40-cycle machine, PL1)
  from the perceptron-gating streams, with and without the gated
  thread yielding its fetch slots.

Simulations take whichever path ``PipelineSimulator.simulate`` takes
(the compiled kernel, or the Python model when the kernel cannot run),
so the gate checks the kernel on every verify run.  A refresh records
the Python model's numbers: it is the oracle.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import asdict, replace
from typing import Dict, List, Tuple

from repro.core.oracle import oracle_events
from repro.core.reversal import GatingOnlyPolicy
from repro.engine.canonical import metrics_digest
from repro.engine.specs import (
    ALWAYS_HIGH,
    GATING_POLICY,
    NO_POLICY,
    THREE_REGION_POLICY,
    EstimatorSpec,
)
from repro.experiments.common import job_for
from repro.pipeline.config import (
    BASELINE_40X4,
    STANDARD_20X4,
    WIDE_20X8,
    PipelineConfig,
)
from repro.pipeline.simulator import PipelineSimulator
from repro.pipeline.smt import SmtSimulator
from repro.verify.golden import GoldenEntry
from repro.verify.matrix import VerifyProfile

__all__ = [
    "TIMING_GOLDEN",
    "TIMING_CONFIGS",
    "TIMING_POLICIES",
    "TIMING_SMT",
    "compute_timing_entries",
]

#: Baseline name: ``golden/timing_quick.json``.
TIMING_GOLDEN = "timing_quick"

TIMING_CONFIGS: Tuple[Tuple[str, PipelineConfig], ...] = (
    ("20c4w", STANDARD_20X4),
    ("20c8w", WIDE_20X8),
    ("40c4w", BASELINE_40X4),
    ("40c4w-pl2", BASELINE_40X4.with_gating(2)),
    ("40c4w-pl3", BASELINE_40X4.with_gating(3)),
    ("40c4w-lat9", BASELINE_40X4.with_gating(1, estimator_latency=9)),
    ("40c4w-throttle", replace(BASELINE_40X4, gating_mode="throttle")),
)

#: Replayed policies: (label, estimator, policy spec).  The oracle
#: stream is derived from the null stream.
_REPLAYED = (
    ("null", ALWAYS_HIGH, NO_POLICY),
    ("gate", EstimatorSpec.of("perceptron", threshold=0), GATING_POLICY),
    (
        "3-region",
        EstimatorSpec.of("perceptron", threshold=-75, strong_threshold=0),
        THREE_REGION_POLICY,
    ),
)
TIMING_POLICIES = tuple(label for label, _, _ in _REPLAYED) + ("oracle",)

#: SMT cases: (label, gate_yields), timed on ``_SMT_CONFIG`` over the
#: ``"gate"`` streams of each adjacent benchmark pair.
TIMING_SMT: Tuple[Tuple[str, bool], ...] = (("smt-base", False), ("smt-yield", True))
_SMT_CONFIG = BASELINE_40X4.with_gating(1)


def _entry(label: str, identity: str, metrics: dict) -> GoldenEntry:
    return GoldenEntry(
        label=label,
        fingerprint=hashlib.sha256(identity.encode("utf-8")).hexdigest(),
        digest=metrics_digest(metrics),
        metrics=metrics,
    )


def _smt_metrics(stats) -> dict:
    """Flat ``SmtStats``: machine totals plus ``t<i>.<field>`` per thread."""
    metrics = {
        "idle_fetch_cycles": stats.idle_fetch_cycles,
        "total_cycles": stats.total_cycles,
    }
    for i, thread in enumerate(stats.threads):
        for name, value in asdict(thread).items():
            metrics[f"t{i}.{name}"] = value
    return metrics


def compute_timing_entries(
    profile: VerifyProfile,
    engine,
    backend: str = "reference",
    reference: bool = False,
) -> Tuple[List[GoldenEntry], Dict[str, int]]:
    """Time the matrix; returns the entries and the count per timing path.

    ``backend`` picks the replay backend; entry identity stays pinned to
    the reference job fingerprints, as in the replay golden.
    ``reference=True`` times on the Python model alone (for refreshes).
    """
    settings = profile.settings()
    labelled = [
        (label, benchmark, job_for(settings, benchmark, estimator, policy=policy))
        for benchmark in profile.benchmarks
        for label, estimator, policy in _REPLAYED
    ]
    outcomes = engine.run([job.with_(backend=backend) for _, _, job in labelled])
    streams = {}
    for (label, benchmark, job), outcome in zip(labelled, outcomes):
        streams[label, benchmark] = (job.fingerprint, outcome.events)
        if label == "null":
            streams["oracle", benchmark] = (
                job.fingerprint + "|oracle",
                oracle_events(outcome.events, GatingOnlyPolicy()),
            )
    entries: List[GoldenEntry] = []
    paths: Counter = Counter()
    for benchmark in profile.benchmarks:
        for policy in TIMING_POLICIES:
            source, events = streams[policy, benchmark]
            for name, config in TIMING_CONFIGS:
                simulator = PipelineSimulator(config)
                if reference:
                    stats = simulator.simulate_reference(events)
                else:
                    stats = simulator.simulate(events)
                paths[simulator.path] += 1
                entries.append(
                    _entry(
                        f"{policy}/{name}/{benchmark}",
                        f"{source}|{config!r}",
                        asdict(stats),
                    )
                )
    for a, b in zip(profile.benchmarks, profile.benchmarks[1:]):
        (source_a, events_a), (source_b, events_b) = (
            streams["gate", a], streams["gate", b]
        )
        for label, gate_yields in TIMING_SMT:
            stats = SmtSimulator(_SMT_CONFIG, gate_yields=gate_yields).simulate(
                events_a, events_b
            )
            entries.append(
                _entry(
                    f"{label}/40c4w/{a}+{b}",
                    f"{source_a}+{source_b}|smt|{gate_yields}|{_SMT_CONFIG!r}",
                    _smt_metrics(stats),
                )
            )
    return entries, dict(paths)

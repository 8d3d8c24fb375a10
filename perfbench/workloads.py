"""The benchmark's workloads: sizing, job plans and timed phases.

Every workload runs the fast backend, serially, at one tenth of the
experiment runner's ``--quick`` scale: 3,000 branches per trace with a
1,000-branch warm-up, so each job leaves 2,000 post-warm-up events where
``--quick`` leaves 20,000.  The in-memory replay LRU is scaled by the
same factor (200,000 events instead of the engine's 2,000,000 default),
which keeps each workload's working set in the same relation to the LRU
as at quick scale:

- ``paper-serial``: 95 unique jobs x 2,000 events = 190,000 events, just
  under the budget, so nothing is evicted and no disk tier exists;
- ``replay-cold`` / ``replay-warm``: 144 unique jobs x 2,000 events =
  288,000 events, above the budget, so experiments re-read evicted
  outcomes from the disk cache.

``tests/test_perfbench.py`` pins both relations.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine import configure_engine, get_engine
from repro.engine.cache import DEFAULT_EVENT_BUDGET
from repro.experiments.common import ExperimentSettings
from repro.experiments.runner import EXPERIMENT_JOBS, PAPER_EXPERIMENTS

#: Trace length and warm-up of every job (one tenth of ``--quick``).
N_BRANCHES = 3_000
WARMUP = 1_000

#: Post-warm-up events per job at ``--quick`` scale (30,000 - 10,000).
QUICK_EVENTS_PER_JOB = 20_000

#: The memory LRU budget, scaled from the engine default like the jobs.
EVENT_BUDGET = DEFAULT_EVENT_BUDGET * (N_BRANCHES - WARMUP) // QUICK_EVENTS_PER_JOB

#: ``--seed n`` is root seed ``SEED_BASE + n``.  ``seed_stability`` runs
#: its own fixed seeds (1, 2, 3, 5 and 8); a root seed among them would
#: share that seed's jobs and shrink the plan by 8 jobs, so the work of
#: a run would depend on the seed.  Past the offset every seed plans the
#: same number of jobs.
SEED_BASE = 1_000

#: How many jobs the reference-backend output check re-runs.
SAMPLE_SIZE = 4


@dataclass(frozen=True)
class Workload:
    """One named workload: what it runs and which cache tiers it has.

    Why each workload exists is recorded in ``README.md``.
    """

    name: str
    experiments: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    #: ``"runner"`` runs ``run_all``; ``"sweep"`` runs ``run_sweep`` plus
    #: ``render_from_store`` against a sqlite result store.
    path: str
    #: Timed against a disk cache filled by a cold pass during set-up.
    warm: bool = False


_REPLAY_EXPERIMENTS = (
    "table3",
    "ablation_indexing",
    "ablation_combined",
    "h2p_confidence",
    "seed_stability",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-serial",
            experiments=tuple(PAPER_EXPERIMENTS),
            benchmarks=("gzip", "gcc", "mcf"),
            path="runner",
        ),
        Workload(
            name="replay-cold",
            experiments=_REPLAY_EXPERIMENTS,
            benchmarks=("gzip", "gcc", "mcf", "twolf"),
            path="sweep",
        ),
        Workload(
            name="replay-warm",
            experiments=_REPLAY_EXPERIMENTS,
            benchmarks=("gzip", "gcc", "mcf", "twolf"),
            path="sweep",
            warm=True,
        ),
    )
}


def settings(workload: Workload, seed: int) -> ExperimentSettings:
    """The experiment sizing for one workload and ``--seed``."""
    return ExperimentSettings(
        n_branches=N_BRANCHES,
        warmup=WARMUP,
        seed=SEED_BASE + seed,
        benchmarks=workload.benchmarks,
        backend="fast",
    )


def planned_jobs(workload: Workload, seed: int) -> list:
    """The workload's unique jobs, in first-submission order."""
    base = settings(workload, seed)
    unique = {}
    for experiment in workload.experiments:
        for job in EXPERIMENT_JOBS[experiment](base):
            unique.setdefault(job.fingerprint, job)
    return list(unique.values())


def sample_jobs(jobs: list) -> list:
    """A fixed, evenly spaced sample of the plan for the reference check."""
    step = max(1, len(jobs) // SAMPLE_SIZE)
    return jobs[::step][:SAMPLE_SIZE]


def _sweep_spec(workload: Workload):
    from repro.sweeps import SweepInstance, SweepSpec

    # One name for the cold and warm workloads: their reports must be
    # byte-identical, so they share recorded digests.
    return SweepSpec(
        name="perfbench-replay",
        description="benchmark replay sweep",
        experiments=workload.experiments,
        instances=(SweepInstance(name="base"),),
    )


class Phase:
    """One timed phase: set-up in the constructor, the work in :meth:`run`.

    Set-up creates a fresh default engine (and, for sweep workloads, a
    fresh result store); :meth:`run` is exactly what a user waits for and
    returns the rendered report text.
    """

    def __init__(self, workload: Workload, seed: int, work_dir: str, cache_dir: Optional[str]):
        self.workload = workload
        self.settings = settings(workload, seed)
        self.engine = configure_engine(
            reset=True,
            event_budget=EVENT_BUDGET,
            cache_dir=cache_dir if workload.path == "sweep" else None,
        )
        self.store = None
        if workload.path == "sweep":
            from repro.results import ResultStore

            os.makedirs(work_dir, exist_ok=True)
            self.store = ResultStore(os.path.join(work_dir, "results.sqlite"))

    def run(self) -> str:
        if self.workload.path == "runner":
            from repro.analysis import report as report_mod
            from repro.experiments.runner import run_all

            report = run_all(
                self.settings,
                names=list(self.workload.experiments),
                stream=io.StringIO(),
            )
            return report_mod.render_report(report, title=self.workload.name)
        from repro import sweeps

        spec = _sweep_spec(self.workload)
        sweeps.run_sweep(spec, self.store, self.settings)
        return sweeps.render_from_store(spec, self.store, self.settings)

    def phase_digest(self, job) -> str:
        """The metrics digest the timed phase produced for ``job``."""
        if self.store is not None:
            return self.store.get_job(job.fingerprint).digest
        # No eviction happens on the runner path (see the module
        # docstring), so this is a memory hit on the phase's outcome.
        return get_engine().run([job])[0].metrics_digest()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def reference_check(phase: Phase, jobs: list) -> List[dict]:
    """Re-run ``jobs`` on the reference backend and compare digests."""
    from dataclasses import replace

    from repro.engine import Engine

    results = []
    for job in jobs:
        expected = phase.phase_digest(job)
        outcome = Engine(event_budget=EVENT_BUDGET).run(
            [replace(job, backend="reference")]
        )[0]
        results.append(
            {
                "job": f"{job.benchmark}/{job.fingerprint[:12]}",
                "ok": outcome.metrics_digest() == expected,
            }
        )
    return results

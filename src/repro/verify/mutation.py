"""Mutation smoke tests: prove the gate can actually fail.

A regression gate that never fires is indistinguishable from one that
works.  Each named mutation perturbs one algorithmic constant in the
production code, or the input of one layer (in process, reversibly), so
the verification layers can be run against a deliberately-wrong build;
CI asserts the gate named in :data:`MUTATION_GATES` reports a drift
naming the affected configuration.

Mutations monkey-patch live objects, so the mutated run must execute
in-process (``--jobs 1``): worker processes re-import the pristine
modules and would silently un-mutate the code.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator

__all__ = ["MUTATIONS", "MUTATION_GATES", "apply_mutation"]


@contextlib.contextmanager
def _mutate_perceptron_update() -> Iterator[None]:
    """Double the perceptron bias update step.

    Equivalent to training the bias weight with a learning constant of
    2 instead of 1 -- a one-token bug in the weight-update rule.  Every
    perceptron-based case in the matrix (estimator and predictor alike)
    must drift.
    """
    from repro.common.perceptron import PerceptronArray

    original = PerceptronArray.train

    def doubled(self, pc, inputs, target):
        original(self, pc, inputs, target)
        row = self._weights[self.index(pc)]
        row[0] = min(max(int(row[0]) + target, self._w_min), self._w_max)

    PerceptronArray.train = doubled
    try:
        yield
    finally:
        PerceptronArray.train = original


@contextlib.contextmanager
def _mutate_jrs_reset() -> Iterator[None]:
    """Make JRS counters saturate down instead of resetting to zero."""
    from repro.core.jrs import JRSEstimator

    original = JRSEstimator.train

    def saturating(self, pc, prediction, correct, signal):
        if correct:
            original(self, pc, prediction, correct, signal)
        else:
            index = self._index(pc, prediction)
            value = self._table.read(index)
            if value > 0:
                self._table.write(index, value - 1)

    JRSEstimator.train = saturating
    try:
        yield
    finally:
        JRSEstimator.train = original


@contextlib.contextmanager
def _mutate_tage_useful() -> Iterator[None]:
    """Decay TAGE useful counters on every tag hit.

    Drops the increment arm of the useful-update rule -- counters can
    only fall, so no tagged entry is ever protected and every
    mispredict's allocation overwrites a live slot.  A one-line
    polarity bug in the update rule; the ``tage-perceptron-cic`` case
    must drift.
    """
    from repro.predictors.tage import TagePredictor

    original = TagePredictor.train

    def never_useful(self, pc, taken, prediction):
        matches = self._matches(pc)
        original(self, pc, taken, prediction)
        for table, slot in matches:
            self._useful[table].update(slot, False)

    TagePredictor.train = never_useful
    try:
        yield
    finally:
        TagePredictor.train = original


@contextlib.contextmanager
def _mutate_timing_events() -> Iterator[None]:
    """Add one uop before every 64th branch the timing models see.

    Perturbs the event streams at the entries of both timing models
    (``PipelineSimulator`` and ``SmtSimulator``), not the models' code,
    so the compiled kernel and the Python fallback see the same wrong
    input: the timing gate must drift on either path, while the replay
    golden (which never times anything) stays clean.
    """
    from dataclasses import replace

    from repro.pipeline.simulator import PipelineSimulator
    from repro.pipeline.smt import SmtSimulator

    def perturb(events):
        return [
            replace(e, uops_before=e.uops_before + 1) if i % 64 == 0 else e
            for i, e in enumerate(events)
        ]

    simulate, smt_simulate = PipelineSimulator.simulate, SmtSimulator.simulate

    def perturbed(self, events, stats=None):
        return simulate(self, perturb(events), stats)

    def smt_perturbed(self, events_a, events_b=None, max_cycles=None):
        if events_b is not None:
            events_b = perturb(events_b)
        return smt_simulate(self, perturb(events_a), events_b, max_cycles)

    PipelineSimulator.simulate = perturbed
    SmtSimulator.simulate = smt_perturbed
    try:
        yield
    finally:
        PipelineSimulator.simulate = simulate
        SmtSimulator.simulate = smt_simulate


MUTATIONS: Dict[str, contextlib.AbstractContextManager] = {
    "perceptron-update": _mutate_perceptron_update,
    "jrs-reset": _mutate_jrs_reset,
    "tage-useful": _mutate_tage_useful,
    "timing-events": _mutate_timing_events,
}

#: The verify layer each mutation must trip: ``golden`` (replay metrics)
#: or ``timing`` (SimStats).
MUTATION_GATES: Dict[str, str] = {
    "perceptron-update": "golden",
    "jrs-reset": "golden",
    "tage-useful": "golden",
    "timing-events": "timing",
}


def apply_mutation(name: str):
    """Context manager activating one named mutation."""
    try:
        return MUTATIONS[name]()
    except KeyError:
        raise KeyError(
            f"unknown mutation {name!r}; available: {sorted(MUTATIONS)}"
        ) from None

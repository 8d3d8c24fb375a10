"""Oracle confidence: the upper bound for speculation control.

A real estimator must infer confidence from history; the *oracle* knows
each branch's outcome and classifies it perfectly (optionally degraded
to a target coverage/accuracy, to ask "how good would an estimator with
Spec=X, PVN=Y be?").  The paper does not evaluate an oracle, but it is
the natural calibration point for Table 4: it separates what the
estimator loses from what the gating *mechanism* itself can ever
achieve on a given pipeline.

Oracles operate on replayed event streams rather than inside the
front-end (they need the outcome at estimate time, which no hardware
estimator has).
"""

from __future__ import annotations

from array import array
from typing import Sequence, Union

import numpy as np

from repro.core.events import ACTIONS, EventColumns
from repro.core.frontend import FrontEndEvent
from repro.core.reversal import SpeculationPolicy
from repro.core.types import ConfidenceSignal

__all__ = ["oracle_events"]

#: The oracle's signal per level code: mispredicted flags are "strong"
#: (the oracle is sure), giving reversal policies their upper bound too.
_SIGNALS = (
    ConfidenceSignal.high(-float("inf")),
    ConfidenceSignal.weak_low(1.0),
    ConfidenceSignal.strong_low(float("inf")),
)


def oracle_events(
    events: Union[EventColumns, Sequence[FrontEndEvent]],
    policy: SpeculationPolicy,
    coverage: float = 1.0,
    accuracy: float = 1.0,
    seed: int = 0,
) -> EventColumns:
    """Re-derive signals and decisions with oracle confidence.

    Args:
        events: A replayed event stream (signals are replaced).
        policy: Speculation policy applied to the oracle signals; it is
            asked once per distinct (signal, prediction) pair.
        coverage: Probability a mispredicted branch is flagged low
            confidence (the oracle's Spec).
        accuracy: Target PVN of the flag stream: false flags are
            injected on correct branches until low-confidence flags are
            right with roughly this probability (1.0 = no false flags).
        seed: Seed for the degradation draws.

    Returns a new stream sharing the input's pc/direction/uops columns;
    the input is untouched.
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError(f"coverage must be in [0, 1], got {coverage}")
    if not 0.0 < accuracy <= 1.0:
        raise ValueError(f"accuracy must be in (0, 1], got {accuracy}")
    if not isinstance(events, EventColumns):
        events = EventColumns.from_events(events)
    rng = np.random.default_rng(seed)
    prediction = np.frombuffer(events.prediction, dtype=np.uint8)
    mispredicted = np.frombuffer(events.taken, dtype=np.uint8) != prediction

    # False-flag probability on correct branches solving for the target
    # PVN given the stream's misprediction rate and coverage.
    n_mispredicted = int(np.count_nonzero(mispredicted))
    correct = len(events) - n_mispredicted
    false_flag_p = 0.0
    if accuracy < 1.0 and correct > 0:
        true_flags = coverage * n_mispredicted
        want_false = true_flags * (1.0 - accuracy) / accuracy
        false_flag_p = min(1.0, want_false / correct)

    # One uniform draw per branch that needs one, in stream order:
    # mispredicted branches when coverage < 1, correct ones when false
    # flags are injected.
    draws = np.where(mispredicted, coverage < 1.0, false_flag_p > 0.0)
    u = np.ones(len(events))
    u[draws] = rng.random(int(np.count_nonzero(draws)))
    low = np.where(mispredicted, (coverage >= 1.0) | (u < coverage), u < false_flag_p)
    level = np.where(low, np.where(mispredicted, 2, 1), 0).astype(np.int8)

    # Decide each (level, prediction) pair once; index the outcome tables.
    decisions = [
        policy.decide(signal, prediction)
        for signal in _SIGNALS
        for prediction in (False, True)
    ]
    pair = level.astype(np.intp) * 2 + prediction
    action = np.array([ACTIONS.index(d.action) for d in decisions], dtype=np.int8)
    final = np.array([d.final_prediction for d in decisions], dtype=np.uint8)
    raw = np.array([signal.raw for signal in _SIGNALS])
    return EventColumns(
        pc=events.pc,
        taken=events.taken,
        prediction=events.prediction,
        final_prediction=final[pair].tobytes(),
        level=array("b", level.tobytes()),
        raw=array("d", raw[level].tobytes()),
        action=array("b", action[pair].tobytes()),
        uops_before=events.uops_before,
    )

"""``EventColumns``: the columnar event stream and its lazy object view.

Every layer hands event streams around as :class:`EventColumns`; the
``FrontEndEvent`` objects the Python models read are built on demand.
These tests pin that the view returns exactly the values (and Python
types) that went in, that both replay backends produce equal columns,
and that the columnar consumers (``profile_events``, ``oracle_events``)
agree with reading the same stream object by object.
"""

import math
import pickle
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.branches import _summarise, profile_events
from repro.core.events import EventColumns
from repro.core.frontend import FrontEndEvent
from repro.core.oracle import oracle_events
from repro.core.reversal import (
    BranchAction,
    GatingOnlyPolicy,
    NoSpeculationControl,
    PolicyDecision,
    ThreeRegionPolicy,
)
from repro.core.types import ConfidenceSignal
from repro.engine import Engine
from repro.engine.specs import (
    ALWAYS_HIGH,
    GATING_POLICY,
    THREE_REGION_POLICY,
    EstimatorSpec,
)
from repro.experiments.common import ExperimentSettings, job_for

_SIGNALS = (ConfidenceSignal.high, ConfidenceSignal.weak_low, ConfidenceSignal.strong_low)
_ACTION_OF_LEVEL = (BranchAction.NORMAL, BranchAction.GATE, BranchAction.REVERSE)


def make_event(pc=0x40, taken=True, prediction=True, level=0, raw=0.0,
               action=None, uops_before=3):
    action = _ACTION_OF_LEVEL[level] if action is None else action
    final = (not prediction) if action is BranchAction.REVERSE else prediction
    return FrontEndEvent(
        pc=pc,
        taken=taken,
        prediction=prediction,
        final_prediction=final,
        signal=_SIGNALS[level](raw),
        decision=PolicyDecision(action, final),
        uops_before=uops_before,
    )


def exact(events):
    """Every field of every event by type and repr (0.0 != -0.0 here)."""
    return [
        (
            type(e).__name__,
            repr(e.pc), repr(e.taken), repr(e.prediction), repr(e.final_prediction),
            repr(e.signal), type(e.signal.raw).__name__, repr(e.decision),
            repr(e.uops_before),
        )
        for e in events
    ]


# ---------------------------------------------------------------------------
# The view
# ---------------------------------------------------------------------------

_raws = st.one_of(
    st.lists(st.integers(-(2**40), 2**40), min_size=1),
    st.lists(st.floats(allow_nan=False), min_size=1),
)


@st.composite
def _streams(draw):
    raws = draw(_raws)
    return [
        make_event(
            pc=draw(st.one_of(st.integers(0, 2**40), st.integers(2**63, 2**64 - 1))),
            taken=draw(st.booleans()),
            prediction=draw(st.booleans()),
            level=draw(st.integers(0, 2)),
            raw=raw,
            uops_before=draw(st.integers(0, 30)),
        )
        for raw in raws
    ]


class TestView:
    @settings(max_examples=60, deadline=None)
    @given(events=_streams())
    def test_from_events_round_trips_exactly(self, events):
        columns = EventColumns.from_events(events)
        assert len(columns) == len(events)
        assert exact(columns) == exact(events)
        assert exact(columns[i] for i in range(-len(events), 0)) == exact(events)
        assert columns == events
        assert isinstance(columns.pc, array) and columns.pc.typecode == "Q"
        assert columns.raw.typecode == ("q" if type(events[0].signal.raw) is int else "d")

    def test_signals_and_decisions_are_interned(self):
        columns = EventColumns.from_events(
            [make_event(raw=5), make_event(raw=5), make_event(level=1, raw=5)]
        )
        a, b, c = columns
        assert a.signal is b.signal
        assert a.decision is b.decision
        assert a.signal is not c.signal
        assert columns[0].signal is a.signal

    def test_negative_zero_and_infinities_keep_their_values(self):
        raws = [0.0, -0.0, float("inf"), -float("inf"), 0.0]
        view = list(EventColumns.from_events([make_event(raw=r) for r in raws]))
        assert [math.copysign(1.0, e.signal.raw) for e in view] == [1, -1, 1, -1, 1]
        assert [e.signal.raw for e in view] == raws

    def test_values_outside_the_buffers_keep_list_columns(self):
        events = [
            make_event(pc=2**64 + 5, raw=1, uops_before=2**40),
            make_event(pc=-3, raw=2.5, uops_before=0),
            make_event(pc=7, raw=True, uops_before=1),
        ]
        columns = EventColumns.from_events(events)
        assert isinstance(columns.pc, list)
        assert isinstance(columns.raw, list)
        assert isinstance(columns.uops_before, list)
        assert exact(columns) == exact(events)

    def test_ints_beyond_int64_stay_exact(self):
        events = [make_event(raw=2**70 + 1), make_event(raw=3)]
        columns = EventColumns.from_events(events)
        assert isinstance(columns.raw, list)
        assert columns[0].signal.raw == 2**70 + 1

    def test_slices_are_columns(self):
        events = [make_event(pc=i, raw=i, level=i % 3) for i in range(10)]
        columns = EventColumns.from_events(events)
        tail = columns[3:8:2]
        assert isinstance(tail, EventColumns)
        assert exact(tail) == exact(events[3:8:2])
        assert tail == EventColumns.from_events(events[3:8:2])

    def test_index_errors(self):
        columns = EventColumns.from_events([make_event()])
        with pytest.raises(IndexError):
            columns[1]
        with pytest.raises(IndexError):
            columns[-2]

    def test_equality_across_encodings(self):
        ints = EventColumns.from_events([make_event(raw=1)])
        floats = EventColumns.from_events([make_event(raw=1.0)])
        assert ints == floats  # 1 == 1.0, as for the objects
        assert ints != EventColumns.from_events([make_event(raw=2)])
        assert ints != EventColumns.from_events([make_event(raw=1)] * 2)

    def test_pickles_for_worker_processes(self):
        columns = EventColumns.from_events([make_event(raw=i) for i in range(5)])
        assert exact(pickle.loads(pickle.dumps(columns))) == exact(columns)

    def test_length_mismatch_rejected(self):
        columns = EventColumns.from_events([make_event(), make_event()])
        parts = list(columns.columns())
        parts[5] = parts[5][:1]
        with pytest.raises(ValueError, match="differ in length"):
            EventColumns(*parts)

    @pytest.mark.parametrize(
        "event",
        [
            replace(make_event(), taken=1),
            replace(make_event(), final_prediction=False),
            replace(make_event(), decision=PolicyDecision(BranchAction.NORMAL, False)),
        ],
    )
    def test_unrepresentable_events_rejected(self, event):
        with pytest.raises(TypeError):
            EventColumns.from_events([event])

    def test_subclasses_rejected(self):
        class Event(FrontEndEvent):
            pass

        with pytest.raises(TypeError):
            EventColumns.from_events([Event(**vars(make_event()))])


# ---------------------------------------------------------------------------
# Replay backends and columnar consumers
# ---------------------------------------------------------------------------

_SETTINGS = ExperimentSettings(n_branches=3_000, warmup=1_000, seed=3)
_JOBS = {
    "null": job_for(_SETTINGS, "gcc", ALWAYS_HIGH),
    "gate": job_for(_SETTINGS, "gzip", EstimatorSpec.of("perceptron", threshold=0),
                    policy=GATING_POLICY),
    "3-region": job_for(
        _SETTINGS, "mcf",
        EstimatorSpec.of("perceptron", threshold=-75, strong_threshold=0),
        policy=THREE_REGION_POLICY,
    ),
    "jrs": job_for(_SETTINGS, "twolf", EstimatorSpec.of("jrs"), policy=GATING_POLICY),
}


@pytest.fixture(scope="module", params=["reference", "fast"])
def streams(request):
    jobs = [job.with_(backend=request.param) for job in _JOBS.values()]
    outcomes = Engine().run(jobs)
    return {name: outcome.events for name, outcome in zip(_JOBS, outcomes)}


def test_backends_build_identical_columns():
    for job in _JOBS.values():
        fast, = Engine().run([job.with_(backend="fast")])
        reference, = Engine().run([job])
        assert fast.backend == "fast"
        assert fast.events.columns() == reference.events.columns()
        assert [
            getattr(c, "typecode", type(c).__name__) for c in fast.events.columns()
        ] == [
            getattr(c, "typecode", type(c).__name__) for c in reference.events.columns()
        ]
        assert exact(fast.events) == exact(reference.events)


def _profile_by_objects(events):
    """The per-event loop the columnar ``profile_events`` replaced."""
    counts = {}
    for event in events:
        stats = counts.setdefault(event.pc, [0, 0, 0])
        stats[0] += 1
        if event.taken:
            stats[1] += 1
        if not event.predictor_correct:
            stats[2] += 1
    return _summarise(counts, with_mispredicts=True)


@pytest.mark.parametrize("name", sorted(_JOBS))
def test_profile_events_columns_match_objects(streams, name):
    columns = streams[name]
    assert isinstance(columns, EventColumns)
    expected = _profile_by_objects(columns)
    assert profile_events(columns) == expected
    # Object input takes the same path after one conversion.
    assert profile_events(iter(list(columns))) == expected


def _oracle_by_objects(events, policy, coverage=1.0, accuracy=1.0, seed=0):
    """The per-event oracle loop the columnar ``oracle_events`` replaced."""
    rng = np.random.default_rng(seed)
    total = len(events)
    mispredicted = sum(1 for e in events if not e.predictor_correct)
    correct = total - mispredicted
    false_flag_p = 0.0
    if accuracy < 1.0 and correct > 0:
        true_flags = coverage * mispredicted
        want_false = true_flags * (1.0 - accuracy) / accuracy
        false_flag_p = min(1.0, want_false / correct)
    out = []
    for event in events:
        if not event.predictor_correct:
            low = coverage >= 1.0 or rng.random() < coverage
        else:
            low = false_flag_p > 0.0 and rng.random() < false_flag_p
        if low and not event.predictor_correct:
            signal = ConfidenceSignal.strong_low(float("inf"))
        elif low:
            signal = ConfidenceSignal.weak_low(1.0)
        else:
            signal = ConfidenceSignal.high(-float("inf"))
        decision = policy.decide(signal, event.prediction)
        out.append(replace(event, signal=signal, decision=decision,
                           final_prediction=decision.final_prediction))
    return out


@pytest.mark.parametrize("name", sorted(_JOBS))
@pytest.mark.parametrize("policy", [GatingOnlyPolicy(), ThreeRegionPolicy(),
                                    NoSpeculationControl()])
@pytest.mark.parametrize("coverage,accuracy,seed",
                         [(1.0, 1.0, 0), (0.5, 1.0, 3), (1.0, 0.5, 4), (0.7, 0.6, 9)])
def test_oracle_events_columns_match_objects(streams, name, policy, coverage,
                                             accuracy, seed):
    columns = streams[name]
    expected = _oracle_by_objects(list(columns), policy, coverage, accuracy, seed)
    oracled = oracle_events(columns, policy, coverage, accuracy, seed)
    assert isinstance(oracled, EventColumns)
    assert exact(oracled) == exact(expected)
    # Object input takes the same path after one conversion.
    assert oracle_events(list(columns), policy, coverage, accuracy, seed) == oracled

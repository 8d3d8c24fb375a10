"""Columnar event streams: the one representation of a replay's events.

A replay produces, per post-warm-up dynamic branch, the handful of
values every consumer needs: pc, direction, prediction, the policy's
followed direction, the confidence level and raw output, the policy
action and the uops before the branch.  :class:`EventColumns` holds
them as parallel ``array``/``bytes`` buffers, so the fast replay
driver builds a stream straight from its pass arrays, the disk cache
writes and reads the buffers as raw bytes, and the timing kernel takes
their addresses -- no stage walks a per-branch Python object.

Indexing an :class:`EventColumns` with an int returns a
:class:`~repro.core.frontend.FrontEndEvent` built on demand (with
interned signal and decision objects), and iterating yields one per
branch: that lazy view is what the Python models (the timing oracle,
the SMT model) and the verify layers read.  Slicing returns a new
:class:`EventColumns`.

Column types:

- ``pc``: ``array('Q')``;
- ``taken``, ``prediction``, ``final_prediction``: ``bytes`` of 0/1;
- ``level``: ``array('b')`` of :data:`LEVELS` codes;
- ``raw``: ``array('q')`` when every raw output is an ``int``,
  ``array('d')`` when every one is a ``float``;
- ``action``: ``array('b')`` of :data:`ACTIONS` codes;
- ``uops_before``: ``array('i')``.

Values those types cannot hold (pcs outside ``[0, 2**64)``, uops
outside int32, raw outputs of mixed or other types) keep a plain
``list`` column, so the view still returns exactly the values that were
converted.  Only the standard library is used.
"""

from __future__ import annotations

import math
from array import array
from operator import attrgetter, is_
from typing import Iterable, Iterator, Tuple, Union

from repro.core.frontend import FrontEndEvent
from repro.core.reversal import BranchAction, PolicyDecision
from repro.core.types import ConfidenceLevel, ConfidenceSignal

__all__ = ["ACTIONS", "COLUMNS", "LEVELS", "EventColumns", "pack_ints", "pack_raw"]

#: Column names, in constructor order.
COLUMNS = (
    "pc",
    "taken",
    "prediction",
    "final_prediction",
    "level",
    "raw",
    "action",
    "uops_before",
)
_FLAGS = ("taken", "prediction", "final_prediction")

#: Code -> level / action, as stored in the ``level`` / ``action`` columns.
LEVELS = (ConfidenceLevel.HIGH, ConfidenceLevel.WEAK_LOW, ConfidenceLevel.STRONG_LOW)
ACTIONS = (BranchAction.NORMAL, BranchAction.GATE, BranchAction.REVERSE)
_LEVEL_CODE = {level: code for code, level in enumerate(LEVELS)}
_ACTION_CODE = {action: code for code, action in enumerate(ACTIONS)}
_SIGNAL_CTORS = (ConfidenceSignal.high, ConfidenceSignal.weak_low, ConfidenceSignal.strong_low)
#: Interned decisions by (action code, final prediction).
_DECISIONS = {
    (code, final): PolicyDecision(action, final)
    for code, action in enumerate(ACTIONS)
    for final in (False, True)
}
_BOOL = (False, True)
#: ``bytes.translate`` tables turning action codes into 0/1 flags.
_FLAG_TABLES = {
    action: bytes(int(i == code) for i in range(256))
    for code, action in enumerate(ACTIONS)
}

Column = Union[array, bytes, list]


def pack_ints(values: list, typecode: str) -> Column:
    """``array(typecode, values)`` when every value is an ``int`` that fits."""
    if {*map(type, values)} <= {int}:
        try:
            return array(typecode, values)
        except OverflowError:
            pass
    return values


def pack_raw(values: list) -> Column:
    """The ``raw`` column for a list of raw estimator outputs."""
    kinds = {*map(type, values)}
    if kinds <= {float}:
        return array("d", values)
    return pack_ints(values, "q") if kinds == {int} else values


def _signal_key(level: int, raw) -> tuple:
    # 0.0 == -0.0 (same hash): keep them apart so the view returns the
    # stored sign.  NaN never equals itself and simply misses.
    if raw == 0 and type(raw) is float:
        return level, float, raw, math.copysign(1.0, raw)
    return level, type(raw), raw


class EventColumns:
    """A replay's post-warm-up event stream as parallel columns.

    Construct from pass arrays with the eight columns of :data:`COLUMNS`
    (lengths are checked), or from event objects with
    :meth:`from_events`.  Treat the columns as read-only: memory cache
    hits share one instance between outcomes.
    """

    __slots__ = COLUMNS + ("_signals",)

    def __init__(self, pc, taken, prediction, final_prediction, level, raw,
                 action, uops_before):
        columns = (pc, taken, prediction, final_prediction, level, raw, action,
                   uops_before)
        n = len(pc)
        if any(len(column) != n for column in columns):
            raise ValueError(
                "event columns differ in length: "
                + ", ".join(f"{name}={len(c)}" for name, c in zip(COLUMNS, columns))
            )
        for name, column in zip(COLUMNS, columns):
            setattr(self, name, column)
        self._signals = {}

    @classmethod
    def from_events(cls, events: Iterable[FrontEndEvent]) -> "EventColumns":
        """Columns of a sequence of plain ``FrontEndEvent`` objects.

        Raises ``TypeError`` for events the columns cannot represent:
        subclasses of the event, signal or decision types, non-bool
        directions, or a decision whose followed direction differs from
        the event's.
        """
        events = list(events)
        signals = list(map(attrgetter("signal"), events))
        decisions = list(map(attrgetter("decision"), events))
        if (
            not {*map(type, events)} <= {FrontEndEvent}
            or not {*map(type, signals)} <= {ConfidenceSignal}
            or not {*map(type, decisions)} <= {PolicyDecision}
        ):
            raise TypeError("events are not plain FrontEndEvent objects")
        flags = {name: list(map(attrgetter(name), events)) for name in _FLAGS}
        if not {*map(type, (f for column in flags.values() for f in column))} <= {bool}:
            raise TypeError("event directions are not bools")
        if not all(map(is_, map(attrgetter("final_prediction"), decisions),
                       flags["final_prediction"])):
            raise TypeError("a decision disagrees with its event's final_prediction")
        return cls(
            pc=pack_ints(list(map(attrgetter("pc"), events)), "Q"),
            taken=bytes(flags["taken"]),
            prediction=bytes(flags["prediction"]),
            final_prediction=bytes(flags["final_prediction"]),
            level=array("b", map(_LEVEL_CODE.__getitem__,
                                 map(attrgetter("level"), signals))),
            raw=pack_raw(list(map(attrgetter("raw"), signals))),
            action=array("b", map(_ACTION_CODE.__getitem__,
                                  map(attrgetter("action"), decisions))),
            uops_before=pack_ints(list(map(attrgetter("uops_before"), events)), "i"),
        )

    # -- sequence protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def columns(self) -> Tuple[Column, ...]:
        """The eight columns, in :data:`COLUMNS` order."""
        return tuple(getattr(self, name) for name in COLUMNS)

    def _event(self, i: int) -> FrontEndEvent:
        level = self.level[i]
        raw = self.raw[i]
        key = _signal_key(level, raw)
        signal = self._signals.get(key)
        if signal is None:
            signal = self._signals[key] = _SIGNAL_CTORS[level](raw)
        final = _BOOL[self.final_prediction[i]]
        # Frozen dataclass: fill the instance dict directly, as the
        # dataclass __init__ would, without its per-field setattr cost.
        event = object.__new__(FrontEndEvent)
        event.__dict__.update(
            pc=self.pc[i],
            taken=_BOOL[self.taken[i]],
            prediction=_BOOL[self.prediction[i]],
            final_prediction=final,
            signal=signal,
            decision=_DECISIONS[self.action[i], final],
            uops_before=self.uops_before[i],
        )
        return event

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventColumns(*(column[index] for column in self.columns()))
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("event index out of range")
        return self._event(index)

    def __iter__(self) -> Iterator[FrontEndEvent]:
        return map(self._event, range(len(self)))

    def __eq__(self, other) -> bool:
        if isinstance(other, EventColumns):
            return len(self) == len(other) and all(
                a == b if type(a) is type(b) else list(a) == list(b)
                for a, b in zip(self.columns(), other.columns())
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        return EventColumns, self.columns()

    def __repr__(self) -> str:
        raw = getattr(self.raw, "typecode", "list")
        return f"EventColumns({len(self)} events, raw={raw})"

    def action_flags(self, action: BranchAction) -> bytes:
        """0/1 bytes marking the branches whose policy action is ``action``."""
        return self.action.tobytes().translate(_FLAG_TABLES[action])

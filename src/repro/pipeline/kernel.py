"""Loader for the compiled timing kernel (``timing_kernel.c``).

:meth:`repro.pipeline.simulator.PipelineSimulator.simulate` hands every
event stream to :func:`simulate` first.  The kernel is a line-for-line C
port of the simulator's per-event loop and returns bit-identical
:class:`~repro.pipeline.stats.SimStats`; whenever it cannot run, the
caller runs the Python loop instead and counts the ``reason`` this
module returns:

- ``compiler``: no C compiler on ``PATH``;
- ``build``: the compiler rejected the source;
- ``cache_dir``: the kernel cache directory cannot be created, or it or
  the cached library is not owned by this user or is group/world
  writable (a shared library is executable persistence);
- ``load``: the cached library does not load (truncated or garbled
  files are deleted, so the next process rebuilds them);
- ``selftest``: the kernel disagrees with the Python model on the
  built-in event stream;
- ``range``: a config, stats or event value the C types cannot hold.

The first call compiles the source (never at import), caching the
library under ``$XDG_CACHE_HOME/repro/kernels/`` (default
``~/.cache/repro/kernels/``), named by the sha256 of the source, the
flags and the platform.  Only the standard library is used: ``ctypes``
and ``array``, no numpy.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import math
import os
import shutil
import subprocess
import sysconfig
import tempfile
from array import array
from itertools import repeat
from operator import attrgetter, is_
from typing import Callable, Optional, Sequence, Union

__all__ = ["FLAGS", "cache_dir", "library_path", "simulate", "unavailable_reason"]

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "timing_kernel.c")

#: Exact IEEE semantics: no FMA contraction, never -ffast-math.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_COMPILERS = ("cc", "gcc")
_U64 = (1 << 64) - 1
#: Config ints must fit int32 so the kernel's int64 sums cannot overflow.
_INT_LIMIT = 1 << 31
#: Integral float inputs stay below this so every product is exact.
_SMALL_INT = 1 << 21

_INT_FIELDS = (
    "correct_path_uops", "branches", "mispredictions", "raw_mispredictions",
    "reversals", "reversals_correcting", "reversals_breaking",
    "gated_branches", "gating_stalls",
)
#: Float fields in struct order; bit i of ``touched`` marks field i added to.
_FLOAT_FIELDS = (
    "wrong_path_uops", "wrong_path_uops_saved", "gated_cycles",
    "throttled_cycles", "squash_cycles",
)


class _Config(ctypes.Structure):
    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "fetch_width", "depth", "rob_size", "resolve_jitter",
            "estimator_latency", "gating_threshold", "throttle_mode",
        )
    ] + [("base_uop_cycles", ctypes.c_double), ("throttle_factor", ctypes.c_double)]


class _Stats(ctypes.Structure):
    _fields_ = (
        [(name, ctypes.c_int64) for name in _INT_FIELDS + ("touched",)]
        + [(name, ctypes.c_double) for name in _FLOAT_FIELDS + ("total_cycles",)]
    )


class _Unavailable(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


#: The loaded kernel function, or the reason it is unavailable; ``None``
#: until the first :func:`simulate` call.
_kernel: Union[None, str, Callable] = None


def cache_dir() -> str:
    """Directory holding compiled kernels."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(root, "repro", "kernels")


def _source() -> bytes:
    with open(_SOURCE, "rb") as fh:
        return fh.read()


def library_path(source: Optional[bytes] = None) -> str:
    """Cache path of the library built from ``source`` (default: the kernel)."""
    digest = hashlib.sha256(source if source is not None else _source())
    digest.update("\0".join(FLAGS + (sysconfig.get_platform(),)).encode())
    return os.path.join(cache_dir(), f"timing-{digest.hexdigest()[:32]}.so")


def _check_private(path: str) -> None:
    if not hasattr(os, "getuid"):
        raise _Unavailable("cache_dir", "no file ownership to check on this platform")
    st = os.stat(path)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise _Unavailable(
            "cache_dir", f"{path} is not private to uid {os.getuid()}"
        )


def _build(source: bytes, path: str) -> None:
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        raise _Unavailable("compiler", f"none of {_COMPILERS} on PATH")
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".build-", suffix=".so")
    except OSError as exc:
        raise _Unavailable("cache_dir", str(exc)) from None
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *FLAGS, "-x", "c", "-o", tmp, "-"],
            input=source,
            capture_output=True,
            timeout=300,
        )
        if proc.returncode != 0:
            raise _Unavailable("build", proc.stderr.decode(errors="replace")[-400:])
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable("build", str(exc)) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open() -> Callable:
    source = _source()
    path = library_path(source)
    try:
        os.makedirs(os.path.dirname(path), mode=0o700, exist_ok=True)
    except OSError as exc:
        raise _Unavailable("cache_dir", str(exc)) from None
    _check_private(os.path.dirname(path))
    if not os.path.exists(path):
        _build(source, path)
    _check_private(path)
    try:
        fn = ctypes.CDLL(path).repro_timing_simulate
    except (OSError, AttributeError) as exc:
        with contextlib.suppress(OSError):
            os.unlink(path)
        raise _Unavailable("load", str(exc)) from None
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.POINTER(_Config), ctypes.c_int64] + [ctypes.c_void_p] * 7 + [
        ctypes.POINTER(_Stats)
    ]
    _self_test(fn)
    return fn


def _load() -> Union[str, Callable]:
    global _kernel
    if _kernel is None:
        try:
            _kernel = _open()
        except _Unavailable as exc:
            from repro import telemetry

            telemetry.log_event(
                "pipeline.kernel_unavailable",
                level=logging.INFO,
                message=str(exc),
                reason=exc.reason,
            )
            _kernel = exc.reason
    return _kernel


def unavailable_reason() -> Optional[str]:
    """Why the kernel cannot run in this process (``None`` if it can)."""
    fn = _load()
    return fn if isinstance(fn, str) else None


# ---------------------------------------------------------------------------
# Marshalling
# ---------------------------------------------------------------------------


def _int(value) -> int:
    if type(value) is not int or not 0 <= value < _INT_LIMIT:
        raise OverflowError(f"{value!r} is not a kernel int")
    return value


def _real(value) -> float:
    """A float input; ints only while small, so products stay exact."""
    if type(value) is int and -_SMALL_INT <= value <= _SMALL_INT:
        return float(value)
    if type(value) is not float or not math.isfinite(value):
        raise OverflowError(f"{value!r} is not a finite kernel float")
    return value


def _config(config) -> _Config:
    return _Config(
        fetch_width=_int(config.fetch_width),
        depth=_int(config.depth),
        rob_size=_int(config.rob_size),
        resolve_jitter=_int(config.resolve_jitter),
        estimator_latency=_int(config.estimator_latency),
        gating_threshold=_int(config.gating_threshold),
        throttle_mode=config.gating_mode == "throttle",
        base_uop_cycles=_real(config.base_uop_cycles),
        throttle_factor=_real(config.throttle_factor),
    )


def _columns(events: Sequence) -> tuple:
    """The kernel's seven event columns; raises on values outside C types."""
    from repro.core.frontend import FrontEndEvent
    from repro.core.reversal import BranchAction, PolicyDecision

    decisions = list(map(attrgetter("decision"), events))
    # The flags below read the fields the FrontEndEvent / PolicyDecision
    # properties are defined over; subclasses might redefine them.
    if not {*map(type, events)} <= {FrontEndEvent} or not {
        *map(type, decisions)
    } <= {PolicyDecision}:
        raise TypeError("events are not plain FrontEndEvent objects")
    pcs = list(map(attrgetter("pc"), events))
    try:
        pc = array("Q", pcs)
    except OverflowError:
        # mix_hash masks to 64 bits, so only pc mod 2**64 matters.
        pc = array("Q", [p & _U64 for p in pcs])
    uops = array("i", map(attrgetter("uops_before"), events))
    actions = list(map(attrgetter("action"), decisions))
    return (
        pc,
        uops,
        bytes(map(attrgetter("taken"), events)),
        bytes(map(attrgetter("prediction"), events)),
        bytes(map(attrgetter("final_prediction"), events)),
        bytes(map(is_, actions, repeat(BranchAction.GATE))),
        bytes(map(is_, actions, repeat(BranchAction.REVERSE))),
    )


def _run(fn, config, events: Sequence, stats) -> None:
    """Marshal, call the kernel and merge its result into ``stats``."""
    cfg = _config(config)
    columns = _columns(events)
    for name in _INT_FIELDS:
        if not isinstance(getattr(stats, name), int):
            raise TypeError(f"SimStats.{name} is not an int")
    out = _Stats(**{name: float(getattr(stats, name)) for name in _FLOAT_FIELDS})
    pointers = [
        c.buffer_info()[0] if isinstance(c, array) else c for c in columns
    ]
    if fn(ctypes.byref(cfg), len(events), *pointers, ctypes.byref(out)) != 0:
        raise MemoryError("timing kernel scratch allocation failed")
    for name in _INT_FIELDS:
        delta = getattr(out, name)
        if delta:
            setattr(stats, name, getattr(stats, name) + delta)
    for bit, name in enumerate(_FLOAT_FIELDS):
        if out.touched >> bit & 1:
            setattr(stats, name, getattr(out, name))
    stats.total_cycles = out.total_cycles


def simulate(config, events: Sequence, stats) -> Optional[str]:
    """Run one simulation on the kernel, accumulating into ``stats``.

    Returns ``None`` when the kernel ran, else the fallback reason; then
    ``stats`` is untouched and the caller runs the Python model.
    """
    fn = _load()
    if isinstance(fn, str):
        return fn
    try:
        _run(fn, config, events, stats)
    except (OverflowError, TypeError, ValueError, AttributeError, MemoryError):
        return "range"
    return None


# ---------------------------------------------------------------------------
# Self-test
# ---------------------------------------------------------------------------


def _self_test(fn) -> None:
    """Compare the kernel with the Python model on a built-in stream."""
    from dataclasses import astuple

    from repro.core.frontend import FrontEndEvent
    from repro.core.reversal import BranchAction, PolicyDecision
    from repro.core.types import ConfidenceSignal
    from repro.pipeline.config import PipelineConfig
    from repro.pipeline.simulator import PipelineSimulator
    from repro.pipeline.stats import SimStats

    actions = (BranchAction.NORMAL, BranchAction.GATE, BranchAction.REVERSE)
    events = []
    state = 12345
    for i in range(400):
        state = (state * 6364136223846793005 + 1442695040888963407) & _U64
        bits = state >> 40
        taken, prediction = bool(bits & 1), bool(bits & 2)
        action = actions[(bits >> 2) % 3]
        final = (not prediction) if action is BranchAction.REVERSE else prediction
        events.append(
            FrontEndEvent(
                pc=(bits << 20) | (i << 63) if i % 7 else 0x400000 + i,
                taken=taken,
                prediction=prediction,
                final_prediction=final,
                signal=ConfidenceSignal.high(0.0),
                decision=PolicyDecision(action, final),
                uops_before=(bits >> 4) % 13,
            )
        )
    for config in (
        PipelineConfig(fetch_width=4, depth=20, resolve_jitter=4, gating_threshold=2),
        PipelineConfig(fetch_width=8, depth=40, rob_size=64, base_uop_cycles=0.8,
                       estimator_latency=9, gating_mode="throttle"),
    ):
        expected = PipelineSimulator(config).simulate_reference(events)
        actual = SimStats()
        try:
            _run(fn, config, events, actual)
        except (OverflowError, TypeError, ValueError, MemoryError) as exc:
            raise _Unavailable("selftest", repr(exc)) from None
        if [(type(v), v) for v in astuple(actual)] != [
            (type(v), v) for v in astuple(expected)
        ]:
            raise _Unavailable(
                "selftest", f"kernel {actual} != Python model {expected}"
            )

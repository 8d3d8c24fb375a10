"""Whole-trace estimator passes for the fast backend.

Each pass consumes the columnar trace plus the predictor pass's
per-branch prediction/correctness streams and produces the estimator's
confidence classification stream (low flag, three-level code, raw
output) together with a thunk building the final ``state_canonical()``
tuple -- bit-identical to the reference estimators in :mod:`repro.core`.

The fusion estimators (agreement, cascade) compose recursively: each
component trains on its *own* classification stream (exactly as the
reference does), so a component pass is independent of how its signals
are fused downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.fastpath.columnar import ColumnarTrace
from repro.fastpath.kernels import (
    fold_u64,
    mix_hash_u64,
    swar_cic_pass,
    swar_direction_pass,
)

__all__ = ["EstimatorPass", "run_estimator"]

#: Confidence-level codes used inside the fast backend.
LEVEL_HIGH = 0
LEVEL_WEAK_LOW = 1
LEVEL_STRONG_LOW = 2

#: Default parameters of the registered estimator factories.
ESTIMATOR_DEFAULTS = {
    "always_high": {},
    "jrs": {
        "entries": 8192,
        "counter_bits": 4,
        "threshold": 7,
        "history_length": 13,
        "enhanced": True,
    },
    "perceptron": {
        "entries": 128,
        "history_length": 32,
        "weight_bits": 8,
        "threshold": 0.0,
        "training_threshold": 96,
        "strong_threshold": None,
        "mode": "cic",
    },
    "path_perceptron": {
        "table_entries": 256,
        "history_length": 16,
        "weight_bits": 8,
        "threshold": 0.0,
        "training_threshold": 64,
    },
    "agreement": {"mode": "intersection"},
    "cascade": {"neutral_band": 30.0, "primary_threshold": 0.0},
}


@dataclass
class EstimatorPass:
    """Result of replaying an estimator over a whole trace."""

    low: List[bool]  # per-branch low-confidence flag
    level: List[int]  # LEVEL_* code per branch
    raw: List  # per-branch raw signal value (exact reference type)
    state: Callable[[], tuple]  # builds the final state_canonical() tuple


def _run_always_high(
    col: ColumnarTrace, params, pred, correct
) -> EstimatorPass:
    n = col.n
    return EstimatorPass(
        low=[False] * n,
        level=[LEVEL_HIGH] * n,
        raw=[0.0] * n,
        state=lambda: ("always_high",),
    )


def _run_jrs(
    col: ColumnarTrace, params, pred, correct
) -> EstimatorPass:
    entries = params["entries"]
    counter_bits = params["counter_bits"]
    threshold = params["threshold"]
    history_length = params["history_length"]
    enhanced = params["enhanced"]

    index_bits = entries.bit_length() - 1
    context = col.history(history_length)
    if enhanced:
        context = (context << np.uint64(1)) | np.asarray(pred, dtype=np.uint64)
    indices = (
        fold_u64((col.pcs >> 2).astype(np.uint64), index_bits)
        ^ fold_u64(context, index_bits)
    ).tolist()

    counter_max = (1 << counter_bits) - 1
    table = [0] * entries
    n = col.n
    low = [False] * n
    level = [LEVEL_HIGH] * n
    raw = [0.0] * n
    for i in range(n):
        j = indices[i]
        v = table[j]
        raw[i] = float(v)
        if v < threshold:
            low[i] = True
            level[i] = LEVEL_WEAK_LOW
        if correct[i]:
            if v < counter_max:
                table[j] = v + 1
        else:
            table[j] = 0

    def state():
        return ("jrs", bool(enhanced), tuple(table), col.final_history(history_length))

    return EstimatorPass(low=low, level=level, raw=raw, state=state)


def _run_perceptron(
    col: ColumnarTrace, params, pred, correct
) -> EstimatorPass:
    entries = params["entries"]
    history_length = params["history_length"]
    weight_bits = params["weight_bits"]
    threshold = params["threshold"]
    strong_threshold = params["strong_threshold"]
    mode = params["mode"]

    w_max = (1 << (weight_bits - 1)) - 1
    w_min = -(1 << (weight_bits - 1))
    rows = ((col.pcs >> 2) % entries).tolist()
    pops = col.popcounts(history_length)

    n = col.n
    low = [False] * n
    level = [LEVEL_HIGH] * n
    if mode == "cic":
        ys, weights = swar_cic_pass(
            rows,
            correct,
            col.taken_ints,
            pops,
            entries,
            history_length,
            threshold,
            params["training_threshold"],
            w_min,
            w_max,
        )
        for i in range(n):
            y = ys[i]
            if y > threshold:
                low[i] = True
                if strong_threshold is not None and y > strong_threshold:
                    level[i] = LEVEL_STRONG_LOW
                else:
                    level[i] = LEVEL_WEAK_LOW
    else:  # tnt: direction training, low when |y| <= threshold
        theta = int(1.93 * history_length + 14)  # jimenez_lin_theta
        ys, weights = swar_direction_pass(
            rows,
            col.taken_ints,
            pops,
            entries,
            history_length,
            theta,
            w_min,
            w_max,
        )
        for i in range(n):
            if -threshold <= ys[i] <= threshold:
                low[i] = True
                level[i] = LEVEL_WEAK_LOW

    def state():
        return (
            "perceptron_estimator",
            mode,
            tuple(tuple(int(w) for w in row) for row in weights),
            col.final_history(history_length),
        )

    return EstimatorPass(low=low, level=level, raw=ys, state=state)


def _run_path_perceptron(
    col: ColumnarTrace, params, pred, correct
) -> EstimatorPass:
    entries = params["table_entries"]
    history_length = params["history_length"]
    weight_bits = params["weight_bits"]
    threshold = params["threshold"]
    training_threshold = params["training_threshold"]

    w_max = (1 << (weight_bits - 1)) - 1
    w_min = -(1 << (weight_bits - 1))
    h = history_length
    n = col.n

    # Path matrix: P[i, j] = pc of the (j+1)-th most recent retired
    # branch before i (0 when the path is still short).
    path_mat = sliding_window_view(col.path_before(h), h)[:, ::-1]
    keys = (
        ((col.pcs >> 2).astype(np.uint64) << np.uint64(20))[:, None]
        ^ ((path_mat >> np.uint64(2)) << np.uint64(4))
        ^ np.arange(h, dtype=np.uint64)[None, :]
    )
    # Flattened (position, row) index into the (h, entries) weight table.
    flat_idx = (
        (mix_hash_u64(keys) % np.uint64(entries)).astype(np.int64)
        + (np.arange(h, dtype=np.int64) * entries)[None, :]
    )
    history_words = col.history(h)
    xs_mat = (
        ((history_words[:, None] >> np.arange(h, dtype=np.uint64)) & np.uint64(1))
        .astype(np.int32)
        * 2
        - 1
    )
    bias_idx = ((col.pcs >> 2) % entries).tolist()

    weights_flat = np.zeros(h * entries, dtype=np.int32)
    bias = [0] * entries
    low = [False] * n
    level = [LEVEL_HIGH] * n
    raw = [0.0] * n
    for i in range(n):
        idx = flat_idx[i]
        x = xs_mat[i]
        w = weights_flat[idx]
        b = bias_idx[i]
        y = int(bias[b] + np.dot(w, x))
        yf = float(y)
        raw[i] = yf
        if y > threshold:
            low[i] = True
            level[i] = LEVEL_WEAK_LOW
        p = -1 if correct[i] else 1
        c = 1 if low[i] else -1
        if c != p or abs(yf) <= training_threshold:
            updated = w + p * x
            np.clip(updated, w_min, w_max, out=updated)
            weights_flat[idx] = updated
            bv = bias[b] + p
            bias[b] = w_max if bv > w_max else (w_min if bv < w_min else bv)

    def state():
        return (
            "path_perceptron",
            tuple(tuple(int(w) for w in row) for row in weights_flat.reshape(h, entries)),
            tuple(bias),
            col.final_history(h),
            tuple(col.pc_list[-h:]),
        )

    return EstimatorPass(low=low, level=level, raw=raw, state=state)


def _run_agreement(
    col: ColumnarTrace, params, pred, correct
) -> EstimatorPass:
    first = run_estimator(params["primary"], col, pred, correct)
    second = run_estimator(params["secondary"], col, pred, correct)
    union = params["mode"] == "union"
    n = col.n
    low = [False] * n
    level = [LEVEL_HIGH] * n
    raw = [None] * n
    f_low, s_low, f_level, f_raw = first.low, second.low, first.level, first.raw
    for i in range(n):
        flag = (f_low[i] or s_low[i]) if union else (f_low[i] and s_low[i])
        if flag:
            low[i] = True
            level[i] = (
                LEVEL_STRONG_LOW if f_level[i] == LEVEL_STRONG_LOW else LEVEL_WEAK_LOW
            )
        raw[i] = f_raw[i]
    mode = params["mode"]
    return EstimatorPass(
        low=low,
        level=level,
        raw=raw,
        state=lambda: ("agreement", mode, first.state(), second.state()),
    )


def _run_cascade(
    col: ColumnarTrace, params, pred, correct
) -> EstimatorPass:
    first = run_estimator(params["primary"], col, pred, correct)
    second = run_estimator(params["secondary"], col, pred, correct)
    band = params["neutral_band"]
    pthr = params["primary_threshold"]
    n = col.n
    low = list(first.low)
    level = list(first.level)
    raw = first.raw
    s_low = second.low
    f_raw = first.raw
    for i in range(n):
        if abs(f_raw[i] - pthr) > band:
            continue  # primary decides; its signal passes through verbatim
        if s_low[i]:
            low[i] = True
            level[i] = LEVEL_WEAK_LOW
        else:
            low[i] = False
            level[i] = LEVEL_HIGH
    return EstimatorPass(
        low=low,
        level=level,
        raw=raw,
        state=lambda: ("cascade", first.state(), second.state()),
    )


_RUNNERS = {
    "always_high": _run_always_high,
    "jrs": _run_jrs,
    "perceptron": _run_perceptron,
    "path_perceptron": _run_path_perceptron,
    "agreement": _run_agreement,
    "cascade": _run_cascade,
}


def run_estimator(spec, col: ColumnarTrace, pred, correct) -> EstimatorPass:
    """Replay ``spec`` (an EstimatorSpec) over the whole trace.

    ``pred``/``correct`` are the predictor pass's per-branch prediction
    and correctness lists (the streams the front end feeds the
    estimator's ``estimate``/``train`` protocol).
    """
    runner = _RUNNERS.get(spec.kind)
    if runner is None:
        from repro.fastpath import FastPathUnsupported

        raise FastPathUnsupported(f"no fast estimator pass for kind {spec.kind!r}")
    params = dict(ESTIMATOR_DEFAULTS[spec.kind])
    params.update(spec.param_dict())
    return runner(col, params, pred, correct)

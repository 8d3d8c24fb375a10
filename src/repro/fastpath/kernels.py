"""Vectorized and SWAR batch kernels behind the fast backend.

Three families of primitives live here:

- **Precompute kernels** -- whole-trace index/feature computation:
  per-branch global-history words (:func:`history_bits`), vectorized
  XOR-folding (:func:`fold_u64`) and splitmix64 hashing
  (:func:`mix_hash_u64`).  These turn the per-branch index arithmetic
  of the reference predictors into a handful of numpy passes.
- **Conflict-free chunk kernels** -- sequential-equivalent batch
  updates of shared tables: :func:`conflict_free_chunks` splits a
  branch stream into maximal chunks in which every table index appears
  at most once, so a vectorized read-modify-write over a chunk commutes
  with the reference one-branch-at-a-time loop
  (:func:`counter_batch_update`, :func:`perceptron_batch_train`).
- **SWAR perceptron passes** -- the fast backend's hot loops.  A whole
  perceptron row is packed into 16-bit lanes of one Python big int
  (weights stored offset-biased), the history dot product becomes a
  single big-int multiply, and the +/-x training step becomes one
  big-int add of a lane-wise delta mask.  Exact versus the reference
  :class:`repro.common.perceptron.PerceptronArray` as long as no lane
  can overflow, i.e. ``history_length * (2**weight_bits - 1) < 2**16``
  (checked by ``fastpath.supports``); weight saturation is handled by a
  per-row rail bound with an exact decode/clip/re-encode slow path.

Every kernel is deterministic and bit-identical to the scalar
reference; the equivalence is enforced by
``tests/test_fastpath_kernels.py`` (hypothesis property tests) and the
``python -m repro.verify`` fastpath layer.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.telemetry import get_registry

__all__ = [
    "history_bits",
    "final_history_bits",
    "fold_u64",
    "mix_hash_u64",
    "prev_occurrence",
    "conflict_free_chunks",
    "counter_batch_update",
    "perceptron_batch_outputs",
    "perceptron_batch_train",
    "swar_supported",
    "swar_cic_pass",
    "swar_direction_pass",
]

_U64 = np.uint64


# -------------------------------------------------------------------------
# Precompute kernels
# -------------------------------------------------------------------------


def history_bits(takens: np.ndarray, length: int) -> np.ndarray:
    """Per-branch global-history word *before* each branch resolves.

    Element ``i`` equals the reference
    :class:`~repro.common.history.GlobalHistoryRegister` ``bits`` value
    (bit 0 = most recent outcome) as seen by branch ``i`` after pushing
    outcomes ``0..i-1``, masked to ``length`` bits.
    """
    if length <= 0 or length > 64:
        raise ValueError(f"history length must be in [1, 64], got {length}")
    takens = np.asarray(takens)
    # The register starts empty: a zero pre-trace window.
    window = np.zeros(length, dtype=_U64)
    padded = np.concatenate([window, takens[:-1].astype(_U64)])
    windows = sliding_window_view(padded, length)
    powers = (_U64(1) << np.arange(length, dtype=_U64))[::-1]
    return (windows * powers).sum(axis=1, dtype=_U64)


def final_history_bits(takens: np.ndarray, length: int) -> int:
    """History word after the *last* branch resolved (GHR end state)."""
    if length <= 0 or length > 64:
        raise ValueError(f"history length must be in [1, 64], got {length}")
    mask = (1 << length) - 1
    bits = 0
    tail = np.asarray(takens)[-length:]
    for t in tail:
        bits = ((bits << 1) | int(t)) & mask
    return bits


def fold_u64(values: np.ndarray, width: int) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.fold_bits` over a uint64 array."""
    if width < 0:
        raise ValueError(f"fold width must be non-negative, got {width}")
    v = np.asarray(values, dtype=_U64).copy()
    if width == 0:
        return np.zeros_like(v)
    folded = np.zeros_like(v)
    m = _U64((1 << width) - 1)
    shift = _U64(width)
    while v.any():
        folded ^= v & m
        v >>= shift
    return folded


def mix_hash_u64(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.common.bits.mix_hash` (splitmix64 mixer).

    Exact for inputs below 2**64; uint64 wraparound matches the
    reference's explicit ``& _U64`` masking.
    """
    with np.errstate(over="ignore"):
        v = np.asarray(values, dtype=_U64) + _U64(0x9E3779B97F4A7C15)
        v = (v ^ (v >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> _U64(27))) * _U64(0x94D049BB133111EB)
    return v ^ (v >> _U64(31))


# -------------------------------------------------------------------------
# Conflict-free chunk kernels
# -------------------------------------------------------------------------


def prev_occurrence(indices: np.ndarray) -> np.ndarray:
    """Position of each element's previous occurrence (-1 if first).

    ``prev[i] = max{j < i : indices[j] == indices[i]}`` or -1.
    """
    indices = np.asarray(indices)
    n = len(indices)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(indices, kind="stable")
    srt = indices[order]
    same = srt[1:] == srt[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def conflict_free_chunks(indices: np.ndarray) -> List[Tuple[int, int]]:
    """Greedy maximal ``[start, end)`` chunks with all-distinct indices.

    Within one chunk every table index appears at most once, so a
    vectorized gather/update/scatter over the chunk is exactly
    equivalent to applying the updates one branch at a time.

    Measured note: on the benchmark traces the bimodal/gshare/meta and
    JRS index streams alias so densely (median chunk length 3) that
    chunked numpy updates *lose* to a plain scalar loop; the replay
    driver therefore uses these kernels only where chunks are long, and
    they are kept (and property-tested) as the general-purpose batch
    primitive.
    """
    indices = np.asarray(indices)
    n = len(indices)
    if n == 0:
        return []
    prev = prev_occurrence(indices).tolist()
    chunks = []
    start = 0
    for i in range(n):
        if prev[i] >= start:
            chunks.append((start, i))
            start = i
    chunks.append((start, n))
    return chunks


def counter_batch_update(
    table: np.ndarray,
    indices: np.ndarray,
    ups: np.ndarray,
    mode: str = "saturating",
    max_value: int = 3,
) -> None:
    """Sequential-equivalent batch update of an n-bit counter table.

    Applies the :class:`repro.common.counters.CounterTable` update rule
    (``"saturating"`` or ``"resetting"``) for every ``(index, up)``
    event in stream order, vectorizing over conflict-free chunks.
    Updates ``table`` in place; values never leave ``[0, max_value]``.
    """
    if mode not in ("saturating", "resetting"):
        raise ValueError(f"unknown counter mode {mode!r}")
    indices = np.asarray(indices)
    ups = np.asarray(ups, dtype=bool)
    for start, end in conflict_free_chunks(indices):
        idx = indices[start:end]
        up = ups[start:end]
        values = table[idx]
        bumped = np.minimum(values + 1, max_value)
        if mode == "saturating":
            dropped = np.maximum(values - 1, 0)
        else:
            dropped = np.zeros_like(values)
        table[idx] = np.where(up, bumped, dropped)


def perceptron_batch_outputs(
    weights: np.ndarray, rows: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Batch perceptron inference against a frozen weight matrix.

    ``weights`` is the reference layout (column 0 = bias); ``rows``
    selects one perceptron per branch and ``xs`` holds the +/-1 history
    vectors.  Returns ``w[r,0] + dot(w[r,1:], x)`` per branch.
    """
    selected = weights[rows]
    return selected[:, 0] + np.einsum(
        "ij,ij->i", selected[:, 1:], xs.astype(weights.dtype)
    )


def perceptron_batch_train(
    weights: np.ndarray,
    rows: np.ndarray,
    xs: np.ndarray,
    targets: np.ndarray,
    w_min: int,
    w_max: int,
) -> None:
    """Sequential-equivalent batch of ``PerceptronArray.train`` steps.

    For every branch, ``w[r] += target * [1, x...]`` with saturation at
    the weight rails, in stream order.  Vectorized over conflict-free
    chunks of ``rows`` so repeated rows still train cumulatively,
    exactly as the scalar reference does.
    """
    rows = np.asarray(rows)
    xs = np.asarray(xs)
    targets = np.asarray(targets)
    for start, end in conflict_free_chunks(rows):
        r = rows[start:end]
        delta = np.concatenate(
            [
                np.ones((end - start, 1), dtype=weights.dtype),
                xs[start:end].astype(weights.dtype),
            ],
            axis=1,
        )
        delta *= targets[start:end, None].astype(weights.dtype)
        updated = weights[r] + delta
        np.clip(updated, w_min, w_max, out=updated)
        weights[r] = updated


# -------------------------------------------------------------------------
# SWAR perceptron passes
# -------------------------------------------------------------------------


def swar_supported(history_length: int, weight_bits: int) -> bool:
    """True when no 16-bit lane of the SWAR dot product can overflow.

    Each lane of the big-int product accumulates at most
    ``history_length`` terms of ``(weight + offset) * bit``, each below
    ``2**weight_bits``; the pass is exact iff that sum stays below the
    lane width.
    """
    if not 1 <= history_length <= 64:
        return False
    if not 2 <= weight_bits <= 16:
        return False
    return history_length * ((1 << weight_bits) - 1) < (1 << 16)


def _swar_seed(n_rows: int, history_length: int, offset: int):
    """Initial SWAR pass state: zero weights, empty history.

    Returns ``(packed, sums, bias, bound, dot_mask, delta_mask)``.
    """
    row0 = int.from_bytes(offset.to_bytes(2, "little") * history_length, "little")
    return [row0] * n_rows, [0] * n_rows, [0] * n_rows, [0] * n_rows, 0, 0


def _swar_decode_weights(
    packed: List[int], bias: List[int], history_length: int, offset: int
) -> np.ndarray:
    """Unpack lane-encoded rows back into the reference weight layout."""
    n_rows = len(packed)
    weights = np.zeros((n_rows, history_length + 1), dtype=np.int32)
    for r in range(n_rows):
        weights[r, 0] = bias[r]
        weights[r, 1:] = (
            np.frombuffer(
                packed[r].to_bytes(2 * history_length, "little"), dtype="<u2"
            ).astype(np.int32)
            - offset
        )
    return weights


def _swar_slow_train(
    packed: int, delta_mask: int, p: int, history_length: int,
    offset: int, w_min: int, w_max: int,
) -> Tuple[int, int, int]:
    """Exact decode/train/clip/re-encode step near the weight rails."""
    hist = (
        np.frombuffer(
            packed.to_bytes(2 * history_length, "little"), dtype="<u2"
        ).astype(np.int32)
        - offset
    )
    x = (
        np.frombuffer(
            delta_mask.to_bytes(2 * history_length, "little"), dtype="<u2"
        ).astype(np.int32)
        * 2
        - 1
    )
    hist = hist + p * x
    np.clip(hist, w_min, w_max, out=hist)
    repacked = int.from_bytes((hist + offset).astype("<u2").tobytes(), "little")
    return repacked, int(hist.sum()), int(np.abs(hist).max())


def swar_cic_pass(
    rows: List[int],
    correct: List[bool],
    takens: List[int],
    pops: List[int],
    n_rows: int,
    history_length: int,
    threshold: float,
    training_threshold: int,
    w_min: int,
    w_max: int,
) -> Tuple[List[int], np.ndarray]:
    """Whole-trace replay of the cic-trained perceptron estimator.

    Per branch: output ``y`` for the pre-branch history, classify low
    confidence as ``y > threshold``, and train toward ``p`` (+1 =
    mispredicted) when the classification disagreed with the outcome or
    ``|y| <= training_threshold`` -- exactly the reference
    :meth:`~repro.core.perceptron_estimator.PerceptronConfidenceEstimator.train`
    rule.  Returns the per-branch outputs and the final weight matrix
    in the reference layout (bias in column 0).
    """
    h = history_length
    shift_top = 16 * (h - 1)
    mask_lane = 0xFFFF
    mask_all = (1 << (16 * h)) - 1
    ones = int.from_bytes(b"\x01\x00" * h, "little")
    offset = -w_min
    # packed: lane-encoded history weights; sums: sum of each row's
    # history weights; bound: upper bound on max |history weight|;
    # dot_mask lane h-1-j / delta_mask lane j hold history bit j.
    packed, sums, bias, bound, dot_mask, delta_mask = _swar_seed(
        n_rows, h, offset
    )
    n = len(rows)
    ys = [0] * n
    off2 = offset * 2
    slow_path = 0
    for i in range(n):
        r = rows[i]
        y = (
            bias[r]
            + 2 * (((packed[r] * dot_mask) >> shift_top) & mask_lane)
            - pops[i] * off2
            - sums[r]
        )
        ys[i] = y
        p = -1 if correct[i] else 1
        if (1 if y > threshold else -1) != p or -training_threshold <= y <= training_threshold:
            if bound[r] >= w_max:  # next step may hit a rail: exact path
                slow_path += 1
                packed[r], sums[r], bound[r] = _swar_slow_train(
                    packed[r], delta_mask, p, h, offset, w_min, w_max
                )
            else:
                delta = 2 * delta_mask - ones
                if p == 1:
                    packed[r] += delta
                    sums[r] += 2 * pops[i] - h
                else:
                    packed[r] -= delta
                    sums[r] -= 2 * pops[i] - h
                bound[r] += 1
            b = bias[r] + p
            bias[r] = w_max if b > w_max else (w_min if b < w_min else b)
        if takens[i]:
            dot_mask = (dot_mask >> 16) | (1 << shift_top)
            delta_mask = ((delta_mask << 16) & mask_all) | 1
        else:
            dot_mask >>= 16
            delta_mask = (delta_mask << 16) & mask_all
    _record_slow_path("cic", slow_path)
    return ys, _swar_decode_weights(packed, bias, h, offset)


def _record_slow_path(kind: str, entries: int) -> None:
    """Report how often a SWAR pass fell into the exact rail path.

    Recorded once per whole-trace pass (never inside the per-branch
    loop), so the cost is O(1) and zero when telemetry is disabled.
    """
    if entries:
        tel = get_registry()
        if tel.enabled:
            tel.counter("fastpath_swar_slow_path_total", swar_pass=kind).inc(
                entries
            )


def swar_direction_pass(
    rows: List[int],
    takens: List[int],
    pops: List[int],
    n_rows: int,
    history_length: int,
    theta: float,
    w_min: int,
    w_max: int,
) -> Tuple[List[int], np.ndarray]:
    """Whole-trace replay of a direction-trained (Jimenez-Lin) perceptron.

    Per branch: output ``y``, train toward the actual direction when the
    sign disagreed with it or ``|y| <= theta``.  This is both the
    perceptron *predictor* component of the gshare-perceptron hybrid
    and the tnt-mode confidence estimator (whose effective training
    direction is always the resolved outcome).
    """
    h = history_length
    shift_top = 16 * (h - 1)
    mask_lane = 0xFFFF
    mask_all = (1 << (16 * h)) - 1
    ones = int.from_bytes(b"\x01\x00" * h, "little")
    offset = -w_min
    packed, sums, bias, bound, dot_mask, delta_mask = _swar_seed(
        n_rows, h, offset
    )
    n = len(rows)
    ys = [0] * n
    off2 = offset * 2
    slow_path = 0
    for i in range(n):
        r = rows[i]
        y = (
            bias[r]
            + 2 * (((packed[r] * dot_mask) >> shift_top) & mask_lane)
            - pops[i] * off2
            - sums[r]
        )
        ys[i] = y
        t = takens[i]
        if (y >= 0) != bool(t) or -theta <= y <= theta:
            p = 1 if t else -1
            if bound[r] >= w_max:
                slow_path += 1
                packed[r], sums[r], bound[r] = _swar_slow_train(
                    packed[r], delta_mask, p, h, offset, w_min, w_max
                )
            else:
                delta = 2 * delta_mask - ones
                if p == 1:
                    packed[r] += delta
                    sums[r] += 2 * pops[i] - h
                else:
                    packed[r] -= delta
                    sums[r] -= 2 * pops[i] - h
                bound[r] += 1
            b = bias[r] + p
            bias[r] = w_max if b > w_max else (w_min if b < w_min else b)
        if t:
            dot_mask = (dot_mask >> 16) | (1 << shift_top)
            delta_mask = ((delta_mask << 16) & mask_all) | 1
        else:
            dot_mask >>= 16
            delta_mask = (delta_mask << 16) & mask_all
    _record_slow_path("direction", slow_path)
    return ys, _swar_decode_weights(packed, bias, h, offset)

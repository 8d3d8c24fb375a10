"""SPECint2000-like benchmark profiles (the Table 2 workloads).

The paper traces twelve SPECint2000 benchmarks.  Each profile here is a
static-branch population whose mixture of behaviours is calibrated so
the baseline bimodal/gshare hybrid predictor sees roughly the
mispredicts-per-1000-uops the paper reports in Table 2 (gzip 5.2,
vpr 6.6, ..., mcf 16, vortex 0.2).  The *mixture structure* -- biased,
learnable-correlated, loop, hidden-correlation and data-dependent
random populations -- is what the confidence estimators actually
interact with; see DESIGN.md substitution note 1.

Class weights below were solved by ``tools/calibrate.py`` against the
reproduction's own hybrid predictor; the calibration test suite asserts
each benchmark lands within a band of its Table 2 target and preserves
the paper's ordering (vortex/eon most predictable, mcf worst).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.common.rng import derive_seed
from repro.trace.behaviors import (
    BiasedBehavior,
    BranchBehavior,
    CorrelatedBehavior,
    HiddenCorrelationBehavior,
    LoopBehavior,
    PatternBehavior,
    PhasedBehavior,
    RandomBehavior,
)
from repro.trace.generator import StaticBranch, TraceGenerator, WorkloadSpec
from repro.trace.record import Trace

__all__ = [
    "BenchmarkProfile",
    "BENCHMARK_NAMES",
    "TABLE2_MISPREDICTS_PER_KUOP",
    "benchmark_profile",
    "benchmark_record_stream",
    "build_workload",
    "generate_benchmark_trace",
]

# Table 2, column "Branch mispredicts / 1000 uops" -- the calibration
# targets for each profile.
TABLE2_MISPREDICTS_PER_KUOP: Dict[str, float] = {
    "gzip": 5.2,
    "vpr": 6.6,
    "gcc": 2.3,
    "mcf": 16.0,
    "crafty": 3.4,
    "link": 4.6,
    "eon": 0.5,
    "perlbmk": 0.7,
    "gap": 1.7,
    "vortex": 0.2,
    "bzip": 1.1,
    "twolf": 6.3,
}

BENCHMARK_NAMES: Tuple[str, ...] = tuple(TABLE2_MISPREDICTS_PER_KUOP)


@dataclass
class BenchmarkProfile:
    """Mixture parameters for one synthetic benchmark.

    ``class_weights`` gives the fraction of *dynamic* branch executions
    drawn from each behaviour class; ``static_counts`` the number of
    static branches implementing each class.  Remaining fields tune the
    behaviours themselves.
    """

    name: str
    mispredict_target_per_kuop: float
    uops_per_branch: float = 8.0
    class_weights: Dict[str, float] = field(default_factory=dict)
    static_counts: Dict[str, int] = field(default_factory=dict)
    bias: float = 0.985
    corr_noise: float = 0.02
    loop_trips: Tuple[int, int] = (6, 14)
    # Far taps deliberately avoid multiples of the block size: with
    # block-repeat periodicity a tap at k*block_size lands on the same
    # static branch as a near (predictor-visible) tap, leaking the
    # "hidden" correlation into the baseline predictor's reach.
    hidden_far_taps: Tuple[int, ...] = (17, 19, 23, 29)
    hidden_flip_prob: float = 0.95
    phase_length: int = 4000

    def __post_init__(self):
        total = sum(self.class_weights.values())
        if not 0.999 <= total <= 1.001:
            raise ValueError(
                f"{self.name}: class weights must sum to 1, got {total}"
            )
        for cls, weight in self.class_weights.items():
            if weight < 0:
                raise ValueError(f"{self.name}: negative weight for {cls}")
            if weight > 0 and self.static_counts.get(cls, 0) <= 0:
                raise ValueError(
                    f"{self.name}: class {cls!r} has weight but no statics"
                )


def _profile(
    name: str,
    weights: Dict[str, float],
    statics: Dict[str, int],
    **overrides,
) -> BenchmarkProfile:
    return BenchmarkProfile(
        name=name,
        mispredict_target_per_kuop=TABLE2_MISPREDICTS_PER_KUOP[name],
        class_weights=weights,
        static_counts=statics,
        **overrides,
    )


def _default_statics(**extra) -> Dict[str, int]:
    counts = {
        "biased": 48,
        "correlated": 8,
        "pattern": 4,
        "loop": 8,
        "phased": 3,
        "hidden": 6,
        "random": 6,
    }
    counts.update(extra)
    return counts


# ---------------------------------------------------------------------------
# Per-benchmark mixtures.
#
# The class weights were produced by tools/calibrate.py: it measures the
# per-class misprediction rate of each profile under the baseline
# bimodal/gshare hybrid, then solves the weights so (a) the overall rate
# hits the Table 2 mispredicts/kuop target and (b) roughly 65% of the
# misprediction budget comes from the context-identifiable hard classes
# (hidden/random/loop/pattern/phased), ~25% from correlated noise and
# the rest from biased noise -- the composition regime the paper's
# confidence results live in.  Re-run the tool after changing behaviour
# mechanics and paste its output here.
# ---------------------------------------------------------------------------

_CALIBRATED_WEIGHTS: Dict[str, Dict[str, float]] = {
    "gzip": {"pattern": 0.00859, "loop": 0.06418,
             "phased": 0.02563, "hidden": 0.05801,
             "random": 0.00503, "correlated": 0.16783,
             "biased": 0.67073},
    "vpr": {"pattern": 0.01371, "loop": 0.04112,
             "phased": 0.00914, "hidden": 0.02285,
             "random": 0.03655, "correlated": 0.19739,
             "biased": 0.67924},
    "gcc": {"pattern": 0.00458, "loop": 0.0293,
             "phased": 0.0132, "hidden": 0.03821,
             "random": 0.00227, "correlated": 0.04958,
             "biased": 0.86286},
    "mcf": {"pattern": 0.03178, "loop": 0.14391,
             "phased": 0.07628, "hidden": 0.15589,
             "random": 0.01652, "correlated": 0.46524,
             "biased": 0.11038},
    "crafty": {"pattern": 0.00536, "loop": 0.04004,
             "phased": 0.01836, "hidden": 0.04893,
             "random": 0.00323, "correlated": 0.12861,
             "biased": 0.75547},
    "link": {"pattern": 0.00953, "loop": 0.05164,
             "phased": 0.02081, "hidden": 0.05443,
             "random": 0.00533, "correlated": 0.17194,
             "biased": 0.68632},
    "eon": {"pattern": 0.00098, "loop": 0.00941,
             "phased": 0.00384, "hidden": 0.00922,
             "random": 0.00065, "correlated": 0.06216,
             "biased": 0.91374},
    "perlbmk": {"pattern": 0.00185, "loop": 0.01562,
             "phased": 0.00076, "hidden": 0.005,
             "random": 0.00091, "correlated": 0.0813,
             "biased": 0.89456},
    "gap": {"pattern": 0.00481, "loop": 0.02481,
             "phased": 0.00572, "hidden": 0.02427,
             "random": 0.00154, "correlated": 0.07369,
             "biased": 0.86516},
    "vortex": {"pattern": 0.00043, "loop": 0.00087,
             "phased": 0.00072, "hidden": 0.00269,
             "random": 0.00026, "correlated": 0.01037,
             "biased": 0.98466},
    "bzip": {"pattern": 0.00238, "loop": 0.01435,
             "phased": 0.00391, "hidden": 0.01771,
             "random": 0.00112, "correlated": 0.08644,
             "biased": 0.87409},
    "twolf": {"pattern": 0.01438, "loop": 0.07052,
             "phased": 0.03357, "hidden": 0.04374,
             "random": 0.01369, "correlated": 0.27551,
             "biased": 0.54859},
}

# Per-benchmark personality: static-population sizes and behaviour
# parameters.  Flavor notes follow the paper's workload descriptions.
_PROFILE_OVERRIDES: Dict[str, Dict] = {
    # gzip: compression; data-dependent literal/match decisions.
    "gzip": dict(statics=_default_statics()),
    # vpr: place-and-route; many data-dependent comparisons.
    "vpr": dict(statics=_default_statics(random=8, hidden=8)),
    # gcc: huge static footprint, mostly well-predicted.
    "gcc": dict(
        statics=_default_statics(biased=120, correlated=12, loop=14, hidden=10),
        bias=0.988,
    ),
    # mcf: pointer chasing -- the classic mispredict monster.
    "mcf": dict(
        statics=_default_statics(biased=24, random=10, hidden=8),
        loop_trips=(3, 9),
    ),
    # crafty: chess; branchy but history-friendly.
    "crafty": dict(statics=_default_statics(correlated=10)),
    # "link" (parser in most SPEC lists; named as in the paper).
    "link": dict(statics=_default_statics()),
    # eon: C++ ray tracer, extremely predictable, low branch density.
    "eon": dict(
        statics=_default_statics(hidden=2, random=2),
        uops_per_branch=10.0,
        bias=0.997,
        corr_noise=0.004,
        loop_trips=(8, 8),
    ),
    # perlbmk: interpreter dispatch is learnable from history.
    "perlbmk": dict(
        statics=_default_statics(correlated=10, hidden=2, random=2),
        uops_per_branch=10.0,
        bias=0.996,
        corr_noise=0.005,
        loop_trips=(10, 10),
    ),
    # gap: group theory; regular loops.
    "gap": dict(
        statics=_default_statics(),
        bias=0.992,
        corr_noise=0.01,
        loop_trips=(12, 16),
    ),
    # vortex: database, famously predictable.
    "vortex": dict(
        statics=_default_statics(hidden=1, random=1),
        uops_per_branch=10.0,
        bias=0.9985,
        corr_noise=0.002,
        loop_trips=(16, 16),
    ),
    # bzip: block-sorting compressor.
    "bzip": dict(
        statics=_default_statics(),
        bias=0.995,
        corr_noise=0.006,
        loop_trips=(10, 14),
    ),
    # twolf: placement/routing, data-dependent.
    "twolf": dict(statics=_default_statics(random=8, hidden=8)),
}

_PROFILES: Dict[str, BenchmarkProfile] = {}

for _name in BENCHMARK_NAMES:
    _overrides = dict(_PROFILE_OVERRIDES[_name])
    _statics = _overrides.pop("statics")
    _PROFILES[_name] = _profile(
        _name,
        weights=_CALIBRATED_WEIGHTS[_name],
        statics=_statics,
        **_overrides,
    )


def benchmark_profile(name: str) -> BenchmarkProfile:
    """Return the registered profile for a Table 2 benchmark."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; expected one of {BENCHMARK_NAMES}"
        ) from None


def _zipf_weights(count: int, rng: np.random.Generator, s: float = 1.5) -> np.ndarray:
    """Zipf-like execution weights: a few hot statics dominate."""
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = ranks ** (-s)
    # Shuffle so hotness is not correlated with pc order.
    rng.shuffle(weights)
    return weights


# Hot-static skew per class.  The sparse hard classes (loops, hidden
# correlations) are spread nearly evenly so each static sees enough
# dynamic executions for the confidence estimator to train on its rare
# events (a 16-trip loop yields one exit per 16 executions).
_CLASS_ZIPF_S = {"loop": 0.3, "hidden": 0.5, "random": 0.5}
_DEFAULT_ZIPF_S = 1.5


def _make_behaviors(
    cls: str, count: int, profile: BenchmarkProfile, rng: np.random.Generator
) -> List[BranchBehavior]:
    """Instantiate ``count`` behaviours of class ``cls`` for a profile."""
    behaviors: List[BranchBehavior] = []
    for i in range(count):
        if cls == "biased":
            # Biased branches are mostly deterministic (error checks that
            # never fire), keeping global-history entropy low so table
            # predictors see recurring contexts; one static in six
            # carries the profile's residual bias noise, and none do for
            # near-perfectly-predictable profiles (bias >= 0.995).
            if i % 6 == 5 and profile.bias < 0.995:
                p = profile.bias if i % 2 == 0 else 1.0 - profile.bias
            else:
                p = 1.0 if i % 2 == 0 else 0.0
            behaviors.append(BiasedBehavior(p))
        elif cls == "correlated":
            # Taps within baseline-predictor reach and mostly within the
            # same basic block so contexts recur; vary tap and polarity.
            tap = 1 + (i % 6)
            behaviors.append(
                CorrelatedBehavior(
                    (tap,),
                    mode="copy",
                    noise=profile.corr_noise,
                    invert=bool(i % 2),
                )
            )
        elif cls == "pattern":
            patterns = (
                (True, True, False),
                (True, False),
                (True, True, True, False),
                (False, False, True),
            )
            behaviors.append(PatternBehavior(patterns[i % len(patterns)]))
        elif cls == "loop":
            if i % 2 == 0:
                # Fixed-trip loops longer than the baseline predictor's
                # history reach but within the estimator's 32-branch
                # window: every exit is mispredicted by the hybrid yet
                # perfectly identifiable from history -- the natural
                # population behind the paper's reversal region
                # (Figure 5, output > 30).
                # Trips just beyond the hybrid's 10-branch history keep
                # exits frequent enough to train the estimator.
                fixed = (12, 13, 14)
                trips = fixed[(i // 2) % len(fixed)]
                behaviors.append(LoopBehavior(trips, trips))
            else:
                lo, hi = profile.loop_trips
                shift = i % 3
                behaviors.append(LoopBehavior(lo + shift, hi + shift))
        elif cls == "phased":
            behaviors.append(
                PhasedBehavior(
                    phase_length=profile.phase_length + 997 * i,
                    p_phase_a=0.95,
                    p_phase_b=0.05,
                )
            )
        elif cls == "hidden":
            taps = profile.hidden_far_taps
            tap = taps[i % len(taps)]
            behaviors.append(
                HiddenCorrelationBehavior(
                    far_tap=tap,
                    second_tap=min(tap + 4, 31),
                    flip_prob=profile.hidden_flip_prob,
                    noise=0.01,
                    invert=bool(i % 2),
                    bias_direction=bool((i // 2) % 2),
                )
            )
        elif cls == "random":
            # Mild spread of p around 0.5 keeps these unpredictable.
            p = 0.5 + 0.08 * ((i % 5) - 2) / 2.0
            behaviors.append(RandomBehavior(p))
        else:
            raise ValueError(f"unknown behaviour class {cls!r}")
    return behaviors


# Class-specific pc regions.  The inter-class spacing (0x8A3C) is
# deliberately *not* a multiple of any predictor table size, and the
# intra-class stride (0x34 = 52) shares only a factor of 4 with
# power-of-two table sizes -- otherwise statics of different classes
# land on identical bimodal/meta counters in lockstep and poison each
# other (a real aliasing bug found during calibration).
_CLASS_PC_SPACING = 0x8A3C
_CLASS_PC_STRIDE = 0x34
_CLASS_PC_BASE = {
    "biased": 0x0040_0000,
    "correlated": 0x0040_0000 + 1 * _CLASS_PC_SPACING,
    "pattern": 0x0040_0000 + 2 * _CLASS_PC_SPACING,
    "loop": 0x0040_0000 + 3 * _CLASS_PC_SPACING,
    "phased": 0x0040_0000 + 4 * _CLASS_PC_SPACING,
    "hidden": 0x0040_0000 + 5 * _CLASS_PC_SPACING,
    "random": 0x0040_0000 + 6 * _CLASS_PC_SPACING,
}


def build_workload(profile: BenchmarkProfile, seed: int = 0) -> WorkloadSpec:
    """Materialise a profile into a concrete static branch population."""
    spec = WorkloadSpec(
        name=profile.name, uops_per_branch=profile.uops_per_branch
    )
    rng = np.random.default_rng(derive_seed(seed, "workload", profile.name))
    for cls, class_weight in profile.class_weights.items():
        if class_weight <= 0:
            continue
        count = profile.static_counts[cls]
        behaviors = _make_behaviors(cls, count, profile, rng)
        weights = _zipf_weights(
            count, rng, s=_CLASS_ZIPF_S.get(cls, _DEFAULT_ZIPF_S)
        )
        weights = class_weight * weights / weights.sum()
        base = _CLASS_PC_BASE[cls]
        for i, (behavior, weight) in enumerate(zip(behaviors, weights)):
            spec.add(
                StaticBranch(
                    pc=base + _CLASS_PC_STRIDE * i,
                    behavior=behavior,
                    weight=float(weight),
                )
            )
    return spec


def benchmark_record_stream(name: str, seed: int = 0):
    """Unbounded lazy record stream for one Table 2 benchmark.

    Uses the same workload and seed derivation as
    :func:`generate_benchmark_trace`, so the first ``n`` records of this
    stream are exactly ``generate_benchmark_trace(name, n, seed)`` --
    the generator's prefixes are length-stable.  Streaming consumers
    (the segmented trace writer) handle arbitrarily long traces
    without ever materializing one.
    """
    if name.startswith("h2p."):
        from repro.trace.h2p import h2p_record_stream

        return h2p_record_stream(name, seed=seed)
    profile = benchmark_profile(name)
    spec = build_workload(profile, seed=seed)
    generator = TraceGenerator(spec, seed=derive_seed(seed, "trace", name))
    return generator.iter_records()


def generate_benchmark_trace(
    name: str, n_branches: int = 100_000, seed: int = 0
) -> Trace:
    """Generate a synthetic trace for one Table 2 benchmark.

    The trace is deterministic in (name, n_branches, seed); telemetry
    (the ``tracegen`` span, ``trace_generated_total``) is observational
    and never feeds back into generation.
    """
    if name.startswith("h2p."):
        from repro.trace.h2p import generate_h2p_trace

        return generate_h2p_trace(name, n_branches=n_branches, seed=seed)

    from repro import telemetry

    with telemetry.trace_span(
        "tracegen", benchmark=name, n_branches=n_branches, seed=seed
    ):
        profile = benchmark_profile(name)
        spec = build_workload(profile, seed=seed)
        generator = TraceGenerator(spec, seed=derive_seed(seed, "trace", name))
        trace = generator.generate(n_branches)
    tel = telemetry.get_registry()
    if tel.enabled:
        tel.counter("trace_generated_total", benchmark=name).inc()
        tel.histogram(
            "trace_generated_branches", buckets=telemetry.COUNT_BUCKETS
        ).observe(n_branches)
    return trace

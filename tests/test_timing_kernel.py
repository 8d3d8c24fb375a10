"""The compiled timing kernel against the Python model it ports.

``PipelineSimulator.simulate`` runs the C kernel; ``simulate_reference``
runs the Python loop, the oracle.  Every ``SimStats`` field must agree
by value *and* by type.  The loader tests break the build, the cache
directory, the cached library and the kernel itself, and require the
reference stats plus the right ``pipeline_kernel_fallbacks_total``
reason each time.

Without a C compiler (and no cached library) the kernel never loads:
the equivalence tests then exercise the fallback, and still pass.
"""

import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.frontend import FrontEndEvent
from repro.core.oracle import oracle_events
from repro.core.reversal import BranchAction, GatingOnlyPolicy, PolicyDecision
from repro.core.types import ConfidenceSignal
from repro.engine import Engine
from repro.engine.specs import (
    ALWAYS_HIGH,
    GATING_POLICY,
    NO_POLICY,
    THREE_REGION_POLICY,
    EstimatorSpec,
)
from repro.experiments.common import ExperimentSettings, job_for
from repro.pipeline import kernel
from repro.pipeline.config import PIPELINE_PRESETS, PipelineConfig
from repro.pipeline.simulator import PipelineSimulator
from repro.pipeline.stats import SimStats
from repro.telemetry.registry import parse_key

KERNEL_LOADS = kernel.unavailable_reason() is None
EXPECTED_PATH = "kernel" if KERNEL_LOADS else "python"


def canonical(stats):
    """Every field by name, type and exact value."""
    return [
        (f.name, type(getattr(stats, f.name)).__name__, repr(getattr(stats, f.name)))
        for f in fields(stats)
    ]


def event(pc=0x40, taken=True, prediction=True, action=BranchAction.NORMAL,
          uops_before=7):
    final = (not prediction) if action is BranchAction.REVERSE else prediction
    return FrontEndEvent(
        pc=pc,
        taken=taken,
        prediction=prediction,
        final_prediction=final,
        signal=ConfidenceSignal.high(0.0),
        decision=PolicyDecision(action, final),
        uops_before=uops_before,
    )


def assert_paths_agree(config, events, stats_factory=SimStats, path=EXPECTED_PATH):
    """Kernel and Python model agree; returns the kernel-path stats."""
    simulator = PipelineSimulator(config)
    actual = simulator.simulate(events, stats_factory())
    assert simulator.path == path
    expected = PipelineSimulator(config).simulate_reference(
        list(events), stats_factory()
    )
    assert canonical(actual) == canonical(expected)
    return actual


# ---------------------------------------------------------------------------
# Generated streams and configurations
# ---------------------------------------------------------------------------

_pcs = st.one_of(
    st.integers(0, 2**32),
    st.sampled_from([0, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 12345]),
    st.integers(2**63, 2**70),
)
_events = st.lists(
    st.builds(
        event,
        pc=_pcs,
        taken=st.booleans(),
        prediction=st.booleans(),
        action=st.sampled_from(list(BranchAction)),
        uops_before=st.one_of(st.just(0), st.integers(0, 24)),
    ),
    max_size=120,
)


@st.composite
def _configs(draw):
    fetch_width = draw(st.integers(1, 8))
    return PipelineConfig(
        fetch_width=fetch_width,
        depth=draw(st.integers(2, 50)),
        rob_size=fetch_width + draw(st.one_of(st.just(0), st.integers(0, 160))),
        base_uop_cycles=draw(st.one_of(
            st.sampled_from([0.0, 0.8, 1.0, 1.6]),
            st.floats(0.0, 3.0, allow_nan=False),
        )),
        resolve_jitter=draw(st.one_of(st.just(0), st.integers(0, 16))),
        estimator_latency=draw(st.one_of(st.just(0), st.integers(0, 12))),
        gating_threshold=draw(st.integers(1, 4)),
        gating_mode=draw(st.sampled_from(PipelineConfig.GATING_MODES)),
        throttle_factor=draw(st.one_of(
            st.just(0.0), st.floats(0.0, 0.99, allow_nan=False)
        )),
    )


class TestGeneratedEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=_configs(), events=_events)
    def test_every_field_matches(self, config, events):
        assert_paths_agree(config, events)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(config=_configs(), first=_events, second=_events)
    def test_accumulating_stats_argument(self, config, first, second):
        carried = PipelineSimulator(config).simulate_reference(first)
        simulator = PipelineSimulator(config)
        actual = simulator.simulate(second, SimStats(**vars(carried)))
        assert simulator.path == EXPECTED_PATH
        expected = PipelineSimulator(config).simulate_reference(
            second, SimStats(**vars(carried))
        )
        assert canonical(actual) == canonical(expected)


_EDGE_CONFIGS = {
    "throttle-factor-0": PipelineConfig(gating_mode="throttle", throttle_factor=0.0),
    "throttle": PipelineConfig(gating_mode="throttle", throttle_factor=0.25,
                               gating_threshold=2),
    "no-jitter": PipelineConfig(resolve_jitter=0),
    "no-estimator-latency": PipelineConfig(estimator_latency=0),
    "rob-equals-width": PipelineConfig(fetch_width=4, rob_size=4),
    "free-backend": PipelineConfig(base_uop_cycles=0.0),
    "int-backend-cost": PipelineConfig(base_uop_cycles=2),
}


def _edge_stream():
    actions = list(BranchAction)
    return [
        event(
            pc=(2**63 + i) if i % 3 == 0 else (2**64 + 7 * i) if i % 3 == 1 else i,
            taken=i % 5 != 0,
            prediction=i % 7 != 3,
            action=actions[i % 3],
            uops_before=0 if i % 4 == 0 else i % 11,
        )
        for i in range(300)
    ]


class TestEdgeCases:
    @pytest.mark.parametrize("name", sorted(_EDGE_CONFIGS))
    def test_edge_configuration(self, name):
        assert_paths_agree(_EDGE_CONFIGS[name], _edge_stream())

    def test_empty_stream_keeps_int_fields(self):
        stats = assert_paths_agree(PipelineConfig(), [])
        assert type(stats.wrong_path_uops) is int
        assert stats.total_cycles == 0.0

    def test_no_misprediction_keeps_wrong_path_uops_int(self):
        stats = assert_paths_agree(
            PipelineConfig(), [event() for _ in range(50)]
        )
        assert type(stats.wrong_path_uops) is int
        assert type(stats.wrong_path_uops_saved) is float

    def test_iterator_input(self):
        events = _edge_stream()
        simulator = PipelineSimulator(PipelineConfig())
        actual = simulator.simulate(iter(events))
        assert simulator.path == EXPECTED_PATH
        expected = PipelineSimulator(PipelineConfig()).simulate_reference(iter(events))
        assert canonical(actual) == canonical(expected)

    def test_stats_argument_accumulates(self):
        config = PipelineConfig()
        events = _edge_stream()
        stats = SimStats()
        simulator = PipelineSimulator(config)
        assert simulator.simulate(events, stats) is stats
        simulator.simulate(events, stats)
        expected = SimStats()
        reference = PipelineSimulator(config)
        reference.simulate_reference(events, expected)
        reference.simulate_reference(events, expected)
        assert canonical(stats) == canonical(expected)
        assert stats.branches == 2 * len(events)


# ---------------------------------------------------------------------------
# Real engine streams
# ---------------------------------------------------------------------------

_SETTINGS = ExperimentSettings(n_branches=3_000, warmup=1_000, seed=5)
_PERCEPTRON = EstimatorSpec.of("perceptron", threshold=0)
_THREE_REGION = EstimatorSpec.of("perceptron", threshold=-75, strong_threshold=0)


@pytest.fixture(scope="module", params=["reference", "fast"])
def real_streams(request):
    settings = replace(_SETTINGS, backend=request.param)
    jobs = {
        "null": job_for(settings, "gcc", ALWAYS_HIGH, policy=NO_POLICY),
        "gate": job_for(settings, "gcc", _PERCEPTRON, policy=GATING_POLICY),
        "3-region": job_for(settings, "mcf", _THREE_REGION,
                            policy=THREE_REGION_POLICY),
    }
    outcomes = Engine(max_workers=1).run(list(jobs.values()))
    streams = {name: o.events for name, o in zip(jobs, outcomes)}
    streams["oracle"] = oracle_events(streams["null"], GatingOnlyPolicy())
    return streams


@pytest.mark.parametrize("policy", ["null", "gate", "3-region", "oracle"])
@pytest.mark.parametrize("machine", sorted(PIPELINE_PRESETS))
def test_real_stream_matches(real_streams, policy, machine):
    config = PIPELINE_PRESETS[machine]
    assert_paths_agree(config, real_streams[policy])
    assert_paths_agree(config.with_gating(2, estimator_latency=9),
                       real_streams[policy])


# ---------------------------------------------------------------------------
# Loader robustness
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded kernel with a private cache dir and telemetry on."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernel, "_kernel", None)
    telemetry.disable()
    telemetry.reset()
    telemetry.enable()
    yield tmp_path
    telemetry.disable()
    telemetry.reset()


def fallbacks():
    """``pipeline_kernel_fallbacks_total`` by reason."""
    series = telemetry.get_registry().snapshot().counter_series(
        "pipeline_kernel_fallbacks_total"
    )
    return {parse_key(key)[1]["reason"]: value for key, value in series.items()}


def assert_falls_back(reason, config=PipelineConfig(), events=None):
    events = _edge_stream() if events is None else events
    assert_paths_agree(config, events, path="python")
    assert fallbacks() == {reason: 1}


compiler_required = pytest.mark.skipif(
    not (shutil.which("cc") or shutil.which("gcc")), reason="no C compiler"
)


class TestLoader:
    @compiler_required
    def test_kernel_loads_when_a_compiler_is_present(self):
        assert KERNEL_LOADS, kernel.unavailable_reason()

    def test_missing_compiler(self, fresh_loader, monkeypatch):
        monkeypatch.setenv("PATH", str(fresh_loader / "empty-bin"))
        assert_falls_back("compiler")

    @compiler_required
    def test_build_failure(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(kernel, "_source", lambda: b"this is not C\n")
        assert_falls_back("build")

    def test_foreign_owned_cache_dir(self, fresh_loader, monkeypatch):
        uid = os.getuid()
        monkeypatch.setattr(kernel.os, "getuid", lambda: uid + 1)
        assert_falls_back("cache_dir")

    def test_world_writable_cache_dir(self, fresh_loader):
        path = kernel.cache_dir()
        os.makedirs(path)
        os.chmod(path, 0o777)
        assert_falls_back("cache_dir")

    @pytest.mark.parametrize("damage", ["truncated", "garbled"])
    def test_damaged_library(self, fresh_loader, damage):
        path = kernel.library_path()
        os.makedirs(os.path.dirname(path), mode=0o700)
        if damage == "truncated":
            if not (shutil.which("cc") or shutil.which("gcc")):
                pytest.skip("no C compiler to build a library to truncate")
            # Built aside and never loaded: dlopen would hand a later
            # load of the same path the mapped original.
            full = str(fresh_loader / "full.so")
            kernel._build(kernel._source(), full)
            with open(full, "rb") as fh:
                data = fh.read(512)
        else:
            data = b"\x7fELF" + bytes(range(256)) * 8
        with open(path, "wb") as fh:
            fh.write(data)
        os.chmod(path, 0o700)
        assert_falls_back("load")
        # The damaged file is gone, so the next process rebuilds it.
        assert not os.path.exists(path)

    @compiler_required
    def test_self_test_mismatch(self, fresh_loader, monkeypatch):
        source = kernel._source()
        wrong = source.replace(b"return (double)s->cfg->rob_size",
                               b"return (double)s->cfg->rob_size - 1.0")
        assert wrong != source
        monkeypatch.setattr(kernel, "_source", lambda: wrong)
        assert_falls_back("selftest")

    @compiler_required
    @pytest.mark.parametrize("case", ["uops", "depth", "base-cost", "stats"])
    def test_values_outside_c_types(self, fresh_loader, case):
        events = _edge_stream()
        config = PipelineConfig()
        factory = SimStats
        if case == "uops":
            events[5] = event(uops_before=2**40)
        elif case == "depth":
            config = PipelineConfig(depth=2**40)
        elif case == "base-cost":
            config = PipelineConfig(base_uop_cycles=float("inf"))
        else:
            def factory():
                return SimStats(branches=1.5)
        simulator = PipelineSimulator(config)
        actual = simulator.simulate(events, factory())
        assert simulator.path == "python"
        expected = PipelineSimulator(config).simulate_reference(events, factory())
        assert canonical(actual) == canonical(expected)
        assert fallbacks() == {"range": 1}

    def test_module_runs_without_numpy(self):
        """One ``Engine.simulate`` with numpy unimportable.

        numpy is a package-level dependency, so the package ``__init__``
        modules are bypassed; the timing path itself must not need it.
        """
        src = os.path.dirname(os.path.dirname(os.path.dirname(kernel.__file__)))
        code = f"""
import os, sys, types
sys.modules["numpy"] = None
for name in ("repro", "repro.core", "repro.pipeline", "repro.predictors",
             "repro.trace", "repro.common", "repro.engine"):
    module = types.ModuleType(name)
    module.__path__ = [os.path.join({src!r}, *name.split("."))]
    sys.modules[name] = module
from repro.core.frontend import FrontEndEvent
from repro.core.reversal import BranchAction, PolicyDecision
from repro.core.types import ConfidenceSignal
from repro.engine.engine import Engine
from repro.pipeline import kernel
from repro.pipeline.config import BASELINE_40X4
events = [
    FrontEndEvent(pc=i, taken=i % 3 > 0, prediction=True, final_prediction=True,
                  signal=ConfidenceSignal.high(0.0),
                  decision=PolicyDecision(BranchAction.GATE, True), uops_before=6)
    for i in range(500)
]
stats = Engine.simulate(events, BASELINE_40X4)
print("python" if kernel.unavailable_reason() else "kernel", stats.branches)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.split() == [EXPECTED_PATH, "500"]


def test_engine_simulate_span_and_counters(fresh_loader):
    """One ``pipeline.simulate`` span per call; the load self-test is silent."""
    events = _edge_stream()
    telemetry.begin_span_capture()
    try:
        Engine.simulate(events, PipelineConfig())
    finally:
        spans = telemetry.drain_span_capture()
    snapshot = telemetry.get_registry().snapshot()
    assert snapshot.counter("pipeline_simulations_total") == 1
    simulate_spans = [
        e for e in spans
        if e.get("event") == "span" and e["name"] == "pipeline.simulate"
    ]
    assert len(simulate_spans) == 1
    expected_path = "kernel" if shutil.which("cc") or shutil.which("gcc") else "python"
    assert simulate_spans[0]["fields"] == {"events": len(events), "path": expected_path}

"""Tests for the benchmark itself (not part of the program's tier-1 suite).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import self_times  # noqa: E402


def _events(workload, seed):
    return sum(job.n_branches - job.warmup for job in workloads.planned_jobs(workload, seed))


@pytest.mark.parametrize("seed", [1, 7, 101])
def test_replay_working_set_exceeds_memory_lru(seed):
    for name in ("replay-cold", "replay-warm"):
        assert _events(workloads.WORKLOADS[name], seed) > workloads.EVENT_BUDGET


@pytest.mark.parametrize("seed", [1, 101])
def test_paper_working_set_fits_memory_lru(seed):
    # The runner path has no disk tier: its outcome check reads the
    # phase's outcomes back from memory, which needs no eviction.
    assert _events(workloads.WORKLOADS["paper-serial"], seed) <= workloads.EVENT_BUDGET


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_plans_the_same_work(name):
    workload = workloads.WORKLOADS[name]
    sizes = {len(workloads.planned_jobs(workload, seed)) for seed in (*range(1, 11), 101)}
    assert len(sizes) == 1


def test_self_time_skips_program_spans():
    spans = [
        {"event": "span", "name": "bench.engine.run", "span_id": 1, "parent_id": None, "duration_s": 10.0},
        {"event": "span", "name": "engine.run", "span_id": 2, "parent_id": 1, "duration_s": 9.0},
        {"event": "span", "name": "bench.replay", "span_id": 3, "parent_id": 2, "duration_s": 6.0},
        {"event": "span", "name": "bench.trace", "span_id": 4, "parent_id": 3, "duration_s": 1.5},
        {"event": "span", "name": "bench.replay", "span_id": 5, "parent_id": None, "duration_s": 2.0},
    ]
    assert self_times(spans) == {"engine.run": 4.0, "replay": 6.5, "trace": 1.5}


def test_speed_window_converts_to_reference_speed():
    meter = child.Speedometer()
    meter.stop()
    nominal = child.PROBE_NOMINAL_S
    meter.samples = [(1.0, nominal), (2.0, 2 * nominal), (3.0, 2 * nominal), (9.0, nominal)]
    # Twice the nominal time per sample: the host ran at half speed.
    assert meter.window(1.5, 3.5) == pytest.approx({"speed": 0.5, "probe_s": 4 * nominal, "samples": 2})
    # A window with no sample takes the whole process's speed.
    assert meter.window(4.0, 5.0)["speed"] == pytest.approx(4 / 6)
    assert meter.window(4.0, 5.0)["probe_s"] == 0


def test_steal_is_taken_off_only_while_off_cpu():
    probe = {"probe_s": 0.25, "speed": 2.0}
    # 5 s of host time with 4 s on the CPU: at most 1 s can be steal.
    assert run.at_reference_speed(5.0, 4.0, 3.0, probe) == pytest.approx(2 * 3.75)
    assert run.at_reference_speed(5.0, 4.0, 0.5, probe) == pytest.approx(2 * 4.25)
    assert run.at_reference_speed(5.0, 4.0, 0.0, probe) == pytest.approx(2 * 4.75)


def _checkout(tmp_path, with_sources: bool):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    if with_sources:
        os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_without_sources_fails_without_result(tmp_path):
    _checkout(tmp_path, with_sources=False)
    proc = _run(tmp_path, "--workload", "paper-serial", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("record", [False, True])
def test_corrupted_expected_digest_fails(tmp_path, record):
    _checkout(tmp_path, with_sources=True)
    digests = tmp_path / "perfbench" / "digests.json"
    recorded = json.loads(digests.read_text())
    assert recorded["paper-serial"]["1"], "seed 1 must have a recorded digest"
    recorded["paper-serial"]["1"] = "0" * 64
    digests.write_text(json.dumps(recorded))
    corrupted = digests.read_text()

    args = ["--workload", "paper-serial", "--seed", "1", "--seconds", "0", "--trace", "0"]
    proc = _run(tmp_path, *args, *(["--record"] if record else []))
    # --record never replaces a recorded digest.
    assert digests.read_text() == corrupted
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "report digest" in proc.stderr

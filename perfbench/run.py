"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 25 --trace 0

Each repetition runs its timed phase in a fresh child process
(``child.py``), so caches start cold, ``peak_rss_mb`` is per phase and
``cpu_s`` covers children.  ``replay-warm`` first fills one disk cache
per run in a fill process, and every repetition reads it.  Repetitions
continue until ``--seconds`` have passed (at least ``MIN_REPS``); every
timing is the median over repetitions.  Times are reported at the
reference speed of the children's speed probe (``child.Speedometer``),
which takes the shared host's drifting speed out of them; the readable
lines give the host times as well.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics of
``layers.py``; ``tracing_overhead_s`` is the traced minus the untraced
median wall time.  The traced spans are written to
``.perfbench/traces/<workload>-seed<seed>.jsonl``.

Outputs are checked on every run: each repetition's rendered report must
hash to the digest recorded in ``digests.json`` for the workload and
seed (when one is recorded), all repetitions must agree, and a fixed
sample of the workload's jobs is re-run on the reference backend and its
metrics digests compared.  ``--record`` stores the report digest for a
workload and seed that have none recorded yet; an existing digest is
compared as usual and never replaced.  A failed check or a
crashed phase counts as failed operations and makes the command exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from child import steal_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Repetitions per run, whatever ``--seconds`` says (per kind in traced runs).
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: No repetition starts after this many seconds, so a run ends well
#: inside three minutes.
MAX_START_S = 110.0
CHILD_TIMEOUT_S = 120.0

class PhaseFailed(RuntimeError):
    """A child process exited non-zero or printed no result."""


def _child(config: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, CHILD, json.dumps(config)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PhaseFailed(
            f"{config['mode']} phase exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def at_reference_speed(host_s: float, cpu_s: float, steal_s: float, probe: dict) -> float:
    """A host time with the shared host's interference taken out.

    The steal in the interval is taken off, as far as the process was
    off its CPU (``host_s - cpu_s``) to suffer it; so is the probe's own
    CPU time.  The rest is multiplied by the probe's speed over the
    interval, which gives the time at the probe's reference speed.
    """
    steal = min(max(steal_s, 0.0), max(host_s - cpu_s, 0.0))
    return (host_s - steal - probe["probe_s"]) * probe["speed"]


def fill_cache(workload, seed: int, work: str, cache_dir: str) -> tuple:
    """The warm workload's set-up: one cold pass that fills ``cache_dir``.

    Returns the fill's host time and its time at the reference speed.
    """
    start, steal0 = time.monotonic(), steal_seconds()
    fill = _child(
        {
            "mode": "fill",
            "workload": workload.name,
            "seed": seed,
            "work_dir": os.path.join(work, "fill"),
            "cache_dir": cache_dir,
        }
    )
    host = time.monotonic() - start
    steal = steal_seconds() - steal0
    return host, at_reference_speed(host, fill["cpu_s"], steal, fill["setup"])


def run_rep(workload, seed: int, work_dir: str, cache_dir: str, fill: tuple, trace: bool, check: bool, trace_out) -> dict:
    """One repetition: a timed phase in a fresh process.

    ``fill`` is the warm fill's (host, reference-speed) time, which
    counts in every repetition's set-up; it is ``(0, 0)`` for the cold
    workloads.
    """
    config = {
        "mode": "phase",
        "workload": workload.name,
        "seed": seed,
        "work_dir": work_dir,
        "cache_dir": cache_dir,
        "trace": trace,
        "check": check,
        "trace_out": trace_out,
    }
    try:
        spawned, steal0 = time.monotonic(), steal_seconds()
        result = _child(config)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    host_setup = result["ready"] - spawned
    setup_steal = result["setup_steal_end"] - steal0
    phase = result["phase"]
    result.update(
        host_wall_s=result["wall_s"],
        host_setup_s=fill[0] + host_setup,
        wall_s=at_reference_speed(result["wall_s"], result["cpu_s"], result["steal_s"], phase),
        cpu_s=at_reference_speed(result["cpu_s"], result["cpu_s"], 0.0, phase),
        setup_s=fill[1] + at_reference_speed(host_setup, result["setup_cpu_s"], setup_steal, result["setup"]),
        traced=trace,
    )
    return result


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def record_digest(workload: str, seed: int, digest: str) -> None:
    digests = load_digests()
    digests.setdefault(workload, {})[str(seed)] = digest
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


def measure(workload, seed: int, seconds: float, trace: bool, work: str) -> list:
    """Run repetitions until ``seconds`` pass; a failed phase raises."""
    reps = []
    trace_out = os.path.join(WORK_ROOT, "traces", f"{workload.name}-seed{seed}.jsonl")
    start = time.monotonic()
    # The warm workload shares one filled cache among its repetitions;
    # the cold ones start each repetition from an empty cache.
    shared_cache = os.path.join(work, "cache")
    fill = fill_cache(workload, seed, work, shared_cache) if workload.warm else (0.0, 0.0)

    def enough() -> bool:
        untraced = sum(1 for r in reps if not r["traced"])
        traced = len(reps) - untraced
        if trace and (untraced < MIN_TRACED_REPS or traced < MIN_TRACED_REPS):
            return False
        if not trace and untraced < MIN_REPS:
            return False
        return time.monotonic() - start >= seconds

    while not enough() and time.monotonic() - start < MAX_START_S:
        traced = trace and len(reps) % 2 == 1
        rep_dir = os.path.join(work, f"rep{len(reps)}")
        reps.append(
            run_rep(
                workload,
                seed,
                rep_dir,
                shared_cache if workload.warm else os.path.join(rep_dir, "cache"),
                fill,
                trace=traced,
                check=not reps,
                trace_out=trace_out if traced else None,
            )
        )
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="record the report digest for this workload and seed if none is recorded")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    plan = workloads.planned_jobs(workload, args.seed)
    planned_branches = sum(job.n_branches for job in plan)
    ops_per_rep = len(plan) + len(workload.experiments)

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    attempted = failed = 0
    try:
        reps = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except (PhaseFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        reps = []
        attempted = failed = ops_per_rep
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Output checks: the report digest of every repetition, then the
    # reference-backend sample of the first.
    digests = {r["report_sha256"] for r in reps}
    expected = load_digests().get(workload.name, {}).get(str(args.seed))
    # --record only fills a seed that has no digest yet; a recorded
    # digest is the reference and is compared, never replaced.
    if args.record and expected is None and len(digests) == 1:
        expected = next(iter(digests))
        record_digest(workload.name, args.seed, expected)
    for rep in reps:
        attempted += ops_per_rep + rep["simulations"] + 1
        ok = len(digests) == 1 and expected in (None, rep["report_sha256"])
        if not ok:
            failed += 1
            print(f"perfbench: report digest {rep['report_sha256'][:16]} != expected {str(expected)[:16]}", file=sys.stderr)
        for check in rep.get("checks", ()):
            attempted += 1
            if not check["ok"]:
                failed += 1
                print(f"perfbench: reference backend disagrees on {check['job']}", file=sys.stderr)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    declared = load_benchmark()["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    if untraced and (traced or not args.trace):
        wall = statistics.median(r["wall_s"] for r in untraced)
        values = {
            "wall_s": wall,
            "branches_per_s": planned_branches / wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(r["setup_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        print(
            f"{workload.name} seed {args.seed}: {len(untraced)} untraced + "
            f"{len(traced)} traced repetitions, {len(plan)} unique jobs, "
            f"{planned_branches} planned branches"
        )
        for i, rep in enumerate(reps):
            kind = "traced" if rep["traced"] else "untraced"
            print(
                f"  rep {i} ({kind}): wall {rep['wall_s']:.3f} s, setup {rep['setup_s']:.3f} s; "
                f"host wall {rep['host_wall_s']:.3f} s, setup {rep['host_setup_s']:.3f} s, "
                f"steal {rep['steal_s']:.2f} s, speed {rep['phase']['speed']:.3f} "
                f"({rep['phase']['samples']} samples)"
            )
        for name, value in values.items():
            print(f"  {name:<16} {value:14.4f}")
        if args.trace:
            values = layer_values(traced, wall)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"  failed_frac      {failed / max(1, attempted):14.4f} ({failed} of {attempted} operations)")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def load_benchmark() -> dict:
    """``BENCHMARK.json``: the declared metrics, their units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def layer_values(traced: list, untraced_wall: float) -> dict:
    """Per-layer metrics: self times are medians, counts from the last rep."""
    from layers import SELF_TIME_METRICS

    timed = set(SELF_TIME_METRICS) | {"unattributed_s"}
    values = {
        name: statistics.median(r["layers"][name] for r in traced) if name in timed else value
        for name, value in traced[-1]["layers"].items()
    }
    values["tracing_overhead_s"] = statistics.median(r["wall_s"] for r in traced) - untraced_wall
    return values


if __name__ == "__main__":
    sys.exit(main())

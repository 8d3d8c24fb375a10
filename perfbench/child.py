"""One benchmark phase in a fresh interpreter, so every cache starts cold.

Usage: ``python3 perfbench/child.py CONFIG_JSON``, as ``run.py`` calls
it.  The config names the workload, seed, working directory, disk
cache directory and mode:

- ``fill``: one untimed cold pass that fills the disk cache (the
  set-up of ``replay-warm``);
- ``phase``: set up, then time one phase of the workload, optionally
  traced (``trace``) and followed by the reference-backend output check
  (``check``).

The last line of standard output is a JSON object with the phase's
measurements; ``ready`` is the ``time.monotonic()`` reading at the end
of set-up, which the parent subtracts from its spawn time, and
``setup_steal_end`` the :func:`steal_seconds` reading there.  Times are
host times; ``setup`` and ``phase`` carry the speed probe's reading over
each (:class:`Speedometer`), which the parent uses to convert them to
the reference speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: The speed probe: after every ``PROBE_INTERVAL_S`` of process CPU time
#: a SIGPROF handler runs a frozen pure-Python kernel of
#: ``PROBE_ITERATIONS`` steps on the main thread, timed on the thread's
#: CPU clock.  ``PROBE_NOMINAL_S`` is the kernel's time at the reference
#: speed: a sample of twice that means the host ran at half speed.
PROBE_ITERATIONS = 400
PROBE_INTERVAL_S = 0.01
PROBE_NOMINAL_S = 0.00025


class _ProbeState:
    __slots__ = ("ring", "table", "rises", "falls")

    def __init__(self):
        self.ring = [0] * 64
        self.table = {}
        self.rises = 0
        self.falls = 0.0

    def step(self, i: int, x: int) -> int:
        slot = i & 63
        prev = self.ring[slot]
        self.ring[slot] = x
        if x > prev:
            self.rises += 1
        else:
            self.falls += 0.5
        self.table[slot] = self.table.get(slot, 0) + 1
        return max(prev, x)


def probe_kernel(iterations: int) -> int:
    """Attribute, list, dict and call work, like the interpreter-bound layers."""
    state = _ProbeState()
    step = state.step
    top = 0
    for i in range(iterations):
        top = step(i, (i * 2654435761) & 0xFFFF)
    return top


class Speedometer:
    """Samples the host's speed while this process runs.

    The host is shared, and the speed it gives one process drifts by up
    to a factor of two, over seconds and over minutes.  Interpreter-bound
    layers feel that drift as the probe kernel does, because the probe
    runs on the same thread, interleaved with them; layers bound by
    memory traffic, such as disk cache reads, feel less of it.  Dividing
    a measured time by the probe's mean slowdown over the same interval
    gives the time at the reference speed.
    """

    def __init__(self):
        self.samples = []  # (time.monotonic() at the end, probe CPU seconds)
        signal.signal(signal.SIGPROF, self._sample)
        # Restart interrupted system calls, as if no probe were there.
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        probe_kernel(PROBE_ITERATIONS)
        self.samples.append((time.monotonic(), time.thread_time() - start))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def window(self, start: float = float("-inf"), end: float = float("inf")) -> dict:
        """The speed (1.0 = reference) and probe CPU time in a window.

        A measured time, less the probe's own CPU time, multiplied by
        ``speed`` is that time at the reference speed.  A window too
        short to hold a sample takes the speed of the whole process.
        """
        taken = [cpu for at, cpu in self.samples if start <= at <= end]
        every = taken or [cpu for _, cpu in self.samples]
        return {
            "speed": PROBE_NOMINAL_S * len(every) / sum(every) if every else 1.0,
            "probe_s": sum(taken),
            "samples": len(taken),
        }


def steal_seconds() -> float:
    """Time the hypervisor gave this machine's CPUs to other guests.

    The ``steal`` column of ``/proc/stat``, summed over CPUs since boot.
    Steal stops a process without counting as its CPU time, so the speed
    probe cannot see it.  Without ``/proc/stat`` it reads 0.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(config: dict, speedometer: Speedometer) -> dict:
    # Imported here, so the probe also samples the imports of set-up.
    import workloads
    from repro import telemetry

    workload = workloads.WORKLOADS[config["workload"]]
    work_dir, cache_dir = config["work_dir"], config["cache_dir"]
    if config["mode"] == "fill":
        fill = workloads.Phase(workload, config["seed"], work_dir, cache_dir)
        fill.run()
        fill.close()
        speedometer.stop()
        return {"setup": speedometer.window(), "cpu_s": _cpu_seconds()}

    phase = workloads.Phase(workload, config["seed"], work_dir, cache_dir)
    tracer = None
    if config["trace"]:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
        telemetry.begin_span_capture()
    ready = time.monotonic()
    steal0 = steal_seconds()

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    text = phase.run()
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    steal = steal_seconds() - steal0
    done = time.monotonic()
    speedometer.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ready": ready,
        "setup_steal_end": steal0,
        "setup_cpu_s": cpu0,
        "wall_s": wall,
        "cpu_s": cpu,
        "steal_s": steal,
        "setup": speedometer.window(end=ready),
        "phase": speedometer.window(ready, done),
        "peak_rss_mb": peak_rss_mb,
        "report_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "simulations": telemetry.get_registry().snapshot().counter(
            "pipeline_simulations_total"
        ),
    }
    if tracer is not None:
        spans = telemetry.drain_span_capture()
        tracer.uninstall()
        result["layers"] = tracer.metrics(spans, wall, phase.engine)
        if config.get("trace_out"):
            from layers import write_trace

            write_trace(spans, config["trace_out"])
    if config["check"]:
        plan = workloads.planned_jobs(workload, config["seed"])
        result["checks"] = workloads.reference_check(phase, workloads.sample_jobs(plan))
    phase.close()
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]), Speedometer())))

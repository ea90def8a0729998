"""Statistics helpers shared by every workload.

Kept free of ``repro`` imports so the helpers (and their tests) run in
a bare checkout.
"""

import math
import re
import time

#: Metric names the benchmark may print (the rule BENCHMARK.json follows).
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles tried for a tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: Below this many samples the tail is flagged (p90 is then out of reach).
TAIL_MIN_N = 100


def check_metric_name(name):
    """Return ``name`` if it is a legal metric name, else raise ValueError."""
    if not isinstance(name, str) or not METRIC_NAME.fullmatch(name):
        raise ValueError(f"illegal metric name {name!r}")
    return name


def percentile(values, q):
    """The ``q``-th percentile (0..100) by nearest rank on sorted data."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(rank, 1)) - 1]


def tail_percentile(n):
    """Highest ladder percentile with at least ``TAIL_BEYOND`` samples beyond.

    ``n * (1 - q/100) >= 10``: p99 needs 1000 samples, p95 200, p90 100.
    Returns None when even the median is out of reach (n < 20).
    """
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_BEYOND - 1e-9:
            return q
    return None


def summarize(values):
    """Median and tail of ``values`` with ``n`` and the tail's percentile.

    ``flagged`` is True when the tail rests on fewer than ``TAIL_MIN_N``
    samples, so it must not be quoted as a tail.
    """
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail": None, "tail_q": None,
                "flagged": True}
    q = tail_percentile(n)
    return {
        "n": n,
        "p50": percentile(values, 50.0),
        "tail": percentile(values, q) if q is not None else max(values),
        "tail_q": q,
        "flagged": n < TAIL_MIN_N,
    }


def failure_counts(outcomes):
    """``(attempted, failed)`` from an iterable of outcome strings.

    Every outcome other than ``"ok"`` -- an error, a refusal, a wrong
    answer, an op still unfinished at the end -- counts as failed.
    """
    attempted = failed = 0
    for outcome in outcomes:
        attempted += 1
        if outcome != "ok":
            failed += 1
    return attempted, failed


#: The reference loop's time on the host the bounds were tuned on (a
#: 2-vCPU VM, in its usual slower state).  Normalised costs are scaled
#: to it, so they read as microseconds on that host.
REFERENCE_S = 0.0045


def reference_loop():
    """Fixed pure-Python work that shares no code with the program."""
    table = {}
    total = 0
    for i in range(20000):
        table[i & 1023] = i
        total += table[i & 511] * 3 % 7
    return total


def probe():
    """Seconds the reference loop takes right now on this core.

    The host this was tuned on runs the same code up to 1.7x slower for
    seconds at a time, per vCPU.  Dividing a window's cost by a probe
    taken on the same core at its edges removes most of that.
    """
    started = time.perf_counter()
    reference_loop()
    return time.perf_counter() - started


def at_reference(seconds, probes):
    """``seconds`` scaled to the reference speed by the mean of ``probes``."""
    return seconds * REFERENCE_S / (sum(probes) / len(probes))


def scaled_costs(marks):
    """Per-op costs over the whole stretch ``marks`` cover, every op weighed.

    ``marks`` are cumulative ``(wall_s, cpu_s, ops_done, probe_s, ...)``
    samples, the probe taken on the same core at the mark (and excluded
    from the clocks).  Each window's CPU time is scaled by
    ``REFERENCE_S`` over the mean of its edge probes.  The probe gives
    the core's speed, so only time on the core is scaled: a window's
    ``wall_ref`` is its scaled CPU time plus its wall time off the core
    (sleeps, waits), as measured.  The windows are summed and divided
    by the ops done over the whole stretch, so a window of backlog
    weighs as much as the ops it cost.  Returns seconds per op:
    ``wall`` and ``cpu`` as measured, ``wall_ref`` and ``cpu_ref`` at
    the reference speed; None when no op was done.
    """
    if len(marks) < 2 or marks[-1][2] <= marks[0][2]:
        return None
    totals = {"wall": 0.0, "cpu": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0}
    for a, b in zip(marks, marks[1:]):
        wall, cpu = b[0] - a[0], b[1] - a[1]
        cpu_ref = at_reference(cpu, (a[3], b[3]))
        totals["wall"] += wall
        totals["cpu"] += cpu
        totals["wall_ref"] += wall - cpu + cpu_ref
        totals["cpu_ref"] += cpu_ref
    done = marks[-1][2] - marks[0][2]
    return {key: value / done for key, value in totals.items()}


class Marker:
    """Takes ``(wall, cpu, ops_done, probe, raw_wall)`` marks.

    Each mark reads the clocks, then probes the core.  The probe's own
    time is subtracted from every later ``wall`` and ``cpu`` reading, so
    no window pays it; ``raw_wall`` is the unadjusted wall clock, for
    placing the mark against other processes' clocks.
    """

    def __init__(self):
        self.marks = []
        self._skip_wall = 0.0
        self._skip_cpu = 0.0

    def mark(self, done):
        wall, cpu = time.perf_counter(), time.process_time()
        speed = probe()
        self.marks.append((wall - self._skip_wall, cpu - self._skip_cpu,
                           done, speed, wall))
        self._skip_wall += time.perf_counter() - wall
        self._skip_cpu += time.process_time() - cpu


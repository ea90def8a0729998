"""Host-cost benchmark: wall/CPU per op on four workloads, traced by layer.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # every workload, traced
    python3 perfbench/run.py --workload orders --seed 3 --seconds 10 --trace 0

With ``--workload`` it runs one workload and prints, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it report every metric with its unit, its
clock (host or virtual) and its sample count.  Without ``--workload`` it
runs each workload in turn and exits non-zero if any output check
fails.  See ``README.md``.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("orders", "storefront", "fleet", "checkout-http")

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 5

#: Every end-to-end metric: (name, unit).  All are host figures.
END_TO_END = (
    ("wall_ref_us_per_op", "us"),
    ("cpu_ref_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _require_program():
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def emit(correct, attempted, failed, metrics, lines):
    from stats import check_metric_name

    for name in metrics:
        check_metric_name(name)
    for line in lines:
        print(line)
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def cost_lines(costs, windows):
    """Report lines for the measured and the reference-speed costs."""
    return [
        f"wall_ref_us_per_op = {costs['wall_ref']:.1f} us  [host, at the "
        f"reference speed, {windows}]",
        f"cpu_ref_us_per_op = {costs['cpu_ref']:.1f} us  [host, at the "
        f"reference speed, {windows}]",
        f"wall_us_per_op = {costs['wall']:.1f} us  [host, as measured, "
        f"{windows}]",
        f"cpu_us_per_op = {costs['cpu']:.1f} us  [host, as measured, "
        f"{windows}]",
    ]


def latency_lines(name, summary, clock):
    """Median and tail lines, each with its n; small tails are flagged."""
    n = summary["n"]
    if not n:
        return [f"{name}_p50_ms: no samples  [{clock}]"]
    q = summary["tail_q"]
    where = f"p{q:g}" if q is not None else "max"
    flag = "  FLAGGED: fewer than 100 samples" if summary["flagged"] else ""
    return [
        f"{name}_p50_ms = {summary['p50'] * 1e3:.3f} ms  [{clock}, n={n}]",
        f"{name}_tail_ms = {summary['tail'] * 1e3:.3f} ms  "
        f"[{clock}, {where}, n={n}]{flag}",
    ]


# -- the simulated workloads ------------------------------------------------


def import_seconds(module):
    """Time for a fresh interpreter to start and import ``module``.

    Returns ``(at_reference, as_measured)``, each the median of
    ``SETUPS`` starts.  The child probes its core before and after the
    import; the probes' own time is taken out and their mean scales the
    start to the reference speed.
    """
    from stats import at_reference

    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
            f"from stats import probe; before = probe(); import {module}; "
            f"print(before, probe())")
    scaled, raw = [], []
    for _ in range(SETUPS):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - started
        probes = [float(word) for word in proc.stdout.split()]
        raw.append(elapsed - sum(probes))
        scaled.append(at_reference(raw[-1], probes))
    return statistics.median(scaled), statistics.median(raw)


def timed_build(build):
    """Run ``build()``; returns (its result, seconds at reference, as measured).

    The build is bracketed by probes of the core it ran on.
    """
    from stats import at_reference, probe

    before = probe()
    started = time.perf_counter()
    result = build()
    elapsed = time.perf_counter() - started
    return result, at_reference(elapsed, (before, probe())), elapsed


def setup_line(setup_s, imports, builds):
    """Report line for ``setup_s``; ``builds`` are (at reference, raw) pairs."""
    return (f"setup_s = {setup_s:.4f} s  [host, at the reference speed: "
            f"median of {SETUPS} fresh imports {imports[0]:.3f} s (as "
            f"measured {imports[1]:.3f} s) + median of {len(builds)} builds "
            + ", ".join(f"{ref:.3f}" for ref, _raw in builds) + " s (as "
            "measured " + ", ".join(f"{raw:.3f}" for _ref, raw in builds)
            + " s)]")


def run_sim(name, seed, seconds, trace):
    from workloads import SIM_WORKLOADS

    cls = SIM_WORKLOADS[name]
    if trace:
        return run_sim_traced(cls, seed)
    from stats import failure_counts, scaled_costs, summarize

    imports = import_seconds("workloads")
    builds = []
    for _ in range(SETUPS):
        workload, *timing = timed_build(cls(seed).setup)
        builds.append(timing)
    setup_s = imports[0] + statistics.median(ref for ref, _raw in builds)

    # Episodes: the same deterministic stretch of load, each on a fresh
    # app, until --seconds have passed.  Per-op cost can grow as the
    # stores fill, so every run must weigh the same stretch of it.
    first = workload
    costs = {"wall": [], "cpu": [], "wall_ref": [], "cpu_ref": []}
    wall0 = time.perf_counter()
    episodes = completed = 0
    while True:
        for key, value in scaled_costs(run_episode(workload)).items():
            costs[key].append(value)
        episodes += 1
        completed += workload.completed()
        if episodes == 1:
            rss = peak_rss_mb()  # after a fixed amount of work
        if time.perf_counter() - wall0 >= seconds:
            break
        workload = cls(seed).setup()
    wall = time.perf_counter() - wall0
    workload = first
    unfinished_prefix = sum(1 for op in workload.prefix_ops()
                            if op.outcome is None)
    workload.stop()
    workload.drain()
    failures = workload.check()
    attempted, failed = failure_counts(op.outcome for op in workload.ops)
    latency = summarize(workload.prefix_latencies())
    windows = (f"median over {episodes} episodes of "
               f"{workload.prefix + workload.margin:g} s virtual, each the "
               f"sum of its {workload.window:g} s windows over its ops, "
               f"n={completed} ops")
    costs = {key: statistics.median(values) * 1e6
             for key, values in costs.items()}
    metrics = {
        "wall_ref_us_per_op": metric(costs["wall_ref"], "us"),
        "cpu_ref_us_per_op": metric(costs["cpu_ref"], "us"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    lines = [
        f"workload {name} seed {seed}: {completed} ops completed in "
        f"{wall:.3f} s host",
        *cost_lines(costs, windows),
        *latency_lines("vt", latency, "virtual"),
        setup_line(setup_s, imports, builds),
        f"peak_rss_mb = {rss:.1f} MB  [host, after the first episode]",
        f"failed_frac = {failed / attempted:.6f}  [{failed} of {attempted}]",
        f"determinism: offered {workload.fingerprint()} "
        f"vt {_vt_digest(workload)} state {workload.state_digest} "
        f"events {workload.event_digest(workload.prefix_end)}",
    ]
    if unfinished_prefix:
        lines.append(f"warning: {unfinished_prefix} prefix ops were unfinished "
                     "when the episode's load stopped")
    lines += [f"CHECK FAILED: {failure}" for failure in failures]
    return emit(not failures, attempted, failed, metrics, lines)


def run_episode(workload):
    """Run one episode's load through its horizon; returns the marks."""
    from stats import Marker

    workload.start()
    env = workload.env
    marker = Marker()
    marker.mark(0)
    next_mark = env.now + workload.window
    horizon = workload.prefix_end + workload.margin
    while env.now < horizon - 1e-9:
        workload.run_chunk()
        if env.now >= next_mark - 1e-9:
            marker.mark(workload.completed())
            next_mark += workload.window
    workload.stop()
    return marker.marks


def _vt_digest(workload):
    from workloads import digest

    return digest([[op.id, round(op.due, 9), round(op.done, 9)]
                   for op in workload.prefix_ops() if op.done is not None])


def run_sim_traced(cls, seed):
    """Untraced then traced run of the same deterministic prefix.

    The per-layer counts and self times cover the virtual prefix (the
    first ``prefix`` seconds of load) and are normalised by the ops that
    arrived in it,
    so counts repeat exactly for a seed.  The untraced arm gives the
    tracing overhead and the reference digests the traced arm must
    reproduce.
    """
    from layers import Instrumentation
    from spans import SpanRecorder
    from stats import Marker, at_reference, failure_counts

    def timed_prefix(workload):
        """Host seconds for the prefix, and the same at reference speed."""
        marker = Marker()
        marker.mark(0)
        workload.start()
        env = workload.env
        while env.now < workload.prefix_end - 1e-9:
            workload.run_until(min(env.now + workload.window,
                                   workload.prefix_end))
            marker.mark(0)
        pairs = list(zip(marker.marks, marker.marks[1:]))
        return (sum(b[0] - a[0] for a, b in pairs),
                sum(at_reference(b[0] - a[0], (a[3], b[3]))
                    for a, b in pairs))

    plain = cls(seed).setup()
    wall_plain, ref_plain = timed_prefix(plain)
    reference = (_done_digest(plain), plain.event_digest(plain.prefix_end))
    page_costs = (plain.page_costs() if hasattr(plain, "page_costs")
                  else None)
    del plain

    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder).install()
    try:
        workload = cls(seed, recorder=recorder).setup()
        copy0 = _copy_stats(workload)
        recorder.reset()
        wall_traced, ref_traced = timed_prefix(workload)
        snapshot = _snapshot(recorder, wall_traced)
        copy1 = _copy_stats(workload)
        traced = (_done_digest(workload),
                  workload.event_digest(workload.prefix_end))
        workload.stop()
        workload.drain()
        failures = workload.check()
    finally:
        instrumentation.uninstall()
    if traced != reference:
        failures.append(f"tracing changed the run: {reference} -> {traced}")
    n_ops = len(workload.prefix_ops())
    extra = {
        "store.cow.copied_bytes": copy1["copied_bytes"] - copy0["copied_bytes"],
        "store.cow.shared_bytes": (copy1["shared_bytes_avoided"]
                                   - copy0["shared_bytes_avoided"]),
        "trace.overhead_ratio": ref_traced / ref_plain,
    }
    pages = getattr(workload, "pages", [])  # (strategy, staleness) per page
    if pages:
        materialized = (sum(1 for strategy, _ in pages
                            if strategy == "materialized") / len(pages))
        extra["federation.materialized_frac"] = materialized
        extra["federation.max_staleness_ms"] = max(
            (staleness for strategy, staleness in pages
             if strategy == "materialized"), default=0.0) * 1e3
    if page_costs:
        # The mix of the prefix, weighed by each strategy's cost alone.
        federated_s = (1 - materialized) * page_costs["federated"]
        materialized_s = materialized * page_costs["materialized"]
        extra["federation.federated_page_us"] = page_costs["federated"] * 1e6
        extra["federation.materialized_page_us"] = (
            page_costs["materialized"] * 1e6)
        extra["federation.federated_time_share"] = (
            federated_s / (federated_s + materialized_s))
    attempted, failed = failure_counts(op.outcome for op in workload.ops)
    metrics, lines = per_layer_metrics(snapshot, n_ops, extra)
    lines.insert(0, f"workload {cls.name} seed {seed} traced: {n_ops} ops in "
                    f"the {workload.prefix:g} s virtual prefix; traced "
                    f"{wall_traced:.3f} s vs untraced {wall_plain:.3f} s host")
    if page_costs:
        lines.append("federation.*_page_us: host CPU per page at the "
                     "reference speed, untraced, one page at a time on the "
                     "quiescent app after the prefix, n=100 pages each; "
                     "federated_time_share weighs them by the prefix's mix")
    lines.append(f"determinism: traced arm reproduces untraced "
                 f"{traced == reference} {reference}")
    _write_trace(cls.name, seed, recorder, snapshot, metrics)
    lines.append(f"chrome trace: {_trace_path(cls.name, seed)}"
                 f" ({len(recorder.spans)} spans kept, {recorder.dropped} dropped)")
    lines += [f"CHECK FAILED: {failure}" for failure in failures]
    return emit(not failures, attempted, failed, metrics, lines)


def _done_digest(workload):
    from workloads import digest

    return digest([[op.id, round(op.done, 9)] for op in workload.ops
                   if op.done is not None and op.done <= workload.prefix_end])


def _copy_stats(workload):
    app = workload.app
    de = getattr(app, "de", None) or getattr(app, "log_de")
    stats = de.backend.copy_stats  # a property on some backends
    return stats() if callable(stats) else stats


def _snapshot(recorder, wall):
    return {
        "self_ns": dict(recorder.self_ns),
        "counts": dict(recorder.counts),
        "calls": dict(recorder.calls),
        "vt_calls": _vt_summary(recorder.vt_samples),
        "wall_ns": wall * 1e9,
    }


def _vt_summary(samples):
    from stats import summarize

    summary = summarize(samples)
    return {"n": summary["n"], "p50_ms": (summary["p50"] or 0.0) * 1e3}


# -- per-layer metrics -------------------------------------------------------

#: Per-layer metrics: (name, unit).  Order is the report order.
PER_LAYER = (
    ("simnet.events_per_op", "count"),
    ("simnet.processes_per_op", "count"),
    ("simnet.self_us_per_op", "us"),
    ("simnet.network.transfers_per_op", "count"),
    ("simnet.network.bytes_per_op", "bytes"),
    ("store.ops_per_op", "count"),
    ("store.self_us_per_op", "us"),
    ("store.watch_events_per_op", "count"),
    ("store.call_vt_p50_ms", "ms"),
    ("store.cow.self_us_per_op", "us"),
    ("store.cow.estimate_size_calls_per_op", "count"),
    ("store.cow.copied_bytes_per_op", "bytes"),
    ("store.cow.shared_bytes_per_op", "bytes"),
    ("store.sharded.self_us_per_op", "us"),
    ("store.loglake.self_us_per_op", "us"),
    ("core.sync.self_us_per_op", "us"),
    ("core.sync.records_per_op", "count"),
    ("exchange.self_us_per_op", "us"),
    ("exchange.access.checks_per_op", "count"),
    ("exchange.access.self_us_per_op", "us"),
    ("exchange.retries_per_op", "count"),
    ("core.cast.executions_per_op", "count"),
    ("core.cast.self_us_per_op", "us"),
    ("core.cast.useful_ratio", "ratio"),
    ("util.safeexpr.evals_per_op", "count"),
    ("util.safeexpr.self_us_per_op", "us"),
    ("core.reconciler.reconciles_per_op", "count"),
    ("core.reconciler.useful_ratio", "ratio"),
    ("core.reconciler.requeues_per_op", "count"),
    ("schema.self_us_per_op", "us"),
    ("federation.self_us_per_op", "us"),
    ("query.self_us_per_op", "us"),
    ("federation.materialized_frac", "ratio"),
    ("federation.max_staleness_ms", "ms"),
    ("federation.federated_page_us", "us"),
    ("federation.materialized_page_us", "us"),
    ("federation.federated_time_share", "ratio"),
    ("obs.self_us_per_op", "us"),
    ("obs.spans_per_op", "count"),
    ("realtime.self_us_per_op", "us"),
    ("realtime.lateness_max_ms", "ms"),
    ("rest.self_us_per_op", "us"),
    ("apps.self_us_per_op", "us"),
    ("load.self_us_per_op", "us"),
    ("load.gen_late_max_ms", "ms"),
    ("other.self_us_per_op", "us"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metrics(snapshot, n_ops, extra):
    """Normalise a traced snapshot per op; returns (metrics, report lines)."""
    from layers import LAYERS

    self_ns = snapshot["self_ns"]
    counts = snapshot["counts"]
    n = max(n_ops, 1)
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_us_per_op"] = self_ns.get(layer, 0) / 1e3 / n
    attributed = sum(self_ns.values())
    values["other.self_us_per_op"] = max(
        snapshot["wall_ns"] - attributed, 0.0) / 1e3 / n
    for key in ("simnet.events", "simnet.processes",
                "simnet.network.transfers", "simnet.network.bytes",
                "store.ops", "store.watch_events",
                "store.cow.estimate_size_calls", "core.sync.records",
                "exchange.access.checks", "exchange.retries",
                "core.cast.executions", "util.safeexpr.evals",
                "core.reconciler.reconciles", "core.reconciler.requeues",
                "obs.spans"):
        values[f"{key}_per_op"] = counts.get(key, 0) / n
    values["store.cow.copied_bytes_per_op"] = extra.pop(
        "store.cow.copied_bytes", 0) / n
    values["store.cow.shared_bytes_per_op"] = extra.pop(
        "store.cow.shared_bytes", 0) / n
    executions = counts.get("core.cast.executions", 0)
    values["core.cast.useful_ratio"] = (
        counts.get("core.cast.useful", 0) / executions if executions else 0.0)
    reconciles = counts.get("core.reconciler.reconciles", 0)
    values["core.reconciler.useful_ratio"] = (
        counts.get("core.reconciler.useful", 0) / reconciles
        if reconciles else 0.0)
    calls = snapshot["vt_calls"]
    values["store.call_vt_p50_ms"] = calls["p50_ms"]
    values["federation.materialized_frac"] = 0.0
    values["federation.max_staleness_ms"] = 0.0
    values["federation.federated_page_us"] = 0.0
    values["federation.materialized_page_us"] = 0.0
    values["federation.federated_time_share"] = 0.0
    values["realtime.lateness_max_ms"] = 0.0
    values["load.gen_late_max_ms"] = 0.0
    values.update(extra)

    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    lines = [f"{name} = {values[name]:.6g} {unit}  [n_ops={n_ops}]"
             for name, unit in PER_LAYER]
    lines.append(f"store.call_vt samples n={calls['n']}")
    lines.append("self-time share by layer (host, traced):")
    shares = {layer: self_ns.get(layer, 0) for layer in LAYERS}
    shares["other"] = values["other.self_us_per_op"] * 1e3 * n
    for layer, ns in shares.items():
        share = ns / snapshot["wall_ns"] if snapshot["wall_ns"] else 0.0
        lines.append(f"  {layer:<16} {share * 100:6.2f} %")
    return metrics, lines


def _trace_path(name, seed):
    return OUT / f"{name}-seed{seed}.trace.json"


def _write_trace(name, seed, recorder, snapshot, metrics):
    from spans import write_chrome_trace

    OUT.mkdir(exist_ok=True)
    write_chrome_trace(_trace_path(name, seed), recorder.spans,
                       recorder.origin_ns, f"perfbench {name} seed {seed}")
    summary = {"workload": name, "seed": seed, "metrics": metrics,
               "self_ns": snapshot["self_ns"], "calls": snapshot["calls"],
               "counts": snapshot["counts"]}
    (OUT / f"{name}-seed{seed}.layers.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True))


# -- driving ------------------------------------------------------------------


def run_one(name, seed, seconds, trace):
    _require_program()
    if name == "checkout-http":
        from http_workload import run_http

        return run_http(seed, seconds, trace)
    return run_sim(name, seed, seconds, trace)


def run_all(seed, seconds, trace):
    """Each workload in its own process; non-zero exit if any check fails."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}")
        sys.stdout.flush()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"  {line}")
        result = json.loads(lines[-1]) if lines else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        print(f"  result: correct={result.get('correct')} "
              f"attempted={result.get('attempted')} "
              f"failed={result.get('failed')} exit={proc.returncode}")
        if not ok:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        _require_program()
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())

"""Overload benchmark: the ``repro.flow`` backpressure plane under 10x load.

Three measurements on the Knactor retail app, written to
``BENCH_overload.json``:

- **nominal overhead** -- the nominal-load order burst with ``flow=True``
  vs ``flow=False``.  Credit accounting, admission checks, and queue
  bounds must cost <= 5% throughput when nothing is overloaded.
- **overload containment** -- a 10x concurrent order burst plus
  slow-consumer watchers, with flow control on and every bound
  deliberately tight.  The plane must degrade by shedding and rejecting
  (``OverloadedError`` -> client backoff via ``RetryPolicy``) while
  every queue stays under its bound: reconciler dirty-key peaks under
  ``reconciler_queue``, RPC accept peaks under the accept queue, watch
  paused buffers under ``4 x credits``.  Order p99 stays finite because
  rejected creates retry with backoff instead of queueing without bound.
- **determinism** -- two same-seed overload runs must produce
  bit-identical shed/rejection counters and final store state.

Run directly (``python benchmarks/bench_overload.py [--smoke]``), via
``knactor bench overload``, or under pytest
(``pytest benchmarks/bench_overload.py``).
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_APISERVER
from repro.faults import RetryPolicy
from repro.flow import BULK, FlowConfig
from repro.simnet.network import FixedLatency
from repro.util.stats import nearest_rank

SEED = 13
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_overload.json"

NOMINAL_ORDERS = 12
SMOKE_NOMINAL_ORDERS = 8
OVERLOAD_FACTOR = 10
WATCHERS = 3
WATCH_CREDITS = 4
#: Bench watchers run an even tighter window than the app default, over
#: a WAN-grade link, so the burst's fan-out outpaces their credit-grant
#: round trips (the slow-consumer scenario credit flow exists for).
WATCHER_CREDITS = 2
SLOW_CONSUMER_LINK = FixedLatency(0.025)

#: Deliberately tight bounds so a smoke-sized burst genuinely overloads:
#: the bench is about *containment*, not absolute capacity.
BENCH_FLOW = FlowConfig(
    watch_credits=WATCH_CREDITS,
    reconciler_queue=64,
    admission_rate=600.0,
    admission_burst=24,
    admission_queue_high=6,
    principals={"bench-bulk": BULK},
)


def _state_digest(app):
    state = []
    for store in ("knactor-checkout", "knactor-shipping", "knactor-payment"):
        handle = app.de.handle(store, principal=app.de.store(store).owner)
        for view in app.env.run(until=handle.list()):
            state.append((store, view["key"], view["revision"], view["data"]))
    return hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()


def run_case(orders, flow, seed=SEED):
    """One concurrent order burst; returns throughput, latency, and the
    full backpressure counter set (empty when ``flow=False``)."""
    retry = RetryPolicy(max_attempts=12, base_backoff=0.01, max_backoff=2.0)
    app = RetailKnactorApp.build(
        profile=K_APISERVER, with_notify=False, seed=seed,
        retry_policy=retry, flow=BENCH_FLOW if flow else None,
    )

    # Slow consumers: read-only watchers on a high-latency link whose
    # tiny credit windows exhaust while their grants ride back, forcing
    # the server to pause, coalesce, and (past the paused bound) resync.
    watches = []
    if flow:
        for index in range(WATCHERS):
            principal = f"bench-bulk-watch-{index}"
            app.runtime.network.set_latency(
                app.de.backend.location, principal, SLOW_CONSUMER_LINK,
            )
            app.de.grant(principal, "knactor-checkout", role="reader")
            handle = app.de.handle(
                "knactor-checkout", principal=principal,
                credits=WATCHER_CREDITS,
            )
            watches.append(handle.watch(lambda event: None))

    workload = OrderWorkload(seed=seed)
    latencies = []
    failures = []

    def submit(env, key, data):
        started = env.now
        try:
            yield app.place_order(key, data)
        except Exception as error:  # gave up after retries: count, don't crash
            failures.append(type(error).__name__)
        else:
            latencies.append(env.now - started)

    started = app.env.now
    burst = [
        app.env.process(submit(app.env, key, data))
        for key, data in workload.orders(orders)
    ]
    app.env.run(until=app.env.all_of(burst))
    window = app.env.now - started
    app.run_until_quiet(max_seconds=600.0)

    backend = app.de.backend
    reconciler_peaks = {
        name: knactor.reconciler.queue_peak
        for name, knactor in app.runtime.knactors.items()
        if knactor.reconciler is not None
    }
    reconciler_shed = sum(
        knactor.reconciler.shed_count
        for knactor in app.runtime.knactors.values()
        if knactor.reconciler is not None
    )
    result = {
        "orders": orders,
        "flow": bool(flow),
        "seed": seed,
        "completed": len(latencies),
        "failed": len(failures),
        "burst_window_s": window,
        "orders_per_sec": len(latencies) / window if window > 0 else 0.0,
        "order_p50_s": nearest_rank(latencies, 0.50),
        "order_p99_s": nearest_rank(latencies, 0.99),
        "retry_stats": retry.stats(),
        "state_digest": _state_digest(app),
        "reconciler_queue_peak": max(reconciler_peaks.values(), default=0),
        "reconciler_shed": reconciler_shed,
        "rpc_accept_peak": backend._worker_pool.peak_queued,
        "rpc_rejected_overload": getattr(backend, "rejected_overload", 0),
    }
    if flow:
        result["flow_counters"] = {
            "admission": backend.admission.stats(),
            "watch_pauses": backend.watch_pauses,
            "watch_credit_grants": backend.watch_credit_grants,
            "watch_shed_events": backend.watch_shed_events,
            "watch_forced_resyncs": backend.watch_forced_resyncs,
            "watch_peak_paused": max(
                (w.peak_paused for w in watches), default=0),
        }
    return result


# -- the sweep -------------------------------------------------------------


def run_sweep(smoke=False):
    nominal = SMOKE_NOMINAL_ORDERS if smoke else NOMINAL_ORDERS
    overload = nominal * OVERLOAD_FACTOR
    nominal_off = run_case(nominal, flow=False)
    nominal_on = run_case(nominal, flow=True)
    overload_on = run_case(overload, flow=True)
    overload_repeat = run_case(overload, flow=True)
    overhead = (
        nominal_on["orders_per_sec"] / nominal_off["orders_per_sec"]
        if nominal_off["orders_per_sec"] else 0.0
    )
    return {
        "schema": 1,
        "bench": "overload",
        "seed": SEED,
        "smoke": smoke,
        "overload_factor": OVERLOAD_FACTOR,
        "bounds": {
            "watch_credits": WATCH_CREDITS,
            "watcher_credits": WATCHER_CREDITS,
            "watch_paused_max": 4 * WATCHER_CREDITS,
            "reconciler_queue": BENCH_FLOW.reconciler_queue,
            "admission_queue_high": BENCH_FLOW.admission_queue_high,
        },
        "nominal_off": nominal_off,
        "nominal_on": nominal_on,
        "overload_on": overload_on,
        "overload_repeat": overload_repeat,
        "nominal_throughput_ratio": overhead,
        "deterministic": _fingerprint(overload_on) == _fingerprint(
            overload_repeat),
    }


def _fingerprint(case):
    """The determinism contract: every shed/rejection counter + state."""
    return {
        "state_digest": case["state_digest"],
        "completed": case["completed"],
        "failed": case["failed"],
        "reconciler_shed": case["reconciler_shed"],
        "rpc_rejected_overload": case["rpc_rejected_overload"],
        "retry_stats": case["retry_stats"],
        "flow_counters": case.get("flow_counters"),
    }


def write_results(results, path=OUTPUT):
    path = Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def describe(results):
    lines = ["overload containment (retail app, concurrent order burst)"]
    lines.append(
        f"{'case':>16} {'orders':>7} {'done':>5} {'ord/sec':>9} "
        f"{'p99 ms':>9} {'rej':>5} {'shed':>5}"
    )
    for label in ("nominal_off", "nominal_on", "overload_on"):
        case = results[label]
        rejected = (
            case.get("flow_counters", {}).get("admission", {})
            .get("rejected", 0)
        )
        lines.append(
            f"{label:>16} {case['orders']:>7} {case['completed']:>5} "
            f"{case['orders_per_sec']:>9.1f} "
            f"{case['order_p99_s'] * 1e3:>9.2f} "
            f"{rejected:>5} {case['reconciler_shed']:>5}"
        )
    lines.append(
        f"nominal flow overhead: "
        f"{(1 - results['nominal_throughput_ratio']) * 100:.1f}% "
        f"(ratio {results['nominal_throughput_ratio']:.3f})"
    )
    lines.append(f"deterministic across same-seed runs: "
                 f"{results['deterministic']}")
    return "\n".join(lines)


# -- pytest surface --------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Module-scoped smoke sweep; writes the JSON artifact as it goes."""
    results = run_sweep(smoke=True)
    write_results(results)
    return results


def test_overload_stays_bounded(sweep, report):
    case = sweep["overload_on"]
    bounds = sweep["bounds"]
    assert case["reconciler_queue_peak"] <= bounds["reconciler_queue"], (
        f"reconciler queue peaked at {case['reconciler_queue_peak']} "
        f"over bound {bounds['reconciler_queue']}"
    )
    counters = case["flow_counters"]
    assert counters["watch_peak_paused"] <= bounds["watch_paused_max"], (
        f"watch paused buffer peaked at {counters['watch_peak_paused']} "
        f"over bound {bounds['watch_paused_max']}"
    )
    # Overload must engage the plane, not sail through.
    assert counters["admission"]["rejected"] > 0, (
        "10x load never tripped admission control"
    )
    assert counters["watch_pauses"] > 0, (
        "slow consumers never exhausted their credit windows"
    )
    # p99 finite: every order completes (retry backoff absorbs
    # rejections) and the percentile is a real number.
    assert case["completed"] == case["orders"], (
        f"{case['failed']} orders failed outright under overload"
    )
    assert case["order_p99_s"] > 0.0
    report(describe(sweep))


def test_priority_classes_shield_the_integrator(sweep):
    admission = sweep["overload_on"]["flow_counters"]["admission"]
    integrator = admission["classes"]["integrator"]
    assert integrator["admitted"] > 0
    # The cast rides through overload with at most token-bucket-level
    # rejections; the shed burden lands on the normal/bulk classes.
    assert integrator["rejected"] <= admission["rejected"]


def test_nominal_overhead_within_five_percent(sweep):
    ratio = sweep["nominal_throughput_ratio"]
    assert ratio >= 0.95, (
        f"flow control cost {(1 - ratio) * 100:.1f}% nominal throughput"
    )
    off, on = sweep["nominal_off"], sweep["nominal_on"]
    assert off["completed"] == off["orders"]
    assert on["completed"] == on["orders"]


def test_same_seed_runs_are_bit_identical(sweep):
    assert sweep["deterministic"], (
        "same-seed overload runs diverged in shed counts or final state"
    )
    first = _fingerprint(sweep["overload_on"])
    second = _fingerprint(sweep["overload_repeat"])
    assert first == second


def test_artifact_written(sweep):
    data = json.loads(OUTPUT.read_text())
    assert data["bench"] == "overload"
    assert data["overload_on"]["flow"] is True


# -- CLI surface -----------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Drive the retail app into overload with flow control on."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep (CI): 8 nominal / 80 overload orders")
    parser.add_argument("--out", default=str(OUTPUT),
                        help="output JSON path")
    args = parser.parse_args(argv)
    results = run_sweep(smoke=args.smoke)
    path = write_results(results, args.out)
    print(describe(results))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

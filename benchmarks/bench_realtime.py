"""Realtime-backend benchmark: the retail hot path in real seconds.

Every other bench in this directory measures *virtual* seconds on the
deterministic sim kernel.  This one runs the same retail app on the
``repro.realtime`` asyncio backend and reports **wall-clock** numbers,
written to ``BENCH_realtime.json``:

- **backend sweep** -- the concurrent order burst at 1 and 4 shards
  (1/2/4 without ``--smoke``), run twice per shard count: once on the
  sim kernel, once on the realtime kernel at ``factor=0`` ("as fast as
  the hardware allows").  Reports wall ops/sec and wall p50/p99 create
  latency for both, and asserts the two runs are *observably
  identical*: same final store state (revisions included) and the same
  Checkout watch-event order, hashed into parity fingerprints.
- **pacing fidelity** -- one shaped order at ``factor=1``: a schedule
  second must cost about a real second (the carrier call really takes
  ~0.45 s on the wall), with bounded scheduler lateness.

Run directly (``python benchmarks/bench_realtime.py [--smoke]``), via
``knactor bench realtime``, or under pytest
(``pytest benchmarks/bench_realtime.py``).
"""

import argparse
import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_APISERVER
from repro.realtime import RealtimeEnvironment
from repro.simnet import Environment
from repro.store import Topology
from repro.util.stats import nearest_rank

SEED = 11
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_realtime.json"

SHARD_COUNTS = (1, 2, 4)
SMOKE_SHARD_COUNTS = (1, 4)

BURST_ORDERS = 24
SMOKE_BURST_ORDERS = 12

#: Schedule seconds the pacing case must run (the carrier call alone).
PACING_MIN_SCHEDULE = 0.2


def _digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


# -- one measured run -------------------------------------------------------


def run_case(backend, shards, orders):
    """One concurrent order burst on ``backend`` ("sim" | "realtime").

    Both backends get the identical configuration -- same seed, same
    profile, simulated infrastructure latencies zeroed (``factor=0``
    realtime is a raw-speed run; leaving the sim shaped would give it a
    different event schedule and break parity).  Returns wall-clock
    throughput/latency stats plus state and watch-order fingerprints.
    """
    if backend == "realtime":
        env = RealtimeEnvironment(factor=0.0)
    else:
        env = Environment()
    app = RetailKnactorApp.build(
        env=env, profile=K_APISERVER, with_notify=False, seed=SEED,
        topology=Topology(shards=shards) if shards > 1 else None,
        shape_latency=False,
    )

    # A read-only watcher on Checkout: the delivery order it sees is the
    # run's event-ordering fingerprint.
    watched = []
    app.de.grant("bench-watcher", "knactor-checkout", role="reader")
    app.de.handle("knactor-checkout", principal="bench-watcher").watch(
        lambda event: watched.append((event.key, event.type, event.revision))
    )

    workload = OrderWorkload(seed=SEED)
    batch = workload.orders(orders)
    latencies = []

    def submit(key, data):
        started = time.perf_counter()
        yield app.place_order(key, data)
        latencies.append(time.perf_counter() - started)

    ops_before = sum(app.de.backend.op_counts.values())
    wall_started = time.perf_counter()
    burst = [app.env.process(submit(key, data)) for key, data in batch]
    app.env.run(until=app.env.all_of(burst))
    burst_wall = time.perf_counter() - wall_started
    ops_in_window = sum(app.de.backend.op_counts.values()) - ops_before

    app.run_until_quiet(max_seconds=300.0)
    total_wall = time.perf_counter() - wall_started

    fulfilled = 0
    state = []
    for store in ("knactor-checkout", "knactor-shipping", "knactor-payment"):
        handle = app.de.handle(store, principal=app.de.store(store).owner)
        for view in app.env.run(until=handle.list()):
            state.append((store, view["key"], view["revision"], view["data"]))
            if store == "knactor-checkout":
                fulfilled += view["data"].get("status") == "fulfilled"

    return {
        "backend": backend,
        "shards": shards,
        "orders": orders,
        "burst_wall_s": burst_wall,
        "total_wall_s": total_wall,
        "ops_in_window": ops_in_window,
        "wall_ops_per_sec": (
            ops_in_window / burst_wall if burst_wall > 0 else 0.0
        ),
        "create_wall_p50_s": nearest_rank(latencies, 0.50),
        "create_wall_p99_s": nearest_rank(latencies, 0.99),
        "fulfilled": fulfilled,
        "state_fingerprint": _digest(state),
        "event_order_fingerprint": _digest(watched),
    }


def run_pacing_case():
    """One shaped order at ``factor=1``: schedule time == wall time.

    The carrier call is a ~0.45 schedule-second service time; on the
    realtime backend it must cost about that many *real* seconds, with
    the scheduler's worst lateness reported.
    """
    env = RealtimeEnvironment(factor=1.0)
    app = RetailKnactorApp.build(
        env=env, with_notify=False, seed=SEED, shape_latency=True,
    )
    key, data = OrderWorkload(seed=SEED).next_order()
    schedule_started = env.now
    wall_started = time.perf_counter()
    app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    wall = time.perf_counter() - wall_started
    schedule = env.now - schedule_started
    view = app.env.run(until=app.order(key))
    return {
        "factor": 1.0,
        "schedule_s": schedule,
        "wall_s": wall,
        "wall_to_schedule_ratio": wall / schedule if schedule else 0.0,
        "max_lateness_s": env.max_lateness,
        "fulfilled": view["data"].get("status") == "fulfilled",
    }


# -- the sweep -------------------------------------------------------------


def run_sweep(smoke=False):
    shard_counts = SMOKE_SHARD_COUNTS if smoke else SHARD_COUNTS
    orders = SMOKE_BURST_ORDERS if smoke else BURST_ORDERS
    cases = []
    for shards in shard_counts:
        sim = run_case("sim", shards, orders)
        realtime = run_case("realtime", shards, orders)
        cases.append({
            "shards": shards,
            "orders": orders,
            "sim": sim,
            "realtime": realtime,
            "parity_state": (
                sim["state_fingerprint"] == realtime["state_fingerprint"]
            ),
            "parity_event_order": (
                sim["event_order_fingerprint"]
                == realtime["event_order_fingerprint"]
            ),
        })
    return {
        "schema": 1,
        "bench": "realtime",
        "seed": SEED,
        "smoke": smoke,
        "cases": cases,
        "pacing": run_pacing_case(),
    }


def write_results(results, path=OUTPUT):
    path = Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def describe(results):
    lines = ["realtime backend (retail order burst, wall clock)"]
    lines.append(
        f"{'shards':>8} {'backend':>9} {'ops/sec':>10} "
        f"{'p50 ms':>9} {'p99 ms':>9} {'parity':>7}"
    )
    for case in results["cases"]:
        parity = "yes" if (
            case["parity_state"] and case["parity_event_order"]
        ) else "NO"
        for backend in ("sim", "realtime"):
            run = case[backend]
            lines.append(
                f"{case['shards']:>8} {backend:>9} "
                f"{run['wall_ops_per_sec']:>10.0f} "
                f"{run['create_wall_p50_s'] * 1e3:>9.2f} "
                f"{run['create_wall_p99_s'] * 1e3:>9.2f} {parity:>7}"
            )
    pacing = results["pacing"]
    lines.append(
        f"pacing: {pacing['schedule_s']:.3f} schedule-s took "
        f"{pacing['wall_s']:.3f} wall-s at factor=1 "
        f"(max lateness {pacing['max_lateness_s'] * 1e3:.1f} ms)"
    )
    return "\n".join(lines)


# -- pytest surface --------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    """Module-scoped smoke sweep; writes the JSON artifact as it goes."""
    results = run_sweep(smoke=True)
    write_results(results)
    return results


def test_realtime_completes_with_nonzero_throughput(sweep, report):
    for case in sweep["cases"]:
        run = case["realtime"]
        assert run["wall_ops_per_sec"] > 0.0
        assert run["fulfilled"] == run["orders"], (
            f"{run['fulfilled']}/{run['orders']} orders fulfilled at "
            f"{case['shards']} shard(s) on the realtime backend"
        )
    report(describe(sweep))


def test_sim_realtime_parity(sweep):
    for case in sweep["cases"]:
        assert case["parity_state"], (
            f"final store state diverged at {case['shards']} shard(s)"
        )
        assert case["parity_event_order"], (
            f"watch-event order diverged at {case['shards']} shard(s)"
        )


def test_pacing_tracks_wall_clock(sweep):
    pacing = sweep["pacing"]
    assert pacing["fulfilled"]
    assert pacing["schedule_s"] >= PACING_MIN_SCHEDULE
    # The run may be late (slow CI hardware) but never early: real time
    # actually passed for the schedule to advance.
    assert pacing["wall_s"] >= 0.9 * pacing["schedule_s"], (
        f"{pacing['schedule_s']:.3f} schedule-s finished in "
        f"{pacing['wall_s']:.3f} wall-s at factor=1"
    )


def test_artifact_written(sweep):
    data = json.loads(OUTPUT.read_text())
    assert data["bench"] == "realtime"
    assert data["cases"] and data["pacing"]


# -- CLI surface -----------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Wall-clock retail benchmark on the realtime backend."
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small sweep (CI): shards 1/4, 12 orders")
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

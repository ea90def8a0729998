"""Golden determinism fingerprints for a seeded retail run.

Host-side optimizations of the kernel, the state plane and the
expression evaluator must not move virtual time.  This test pins, as
constants, what a seeded K-redis retail scenario produces on one shard
and on a 4-shard ring: the order of the app tracer's events, the final
store state, each order's fulfilment time, the number of kernel events
scheduled and the final clock.  Any change that removes, adds or
reorders an event changes one of these digests.

If a change is *meant* to alter the schedule (a new latency-model
input, an extra store op), re-derive the constants by printing
``_fingerprint(shards)`` and say why in the change log.
"""

import hashlib

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_REDIS
from repro.store import Topology

SEED = 11
ORDERS = 8
SPACING = 0.25  # virtual seconds between order placements
STORES = ("knactor-checkout", "knactor-shipping", "knactor-payment",
          "knactor-email")


def _digest(items):
    sha = hashlib.sha256()
    for item in items:
        sha.update(repr(item).encode())
    return sha.hexdigest()[:16]


def _fingerprint(shards):
    app = RetailKnactorApp.build(profile=K_REDIS, seed=SEED,
                                 topology=Topology(shards=shards, seed=SEED))
    env = app.env
    workload = OrderWorkload(seed=SEED)

    def place_orders():
        for _ in range(ORDERS):
            key, data = workload.next_order()
            data["email"] = "shopper@example.com"
            app.place_order(key, data)
            yield env.timeout(SPACING)

    env.process(place_orders())
    app.run_until_quiet(max_seconds=60.0)

    events = app.tracer.events
    state = []
    for store in STORES:
        handle = app.de.handle(store, principal=app.de.store(store).owner)
        for view in env.run(until=handle.list()):
            state.append((store, view["key"], view["revision"], view["data"]))
    fulfilled = [(event.attrs["key"], event.time) for event in events
                 if event.name == "order-fulfilled"]
    return {
        "events": _digest((event.time, event.category, event.name,
                           sorted(event.attrs.items())) for event in events),
        "state": _digest(state),
        "fulfilled": _digest(fulfilled),
        "orders_fulfilled": len(fulfilled),
        # Every schedule() draws one sequence number from the kernel.
        "scheduled": next(env._eid),
        "now": env.now,
    }


GOLDEN = {
    1: {
        "events": "6573bd24450d4b57",
        "state": "786502f6fcd9378e",
        "fulfilled": "333decc90969f20f",
        "orders_fulfilled": ORDERS,
        "scheduled": 8166,
        "now": 3.650308723508689,
    },
    4: {
        "events": "7f07844ce7654e6a",
        "state": "eff824c50541376a",
        "fulfilled": "333decc90969f20f",
        "orders_fulfilled": ORDERS,
        "scheduled": 8274,
        "now": 3.650308723508689,
    },
}


@pytest.mark.parametrize("shards", sorted(GOLDEN))
def test_retail_fingerprint_is_pinned(shards):
    assert _fingerprint(shards) == GOLDEN[shards]

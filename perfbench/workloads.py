"""The three simulated workloads: ``orders``, ``storefront``, ``fleet``.

Each workload builds its app, generates its whole input from the seed
(arrival schedule and payloads; the program only sees these inputs),
drives it open loop on the sim backend, records each op's virtual
latency, and checks the outputs once the load has drained.  See
``README.md`` for why each workload exists and which layers it loads.
"""

import hashlib
import itertools
import json
import random
import time

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.storefront import (
    attach_storefront,
    grant_rpc_baseline,
    order_details,
    rpc_order_details,
)
from repro.core.optimizer import K_REDIS
from repro.errors import ReproError
from repro.load.arrivals import FlashCrowd, PoissonArrivals
from repro.load.sampling import ZipfKeys
from repro.load.sensorfleet import SensorFleetApp
from repro.store.ring import Topology
from stats import at_reference, probe

#: Catalog the order payloads draw from (name, USD price).
CATALOG = (
    ("espresso-machine", 679.0), ("mug", 8.5), ("pen", 2.2),
    ("notebook", 12.0), ("desk-lamp", 39.9), ("monitor", 329.0),
    ("keyboard", 89.0), ("standing-desk", 899.0), ("headphones", 199.0),
    ("webcam", 59.0),
)
CURRENCIES = ("USD", "EUR", "GBP", "CAD")


class Op:
    """One unit of offered load and what became of it."""

    __slots__ = ("id", "kind", "due", "done", "outcome")

    def __init__(self, op_id, kind, due):
        self.id = op_id
        self.kind = kind
        self.due = due  # virtual arrival instant
        self.done = None  # virtual completion instant
        self.outcome = None  # "ok" | "failed: ..." (None = unfinished)

    @property
    def latency(self):
        return self.done - self.due


def order_payload(rng):
    """One checkout order body drawn from ``rng``."""
    names = rng.sample([name for name, _ in CATALOG], k=rng.randint(1, 3))
    prices = dict(CATALOG)
    cost = round(sum(prices[name] for name in names), 2)
    return {
        "items": {name: {"name": name, "priceUSD": prices[name]}
                  for name in names},
        "address": f"{rng.randint(1, 99)} Main St",
        "cost": cost,
        "totalCost": cost,
        "currency": rng.choice(CURRENCIES),
        "status": "placed",
        "cardToken": f"tok-{rng.randint(10**6, 10**7 - 1)}",
    }


def digest(value):
    """Stable short digest of a JSON-able value."""
    blob = json.dumps(value, sort_keys=True, default=_plain).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return repr(value)


def _every(index, share):
    """True for an exact ``share`` of the indices 0, 1, 2, ..., spread evenly."""
    return int((index + 1) * share) > int(index * share)


def _stream(seed, workload, purpose):
    """One independent seeded stream per (workload, purpose)."""
    return random.Random(f"{seed}/{workload}/{purpose}")


class SimWorkload:
    """Shared open-loop driving, draining and accounting for sim workloads.

    Subclasses set ``name``, ``chunk`` (virtual seconds between wall
    checks), ``prefix`` (the virtual horizon whose ops give the
    deterministic figures) and implement ``build``, ``classes`` and
    ``check``.
    """

    name = None
    chunk = 1.0
    prefix = 100.0
    #: Virtual seconds past ``prefix`` the episode's load runs, so every
    #: prefix op meets the same later traffic in every run.
    margin = 10.0
    #: Virtual seconds per cost window; run.py reports the median window.
    window = 10.0
    drain_limit = 300.0

    def __init__(self, seed, recorder=None):
        self.seed = seed
        self.recorder = recorder
        self.app = None
        self.ops = []
        self.stop_at = float("inf")
        self.offered = []  # (class, virtual time, payload digest)
        self.t0 = 0.0  # virtual instant the load started

    @property
    def prefix_end(self):
        """Absolute virtual end of the deterministic prefix."""
        return self.t0 + self.prefix

    # -- lifecycle ---------------------------------------------------------

    def setup(self):
        self.app = self.build()
        return self

    @property
    def env(self):
        return self.app.env

    def start(self):
        """Launch one open-loop generator per traffic class."""
        self.t0 = self.env.now
        for cls_name, times, submit in self.classes():
            self.env.process(self._drive(cls_name, times, submit))

    def _drive(self, cls_name, times, submit):
        env = self.env
        start = env.now
        for when in times:
            when += start
            if when > self.stop_at:
                return
            delay = when - env.now
            if delay > 0:
                yield env.timeout(delay)
            if env.now > self.stop_at:
                return
            rec = self.recorder
            if rec is None:
                submit(when)
            else:
                rec.enter(f"load:{cls_name}", "load", len(self.ops))
                try:
                    submit(when)
                finally:
                    rec.exit()

    def new_op(self, kind, due):
        op = Op(len(self.ops), kind, due)
        self.ops.append(op)
        return op

    def run_until(self, horizon):
        env = self.env
        while env.now < horizon - 1e-9:
            env.run(until=min(env.now + self.chunk, horizon))

    def run_chunk(self):
        self.env.run(until=self.env.now + self.chunk)

    def stop(self):
        """Stop offering load at the current instant."""
        self.stop_at = self.env.now

    def drain(self):
        """Run until every op has an outcome (or the drain limit)."""
        env = self.env
        deadline = env.now + self.drain_limit
        while any(op.outcome is None for op in self.ops):
            if env.peek() > deadline:
                break
            env.run(until=min(env.now + self.chunk, deadline))
        self.settle()

    def settle(self, quiet=1.0):
        """Let background work finish: run until ``quiet`` idle seconds."""
        env = self.env
        deadline = env.now + self.drain_limit
        while env.peek() <= deadline:
            env.run(until=min(env.peek() + quiet, deadline))

    # -- accounting --------------------------------------------------------

    def prefix_ops(self):
        return [op for op in self.ops if op.due <= self.prefix_end]

    def prefix_latencies(self):
        """Virtual latency (s) of every prefix op that succeeded."""
        return [op.latency for op in self.prefix_ops() if op.outcome == "ok"]

    def completed(self):
        return sum(1 for op in self.ops if op.outcome is not None)

    def fingerprint(self):
        """Digest of the offered load (schedule + payloads) up to ``prefix``."""
        return digest([[kind, when - self.t0, what]
                       for kind, when, what in self.offered
                       if when <= self.prefix_end])

    def event_digest(self, horizon):
        """Digest of the app tracer's event order up to ``horizon``."""
        sha = hashlib.sha256()
        for event in self.app.tracer.events:
            if event.time > horizon:
                break
            sha.update(repr((round(event.time, 9), event.category,
                             event.name, sorted(event.attrs.items()))).encode())
        return sha.hexdigest()[:16]


class OrdersWorkload(SimWorkload):
    """Retail checkouts on K-redis, 1 shard, notify Cast on, obs off.

    An op is one order, from placement until Checkout commits
    ``status == fulfilled``.
    """

    name = "orders"
    rate = 1.0  # orders per virtual second
    chunk = 1.0
    prefix = 200.0
    margin = 15.0
    window = 20.0

    def build(self):
        app = RetailKnactorApp.build(profile=K_REDIS, seed=self.seed,
                                     with_notify=True, obs=None)
        self._fulfilling = {}
        self._by_key = {}
        self._hook_tracer(app)
        return app

    def _hook_tracer(self, app):
        """Observe fulfilment from the app's own trace stream.

        The Checkout reconciler traces ``order-fulfilled`` just before it
        patches the order; the next commit of that key is the patch.
        Reading the stream perturbs nothing the program does.
        """
        record = app.tracer.record
        fulfilling = self._fulfilling
        by_key = self._by_key

        def hook(category, name, **attrs):
            record(category, name, **attrs)
            if category == "reconciler" and name == "order-fulfilled":
                fulfilling[attrs["key"]] = True
            elif category == "store" and name == "commit":
                key = attrs["key"]
                if key.startswith("knactor-checkout/"):
                    local = key[len("knactor-checkout/"):]
                    if fulfilling.pop(local, None):
                        op = by_key.get(local)
                        if op is not None and op.outcome is None:
                            op.done = app.env.now
                            op.outcome = "ok"

        app.tracer.record = hook

    def classes(self):
        arrivals = PoissonArrivals(self.rate).times(
            _stream(self.seed, self.name, "arrivals"), float("inf"))
        payloads = _stream(self.seed, self.name, "payloads")
        self._placed = {}

        def submit(when):
            op = self.new_op("order", when)
            key = f"order/o{op.id + 1:06d}"
            data = order_payload(payloads)
            self._by_key[key] = op
            self._placed[key] = data
            self.offered.append(("order", when, digest(data)))
            self.env.process(self._place(op, key, data))

        return [("orders", arrivals, submit)]

    def _place(self, op, key, data):
        try:
            yield self.app.place_order(key, data)
        except ReproError as exc:
            op.outcome = f"failed: {type(exc).__name__}"

    def check(self):
        """Every order fulfilled; payment and shipment match the order."""
        failures = []
        env = self.env
        states = {}
        for key, data in self._placed.items():
            op = self._by_key[key]
            cid = key.split("/", 1)[1]
            order = env.run(until=self.app.order(key))["data"]
            charge = env.run(until=self.app.charge(cid))["data"]
            shipment = env.run(until=self.app.shipment(cid))["data"]
            states[key] = (order, charge, shipment)
            problems = []
            if order.get("status") != "fulfilled":
                problems.append(f"status {order.get('status')!r}")
            if order.get("cost") != data["cost"] or order.get(
                    "totalCost") != round(data["cost"] + order["shippingCost"], 4):
                problems.append("order total")
            if charge.get("amount") != order.get("totalCost"):
                problems.append("payment amount")
            if charge.get("currency") != data["currency"]:
                problems.append("payment currency")
            if sorted(shipment.get("items") or ()) != sorted(data["items"]):
                problems.append("shipping items")
            if problems:
                failures.append(f"{key}: {', '.join(problems)}")
                if op.outcome == "ok":
                    op.outcome = "failed: wrong output"
        prefix = {op.id for op in self.prefix_ops()}
        self.state_digest = digest({key: state for key, state in states.items()
                                    if self._by_key[key].id in prefix})
        return failures


class StorefrontWorkload(SimWorkload):
    """Read-dominated: order-details pages over a 4-shard ring, plus writes.

    Orders are prefilled at set-up.  An op is one request: a page (from
    request to answer) or an order write (from placement to the create's
    acknowledgement).
    """

    name = "storefront"
    prefill = 64
    write_rate = 1.0
    page_rate = 40.0
    fanout = 8
    #: Pages read with freshness=0 (scatter-gather).  No source gives a
    #: read-consistency mix; see README.md for why a quarter.
    strong_share = 0.25
    freshness = 0.25  # the view's declared bound (seconds)
    chunk = 0.5
    prefix = 60.0
    margin = 5.0
    window = 5.0

    def build(self):
        app = RetailKnactorApp.build(
            profile=K_REDIS, seed=self.seed, topology=Topology(shards=4),
            obs=None,
        )
        attach_storefront(app, freshness=self.freshness)
        grant_rpc_baseline(app)
        rng = _stream(self.seed, self.name, "prefill")
        self._keys = []
        self._placed = {}
        for index in range(self.prefill):
            key = f"order/p{index + 1:06d}"
            data = order_payload(rng)
            self._keys.append(key)
            self._placed[key] = data
            app.place_order(key, data)
        app.run_until_quiet(max_seconds=600.0)
        # The view has synced: its materialized copy holds the prefill.
        self.pages = []  # (strategy, staleness) per answered page
        return app

    def classes(self):
        # One Poisson stream of requests.  Writes and strong pages take
        # exact shares of it, spread evenly: a write costs as much as
        # ~50 materialized pages, so drawing each request's kind made the
        # cost per op vary ~10% with the seed.
        seed = self.seed
        arrivals = PoissonArrivals(self.write_rate + self.page_rate).times(
            _stream(seed, self.name, "arrivals"), float("inf"))
        write_share = self.write_rate / (self.write_rate + self.page_rate)
        payloads = _stream(seed, self.name, "payloads")
        picks = _stream(seed, self.name, "page-keys")
        request_index = itertools.count()
        page_index = itertools.count()

        def request(when):
            if _every(next(request_index), write_share):
                write(when)
            else:
                page(when)

        def write(when):
            op = self.new_op("write", when)
            key = f"order/w{op.id + 1:06d}"
            data = order_payload(payloads)
            self._keys.append(key)
            self._placed[key] = data
            self.offered.append(("write", when, digest(data)))
            self.env.process(self._write(op, key, data))

        def page(when):
            op = self.new_op("page", when)
            keys = sorted(picks.sample(self._keys, self.fanout))
            strong = _every(next(page_index), self.strong_share)
            self.offered.append(("page", when, digest([keys, strong])))
            self.env.process(self._page(op, keys, strong))

        return [("requests", arrivals, request)]

    def _write(self, op, key, data):
        try:
            yield self.app.place_order(key, data)
        except ReproError as exc:
            op.outcome = f"failed: {type(exc).__name__}"
            return
        op.done = self.env.now
        op.outcome = "ok"

    def _page(self, op, keys, strong):
        try:
            result = yield order_details(
                self.app, keys, freshness=0.0 if strong else None)
        except ReproError as exc:
            op.outcome = f"failed: {type(exc).__name__}"
            return
        op.done = self.env.now
        self.pages.append((result.strategy, result.staleness))
        if len(result.records) == 0:
            op.outcome = "failed: empty page"
        elif result.strategy == "materialized" and result.staleness > self.freshness:
            op.outcome = "failed: freshness violation"
        else:
            op.outcome = "ok"

    def violations(self):
        return sum(1 for strategy, staleness in self.pages
                   if strategy == "materialized" and staleness > self.freshness)

    def page_costs(self, pages=100):
        """Host CPU per page of each strategy, one page at a time.

        Stops the load and drains first, so each page runs alone on a
        quiescent app.  Strong and bounded pages alternate; returns
        ``{strategy: seconds per page at the reference speed}``.
        """
        self.stop()
        self.drain()
        env = self.env
        picks = _stream(self.seed, self.name, "cost-pages")
        cpu = {}
        before = probe()
        for _ in range(pages):
            for freshness in (0.0, None):
                keys = sorted(picks.sample(self._keys, self.fanout))
                started = time.process_time()
                result = env.run(until=order_details(
                    self.app, keys, freshness=freshness))
                cpu[result.strategy] = (cpu.get(result.strategy, 0.0)
                                        + time.process_time() - started)
        probes = (before, probe())
        return {strategy: at_reference(total / pages, probes)
                for strategy, total in cpu.items()}

    def check(self):
        """At quiescence federated == materialized == rpc on a fixed page."""
        failures = []
        env = self.env
        keys = self._keys[:self.fanout]
        federated = env.run(until=order_details(self.app, keys, freshness=0))
        materialized = env.run(
            until=order_details(self.app, keys, consistency="any"))
        rpc = env.run(until=rpc_order_details(self.app, keys))
        answers = [digest(list(federated.records)),
                   digest(list(materialized.records)), digest(list(rpc))]
        if len(set(answers)) != 1:
            failures.append(f"page answers differ: {answers}")
        if materialized.strategy != "materialized":
            failures.append(f"quiescent page served {materialized.strategy}")
        if len(federated.records) != len(keys):
            failures.append(f"page has {len(federated.records)} of {len(keys)} orders")
        if self.violations():
            failures.append(f"{self.violations()} freshness violations")
        unfinished = [op.id for op in self.ops if op.outcome is None]
        if unfinished:
            failures.append(f"{len(unfinished)} requests never answered")
        self.state_digest = answers[0]
        return failures


class FleetWorkload(SimWorkload):
    """Sensor-fleet ingest through the Log exchange and ``fleet-sync``.

    10^5 Zipf-skewed devices, obs plane on.  Poisson records below the
    lake's capacity with one flash crowd above it.  An op is one record,
    from its load until the analytics consumer sees it.
    """

    name = "fleet"
    devices = 100_000
    base_rate = 200.0
    spike_rate = 600.0
    spike_at = 6.0
    spike_for = 2.0
    chunk = 0.5
    prefix = 16.0
    margin = 4.0
    window = 1.0

    def build(self):
        app = SensorFleetApp.build(devices=self.devices)
        self._zipf = ZipfKeys(self.devices, alpha=1.1,
                              key_format="device-{:06d}")
        self._by_record = {}
        self._hook_consumer(app)
        return app

    def _hook_consumer(self, app):
        """Note when the app's own analytics watcher sees each record."""
        watch = app._watch
        handler = watch.handler
        by_record = self._by_record
        env = app.env

        def seen(event):
            for record in (event.object or {}).get("records", ()):
                op = by_record.get((record.get("device"), record.get("temperature")))
                if op is not None and op.outcome is None:
                    op.done = env.now
                    op.outcome = "ok"
            return handler(event)

        watch.handler = seen

    def classes(self):
        arrivals = FlashCrowd(self.base_rate, self.spike_rate, self.spike_at,
                              self.spike_for).times(
            _stream(self.seed, self.name, "arrivals"), float("inf"))
        draws = _stream(self.seed, self.name, "records")

        def submit(when):
            op = self.new_op("record", when)
            device = self._zipf.sample(draws)
            # Unique per record, so the analytics copy can be matched.
            temp_c = 15.0 + op.id / 100_000.0
            battery = round(draws.random(), 3)
            self._by_record[(device, temp_c)] = op
            self.offered.append(("record", when, device))
            event, _trace = self.app.ingest(device, temp_c=temp_c,
                                            battery=battery)
            event.callbacks.append(lambda evt, op=op: self._loaded(evt, op))

        return [("records", arrivals, submit)]

    @staticmethod
    def _loaded(event, op):
        if not event.ok:
            event._defused = True
            op.outcome = f"failed: {type(event.value).__name__}"

    def check(self):
        """Every loaded record is in the analytics store exactly once."""
        handle = self.app.runtime.handle_of("analytics", "log")
        rows = self.env.run(until=handle.query())
        rows = rows.get("records", rows) if hasattr(rows, "get") else rows
        seen = {}
        for row in rows:
            ident = (row.get("device"), row.get("temperature"))
            seen[ident] = seen.get(ident, 0) + 1
        failures = []
        missing = [k for k in self._by_record if k not in seen]
        extra = [k for k in seen if k not in self._by_record]
        doubled = [k for k, n in seen.items() if n > 1]
        for label, bad in (("missing", missing), ("unexpected", extra),
                           ("duplicated", doubled)):
            if bad:
                failures.append(f"{len(bad)} records {label}, e.g. {bad[0]}")
        for ident in missing + doubled:
            op = self._by_record.get(ident)
            if op is not None:
                op.outcome = "failed: analytics copy"
        prefix = {op.id for op in self.prefix_ops()}
        self.state_digest = digest(sorted(
            (ident, count) for ident, count in seen.items()
            if ident in self._by_record
            and self._by_record[ident].id in prefix))
        return failures


SIM_WORKLOADS = {
    cls.name: cls for cls in (OrdersWorkload, StorefrontWorkload, FleetWorkload)
}

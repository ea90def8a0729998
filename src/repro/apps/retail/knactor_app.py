"""The data-centric (Knactor) variant of the online retail app.

Eleven knactors on one Object Data Exchange, composed by a Cast
integrator whose DXG reproduces the paper's Fig. 6 (Checkout x Shipping x
Payment), plus a second Cast that queues a confirmation email once the
order is fulfilled -- composition logic consolidated into two integrator
modules instead of scattered across service codebases.
"""

from dataclasses import dataclass, field, replace

from repro import config
from repro.apps.retail import knactors as recs
from repro.apps.retail.schemas import ALL_SCHEMAS
from repro.core import Cast, Knactor, KnactorRuntime, StoreBinding, create_environment
from repro.core.optimizer import K_APISERVER, OptimizationProfile
from repro.errors import ConfigurationError
from repro.exchange import ObjectDE
from repro.flow import INTEGRATOR, FlowConfig
from repro.obs.context import use
from repro.simnet import Environment, FixedLatency, Network, Tracer
from repro.store import ApiServer, MemKV, ShardedStore

#: Fig. 6, verbatim: the data exchange graph composing Checkout,
#: Shipping, and Payment.
RETAIL_DXG = """\
Input:
  C: OnlineRetail/v1/Checkout/knactor-checkout
  S: OnlineRetail/v1/Shipping/knactor-shipping
  P: OnlineRetail/v1/Payment/knactor-payment
DXG:
  C.order:
    shippingCost: >
      currency_convert(S.quote.price,
      S.quote.currency, this.currency)
    paymentID: P.id
    trackingID: S.id
  P:
    # other fields in the data store: id
    amount: C.order.totalCost
    currency: C.order.currency
  S:
    # other fields in the data store: id, quote
    items: '[item.name for item in C.order.items]'
    addr: C.order.address
    method: >
      "air" if C.order.cost > 1000 else "ground"
"""

#: A second integrator: confirmation email once the order fulfils.
NOTIFY_DXG = """\
Input:
  C: OnlineRetail/v1/Checkout/knactor-checkout
  E: OnlineRetail/v1/Email/knactor-email
Kinds:
  C: [order]
DXG:
  E.notice:
    to: C.order.email if C.order.status == 'fulfilled' else None
    template: >
      'order-shipped' if C.order.status == 'fulfilled' else None
    orderRef: cid if C.order.status == 'fulfilled' else None
"""

_RECONCILERS = {
    "checkout": recs.CheckoutReconciler,
    "shipping": recs.ShippingReconciler,
    "payment": recs.PaymentReconciler,
    "email": recs.EmailReconciler,
    "cart": recs.CartReconciler,
    "productcatalog": recs.ProductCatalogReconciler,
    "currency": recs.CurrencyReconciler,
    "recommendation": recs.RecommendationReconciler,
    "ad": recs.AdReconciler,
    "frontend": recs.FrontendReconciler,
    "loadgen": recs.LoadGenReconciler,
}


@dataclass
class RetailKnactorApp:
    """A built, started instance of the Knactor retail app."""

    env: Environment
    runtime: KnactorRuntime
    de: ObjectDE
    cast: Cast
    notify_cast: Cast
    profile: OptimizationProfile
    tracer: Tracer = None
    orders_placed: list = field(default_factory=list)
    flow: FlowConfig = None
    #: Causal trace id of the most recent ``place_order`` (obs plane
    #: attached only) -- load drivers link latency exemplars through it.
    last_trace_id: str = None

    @classmethod
    def build(cls, env=None, profile=K_APISERVER, seed=7, with_notify=True,
              dxg=None, retry_policy=None, topology=None,
              watch_batch_window=0.0,
              zero_copy=True, delta_watch=False, obs=None, flow=None,
              mode=None, shape_latency=None):
        """Construct the full app under an optimization profile.

        ``dxg`` overrides the main integrator's spec (the Table 2 bench
        uses a Checkout x Shipping-only DXG, matching the paper's
        measured configuration).  ``retry_policy`` (a
        :class:`repro.faults.RetryPolicy`) is shared by every store
        client the exchange mints -- required for chaos runs, harmless
        otherwise.  ``topology`` (a :class:`repro.store.Topology`)
        hash-partitions the Object backend on a consistent-hash ring (a
        :class:`repro.store.ShardedStore`) and enables live resharding;
        ``watch_batch_window > 0`` (seconds) coalesces watch fan-out per
        watcher per window -- the scale-out hot path.  ``zero_copy``
        keeps store state as frozen structurally-shared views (reads
        alias, writes path-copy); ``delta_watch`` ships merge-patch
        deltas instead of full snapshots on the watch/replication plane.
        ``obs=True`` attaches a :class:`repro.obs.ObsPlane`: every
        ``place_order`` opens a causal trace that follows the order
        through stores, integrators, and reconcilers.  ``flow=True`` (or
        a :class:`repro.flow.FlowConfig`) turns on the backpressure
        plane end to end: credit windows on every watch the exchange
        mints, bounded reconciler work queues, and token-bucket + AIMD
        admission control at the store front door with the integrator
        casts in the high-priority class.  ``mode`` selects the
        execution backend when no ``env`` is given (``"sim"`` default,
        ``"realtime"`` for wall-clock execution); ``shape_latency``
        keeps (True) or zeroes (False) the *simulated* infrastructure
        latencies -- network hops, store-op costs, watch overhead -- and
        defaults to True on the sim backend and False on realtime,
        where the wall clock itself provides the time.  App-semantic
        service times (the FedEx carrier call) are kept either way.
        """
        if env is None:
            env = create_environment(mode if mode is not None else "sim")
        if shape_latency is None:
            shape_latency = getattr(env, "backend", "sim") == "sim"
        flow_cfg = None
        if flow:
            flow_cfg = flow if isinstance(flow, FlowConfig) else FlowConfig()
        hop = config.NETWORK_HOP if shape_latency else FixedLatency(0.0)
        network = Network(env, default_latency=hop)
        tracer = Tracer(env)
        runtime = KnactorRuntime(
            env, network=network, tracer=tracer, obs=obs, mode=mode
        )

        if profile.backend == "apiserver":
            calibration = config.APISERVER
            server_cls = ApiServer
        elif profile.backend == "memkv":
            calibration = config.MEMKV
            server_cls = MemKV
        else:
            raise ConfigurationError(f"unknown backend {profile.backend!r}")
        if not shape_latency:
            calibration = config.zero_calibration(calibration)

        def make_backend(location):
            return server_cls(
                env, network, location=location,
                ops=calibration.ops, watch_overhead=calibration.watch_overhead,
                tracer=tracer, watch_batch_window=watch_batch_window,
                zero_copy=zero_copy, delta_watch=delta_watch,
            )

        if topology is not None:
            backend = ShardedStore(
                topology=topology, name="object-backend",
                shard_factory=lambda i: make_backend(f"object-backend-{i}"),
            )
        else:
            backend = make_backend("object-backend")
        if flow_cfg is not None:
            # The integrator casts outrank knactor/bench traffic at the
            # admission front door; explicit overrides win.
            principals = {"retail-cast": INTEGRATOR, "notify-cast": INTEGRATOR}
            principals.update(flow_cfg.principals)
            flow_cfg = replace(flow_cfg, principals=principals)
            if isinstance(backend, ShardedStore):
                backend.set_admission(lambda: flow_cfg.build_admission(env))
            else:
                backend.admission = flow_cfg.build_admission(env)
        de = ObjectDE(
            env, backend, retry_policy=retry_policy,
            watch_credits=flow_cfg.watch_credits if flow_cfg else None,
            watch_overflow=flow_cfg.watch_overflow if flow_cfg else None,
        )
        runtime.add_exchange("object", de)

        for name, schema in ALL_SCHEMAS.items():
            reconciler_cls = _RECONCILERS[name]
            reconciler = (
                reconciler_cls(seed=seed) if name == "shipping" else reconciler_cls()
            )
            if flow_cfg is not None:
                reconciler.max_queue = flow_cfg.reconciler_queue
                reconciler.queue_overflow = flow_cfg.reconciler_overflow
            runtime.add_knactor(
                Knactor(
                    name,
                    [StoreBinding("default", "object", schema)],
                    reconciler=reconciler,
                )
            )

        # Grants: the integrators may read the involved stores and write
        # exactly the +kr: external fields.
        for store in ("knactor-checkout", "knactor-shipping", "knactor-payment"):
            de.grant("retail-cast", store, role="integrator")
        cast = Cast(
            "retail-cast",
            dxg if dxg is not None else RETAIL_DXG,
            options=profile.executor_options(),
            pushdown=profile.pushdown,
            location=profile.integrator_location(backend.location, "retail-cast"),
        )
        runtime.add_integrator(cast)

        notify_cast = None
        if with_notify:
            de.grant("notify-cast", "knactor-checkout", role="reader")
            de.grant("notify-cast", "knactor-email", role="integrator")
            notify_cast = Cast(
                "notify-cast",
                NOTIFY_DXG,
                options=profile.executor_options(),
                location=profile.integrator_location(
                    backend.location, "notify-cast"
                ),
            )
            runtime.add_integrator(notify_cast)

        runtime.start()
        return cls(
            env=env,
            runtime=runtime,
            de=de,
            cast=cast,
            notify_cast=notify_cast,
            profile=profile,
            tracer=tracer,
            flow=flow_cfg,
        )

    # -- driving the app ---------------------------------------------------------

    def place_order(self, key, data):
        """Create an order in Checkout's store (a user checkout request).

        Returns the create-process event.  The rest of the flow -- the
        shipment, the charge, the back-filled order fields -- happens via
        the integrator with no further calls.  With the observability
        plane attached, the order gets a root causal trace (baggage:
        the order key) that the downstream exchange/reconcile chain
        extends automatically.
        """
        handle = self.runtime.handle_of("checkout")
        self.tracer.record("request", "start", key=key)
        self.orders_placed.append(key)
        obs = self.runtime.obs
        if obs is None:
            return handle.create(key, data)
        root = obs.causal.new_trace(
            "place-order", service="frontend", baggage={"order": key}, key=key,
        )
        self.last_trace_id = root.trace_id
        with use(root):
            proc = handle.create(key, data)
        # The root span covers the synchronous create round trip; the
        # causal chain it seeded keeps growing underneath it.
        proc.callbacks.append(
            lambda _evt: obs.causal.end_span(root, outcome="ok"))
        return proc

    def order(self, key):
        """Current order state (the owner's view); process event."""
        return self.runtime.handle_of("checkout").get(key)

    def shipment(self, key):
        return self.runtime.handle_of("shipping").get(key)

    def charge(self, key):
        return self.runtime.handle_of("payment").get(key)

    def run_until_quiet(self, max_seconds=120.0, settle=0.5):
        """Advance the simulation until no events fire for ``settle``s."""
        deadline = self.env.now + max_seconds
        while self.env.peek() <= deadline:
            horizon = min(self.env.peek() + settle, deadline)
            self.env.run(until=horizon)
        return self.env.now

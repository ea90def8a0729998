"""The module -> layer map and the wrappers that measure each layer.

The benchmark measures the program from outside: :class:`Instrumentation`
replaces public entry points of each layer (class attributes, or a
module global "where it is looked up") with wrappers that open a span
on a :class:`~spans.SpanRecorder` and bump counters, and puts the
originals back on :meth:`Instrumentation.uninstall`.  No file of the
program changes.

A wrapper never schedules an event, creates a process or changes an
argument, so the program's virtual time, event order and state are the
same traced or untraced; the determinism guard checks this.
"""

import functools
import importlib
import inspect
import sys
import types

from spans import timed_coroutine, timed_generator

#: Module (prefix) -> layer.  The longest matching prefix wins.
LAYER_OF_MODULE = {
    "repro.simnet": "simnet",
    "repro.simnet.network": "simnet.network",
    "repro.store": "store",
    "repro.store.cow": "store.cow",
    "repro.store.sharded": "store.sharded",
    "repro.store.ring": "store.sharded",
    "repro.store.loglake": "store.loglake",
    "repro.exchange": "exchange",
    "repro.exchange.access": "exchange.access",
    "repro.faults.retry": "exchange",
    "repro.core.cast": "core.cast",
    "repro.core.dxg": "core.cast",
    "repro.util.safeexpr": "util.safeexpr",
    "repro.core.reconciler": "core.reconciler",
    "repro.core.sync": "core.sync",
    "repro.schema": "schema",
    "repro.federation": "federation",
    "repro.query": "query",
    "repro.obs": "obs",
    "repro.realtime": "realtime",
    "repro.rest": "rest",
    "repro.apps.retail.rest_gateway": "rest",
    "repro.apps": "apps",
    "repro.load": "apps",
    "perfbench": "load",
}

#: Every layer a traced run reports self time for, in report order.
LAYERS = (
    "simnet", "simnet.network", "store", "store.cow", "store.sharded",
    "store.loglake", "exchange", "exchange.access", "core.cast",
    "util.safeexpr", "core.reconciler", "core.sync", "schema",
    "federation", "query", "obs", "realtime", "rest", "apps", "load",
)


def layer_of(module_name):
    """The layer of a dotted module name (longest prefix in the map)."""
    best = None
    for prefix, layer in LAYER_OF_MODULE.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    if best is None:
        raise KeyError(f"module {module_name!r} is in no layer")
    return best[1]


def op_from_key(key):
    """Op id of a store key: its last path segment (the order/record id)."""
    if isinstance(key, str) and key:
        return key.rsplit("/", 1)[-1]
    return None


# -- the targets ---------------------------------------------------------
#
# (module, class or None, attribute, options).  Options:
#   count=<name>      bump this counter per call
#   op=<callable>     (args, kwargs) -> op id for the span
#   extra=<callable>  (recorder, args, kwargs) -> None, extra counters
#   returns=<callable>(recorder, value) for generator return values
#   span=False        count only, no span (very hot, trivially cheap)
#   vt_call=True      record the virtual duration of the returned event
#   compiled=True     also time the callable the function returns

def _transfer_bytes(rec, args, kwargs):
    size = kwargs.get("size", args[4] if len(args) > 4 else 0)
    rec.count("simnet.network.bytes", size or 0)


def _watch_events(rec, args, kwargs):
    events = args[1] if len(args) > 1 else kwargs.get("events", ())
    rec.count("store.watch_events", len(events))


def _sync_records(rec, args, kwargs):
    records = args[3] if len(args) > 3 else kwargs.get("records", ())
    rec.count("core.sync.records", len(records))


def _cast_wrote(rec, stats):
    if getattr(stats, "writes", 0):
        rec.count("core.cast.useful")


def _key_arg(index):
    def extract(args, kwargs):
        key = args[index] if len(args) > index else kwargs.get("key")
        return op_from_key(key)
    return extract


def _request_op(args, kwargs):
    return op_from_key(kwargs.get("key"))


TARGETS = (
    # simnet: the kernel, processes, the network model
    ("repro.simnet.events", "Environment", "step", {"count": "simnet.events"}),
    ("repro.simnet.process", "Process", "__init__",
     {"count": "simnet.processes", "span": False}),
    ("repro.simnet.network", "Network", "transfer",
     {"count": "simnet.network.transfers", "extra": _transfer_bytes}),
    # store: client verbs, server request handling, watch fan-out
    ("repro.store.base", "StoreClient", "request",
     {"op": _request_op, "vt_call": True}),
    ("repro.store.base", "StoreClient", "_request", {}),
    ("repro.store.base", "StoreServer", "_handle", {"count": "store.ops"}),
    ("repro.store.base", "StoreServer", "notify", {}),
    ("repro.store.base", "Watch", "deliver", {"extra": _watch_events}),
    ("repro.store.sharded", "ShardedStoreClient", "_client_for", {}),
    ("repro.store.sharded", "ShardedStoreClient", "create", {}),
    ("repro.store.sharded", "ShardedStoreClient", "get", {}),
    ("repro.store.sharded", "ShardedStoreClient", "patch", {}),
    ("repro.store.sharded", "ShardedStoreClient", "update", {}),
    ("repro.store.sharded", "ShardedStoreClient", "list", {}),
    ("repro.store.loglake", "LogLakeClient", "load", {}),
    ("repro.store.loglake", "LogLakeClient", "query", {}),
    ("repro.store.loglake", "LogLake", "op_load", {}),
    ("repro.store.loglake", "LogLake", "op_query", {}),
    # exchange: handles, masking, access control, retries
    ("repro.exchange.object_de", "ObjectStoreHandle", "create", {}),
    ("repro.exchange.object_de", "ObjectStoreHandle", "get", {}),
    ("repro.exchange.object_de", "ObjectStoreHandle", "patch", {}),
    ("repro.exchange.object_de", "ObjectStoreHandle", "update", {}),
    ("repro.exchange.object_de", "ObjectStoreHandle", "list", {}),
    ("repro.exchange.object_de", "ObjectStoreHandle", "_mask", {}),
    ("repro.exchange.log_de", "LogStoreHandle", "load", {}),
    ("repro.exchange.log_de", "LogStoreHandle", "query", {}),
    ("repro.exchange.base", "DataExchange", "query", {}),
    ("repro.exchange.access", "AccessController", "check",
     {"count": "exchange.access.checks"}),
    ("repro.faults.retry", "RetryPolicy", "backoff_delay",
     {"count": "exchange.retries", "span": False}),
    # integrators: Cast + DXG executor + safeexpr, reconcilers, Sync
    ("repro.core.cast", "Cast", "_ingest", {}),
    ("repro.core.cast", "Cast", "_process", {"op": _key_arg(2)}),
    ("repro.core.dxg.executor", "DXGExecutor", "_exchange",
     {"count": "core.cast.executions", "op": _key_arg(1),
      "returns": _cast_wrote}),
    ("repro.util.safeexpr", "SafeExpression", "evaluate",
     {"count": "util.safeexpr.evals"}),
    ("repro.core.reconciler", "Reconciler", "_on_events", {}),
    ("repro.core.reconciler", "Reconciler", "_reconcile_once",
     {"count": "core.reconciler.passes", "op": _key_arg(2)}),
    ("repro.core.reconciler", "Reconciler", "requeue",
     {"count": "core.reconciler.requeues", "span": False}),
    ("repro.core.reconciler", "Reconciler", "_record_failure",
     {"count": "core.reconciler.requeues", "span": False}),
    ("repro.core.sync", "Sync", "_move", {}),
    ("repro.core.sync", "Sync", "_deliver", {"extra": _sync_records}),
    ("repro.core.sync", "Sync", "_catch_up", {}),
    # federation: planner, execution, materialized maintenance
    ("repro.federation.engine", "RegisteredView", "plan", {}),
    ("repro.federation.engine", "RegisteredView", "execute", {}),
    ("repro.federation.engine", "RegisteredView", "_fetch_source", {}),
    ("repro.federation.materialize", "MaterializedView", "_apply_object", {}),
    ("repro.federation.materialize", "MaterializedView", "_on_log_batch", {}),
    ("repro.federation.materialize", "MaterializedView", "tables", {}),
    # obs: causal spans
    ("repro.obs.causal", "CausalTracer", "new_trace", {"count": "obs.spans"}),
    ("repro.obs.causal", "CausalTracer", "start_span", {"count": "obs.spans"}),
    ("repro.obs.causal", "CausalTracer", "point", {"count": "obs.spans"}),
    ("repro.obs.causal", "CausalTracer", "end_span", {}),
    ("repro.obs.registry", "Registry", "counter", {}),
    ("repro.obs.registry", "Registry", "histogram", {}),
    # realtime kernel and the HTTP surface
    ("repro.realtime.env", "RealtimeEnvironment", "_arun", {}),
    ("repro.realtime.env", "RealtimeEnvironment", "schedule", {}),
    ("repro.realtime.env", "RealtimeEnvironment", "future_of", {}),
    ("repro.rest.server", "RestServer", "_dispatch", {}),
    ("repro.rest.http", "HttpListener", "_serve_connection", {}),
    ("repro.apps.retail.rest_gateway", "RetailGateway", "create_order", {}),
    ("repro.apps.retail.rest_gateway", "RetailGateway", "metrics", {}),
    # app entry points the load calls
    ("repro.apps.retail.knactor_app", "RetailKnactorApp", "place_order", {}),
    ("repro.load.sensorfleet", "SensorFleetApp", "ingest", {}),
)

#: Module functions wrapped in every module that looks them up, except
#: their own (so recursion inside the defining module is one span).
LOOKED_UP = (
    ("repro.store.cow", "estimate_size", {"count": "store.cow.estimate_size_calls"}),
    ("repro.store.cow", "freeze", {}),
    ("repro.store.cow", "thaw", {}),
    ("repro.store.cow", "merge_shared", {}),
    ("repro.store.cow", "mask_shared", {}),
    ("repro.store.cow", "diff_shared", {}),
    ("repro.store.cow", "copy_value", {}),
    ("repro.schema.validation", "validate_state", {}),
    ("repro.query.core", "compile_ops", {"compiled": True}),
    ("repro.federation.views", "compose", {}),
)


class Instrumentation:
    """Installs the layer wrappers on one recorder; uninstall restores."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, func, name, layer, options):
        rec = self.recorder
        counter = options.get("count")
        op_of = options.get("op")
        extra = options.get("extra")
        returns = options.get("returns")
        if returns is not None:
            returns = functools.partial(returns, rec)
        spanned = options.get("span", True)

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                if counter:
                    rec.count(counter)
                if extra:
                    extra(rec, args, kwargs)
                op = op_of(args, kwargs) if op_of else None
                return timed_generator(
                    func(*args, **kwargs), rec, name, layer,
                    op if op is not None else rec.current_op, returns,
                )
            return gen_wrapper

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            def coro_wrapper(*args, **kwargs):
                return timed_coroutine(
                    func(*args, **kwargs), rec, name, layer, rec.current_op,
                )
            return coro_wrapper

        if not spanned:
            @functools.wraps(func)
            def count_wrapper(*args, **kwargs):
                rec.count(counter)
                return func(*args, **kwargs)
            return count_wrapper

        compiled = options.get("compiled")
        vt_call = options.get("vt_call")

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counter:
                rec.count(counter)
            if extra:
                extra(rec, args, kwargs)
            rec.enter(name, layer, op_of(args, kwargs) if op_of else None)
            try:
                result = func(*args, **kwargs)
            finally:
                rec.exit()
            if vt_call:
                env = args[0].env
                began = env.now
                result.callbacks.append(
                    lambda _evt: rec.vt_samples.append(env.now - began))
            if compiled and callable(result):
                return self._wrap(result, name + ".run", layer, {})
            if isinstance(result, types.GeneratorType):
                # A plain function handing back a generator body (a
                # handler, a reconcile pass): time the body's resumes too.
                return timed_generator(result, rec, name, layer,
                                       rec.current_op)
            return result
        return wrapper

    def _patch(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    # -- install / uninstall ----------------------------------------------

    def install(self):
        for module_name, class_name, attribute, options in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name)
            original = owner.__dict__[attribute]
            layer = layer_of(module_name)
            name = f"{layer}:{class_name}.{attribute}"
            self._patch(owner, attribute,
                        self._wrap(original, name, layer, options))
        self._install_reconcile_methods()
        self._install_looked_up()
        return self

    def _install_reconcile_methods(self):
        """Count reconcile passes that acted (yielded a store op or wait).

        ``reconcile`` is app code overridden per knactor, so every
        subclass's own method is wrapped.  A pass that returns without
        yielding did no work: it is not useful.
        """
        from repro.core.reconciler import Reconciler

        rec = self.recorder
        seen = set()
        stack = list(Reconciler.__subclasses__())
        while stack:
            cls = stack.pop()
            stack.extend(cls.__subclasses__())
            method = cls.__dict__.get("reconcile")
            if method is None or method in seen:
                continue
            seen.add(method)
            module = cls.__module__
            layer = (layer_of(module) if module.startswith("repro.apps.")
                     else "core.reconciler")
            name = f"{layer}:{cls.__name__}.reconcile"
            self._patch(cls, "reconcile",
                        self._reconcile_wrapper(method, name, layer, rec))

    @staticmethod
    def _reconcile_wrapper(method, name, layer, rec):
        def noting(gen):
            acted = False
            value, error = None, None
            while True:
                try:
                    out = (gen.send(value) if error is None
                           else gen.throw(error))
                except StopIteration as stop:
                    return stop.value
                if not acted:
                    acted = True
                    rec.count("core.reconciler.useful")
                value, error = None, None
                try:
                    value = yield out
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:
                    error = exc

        @functools.wraps(method)
        def wrapper(self, ctx, key, obj):
            rec.count("core.reconciler.reconciles")
            rec.enter(name, layer, op_from_key(key))
            try:
                result = method(self, ctx, key, obj)
            finally:
                rec.exit()
            if isinstance(result, types.GeneratorType):
                return timed_generator(noting(result), rec, name, layer,
                                       op_from_key(key))
            return result
        return wrapper

    def _install_looked_up(self):
        for module_name, attribute, options in LOOKED_UP:
            home = importlib.import_module(module_name)
            original = getattr(home, attribute)
            layer = layer_of(module_name)
            wrapped = self._wrap(original, f"{layer}:{attribute}", layer,
                                 options)
            for name, module in list(sys.modules.items()):
                if (module is None or module is home
                        or not name.startswith("repro.")):
                    continue
                if module.__dict__.get(attribute) is original:
                    self._patch(module, attribute, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

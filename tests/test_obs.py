"""Tests for the observability plane: causal tracing + metrics registry."""

import json

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_REDIS
from repro.errors import ConfigurationError
from repro.obs import CausalTracer, Registry
from repro.obs.context import (
    bind_generator,
    current_context,
    span_process,
    use,
)
from repro.simnet import Environment, TraceError, Tracer


# -- context propagation ------------------------------------------------------


class TestAmbientContext:
    def test_default_is_none(self):
        assert current_context() is None

    def test_use_scopes_to_the_block(self):
        env = Environment()
        ctx = CausalTracer(env).new_trace("t", service="svc")
        with use(ctx):
            assert current_context() is ctx
        assert current_context() is None

    def test_use_nests(self):
        env = Environment()
        tracer = CausalTracer(env)
        outer = tracer.new_trace("outer", service="svc")
        inner = tracer.start_span("inner", service="svc", parent=outer)
        with use(outer):
            with use(inner):
                assert current_context() is inner
            assert current_context() is outer

    def test_bind_generator_arms_each_slice(self):
        env = Environment()
        ctx = CausalTracer(env).new_trace("t", service="svc")
        seen = []

        def task():
            seen.append(current_context())
            yield "step"
            seen.append(current_context())
            return "done"

        wrapped = bind_generator(task(), ctx)
        assert next(wrapped) == "step"
        # Between resumptions the ambient slot is NOT this task's context.
        assert current_context() is None
        with pytest.raises(StopIteration) as stop:
            wrapped.send(None)
        assert stop.value.value == "done"
        assert seen == [ctx, ctx]

    def test_interleaved_generators_stay_isolated(self):
        env = Environment()
        tracer = CausalTracer(env)
        ctx_a = tracer.new_trace("a", service="svc")
        ctx_b = tracer.new_trace("b", service="svc")
        seen = {"a": [], "b": []}

        def task(label):
            for _ in range(2):
                seen[label].append(current_context())
                yield label

        gen_a = bind_generator(task("a"), ctx_a)
        gen_b = bind_generator(task("b"), ctx_b)
        # Interleave the two, as the event loop would.
        next(gen_a), next(gen_b), gen_a.send(None), gen_b.send(None)
        assert seen["a"] == [ctx_a, ctx_a]
        assert seen["b"] == [ctx_b, ctx_b]

    def test_bind_generator_forwards_thrown_exceptions(self):
        env = Environment()
        ctx = CausalTracer(env).new_trace("t", service="svc")
        caught = []

        def task():
            try:
                yield "step"
            except RuntimeError as exc:
                caught.append((current_context(), exc))
            return "recovered"

        wrapped = bind_generator(task(), ctx)
        next(wrapped)
        with pytest.raises(StopIteration) as stop:
            wrapped.throw(RuntimeError("boom"))
        assert stop.value.value == "recovered"
        # The except clause ran with the bound context ambient.
        assert caught[0][0] is ctx

    def test_span_process_closes_with_outcome(self):
        env = Environment()
        tracer = CausalTracer(env)
        ctx = tracer.new_trace("work", service="svc")

        def task():
            yield "step"

        wrapped = span_process(task(), ctx)
        next(wrapped)
        with pytest.raises(StopIteration):
            wrapped.send(None)
        assert tracer.spans[ctx.span_id].attrs["outcome"] == "ok"
        assert tracer.spans[ctx.span_id].end is not None

    def test_span_process_records_failure_outcome(self):
        env = Environment()
        tracer = CausalTracer(env)
        ctx = tracer.new_trace("work", service="svc")

        def task():
            yield "step"
            raise ValueError("bad")

        wrapped = span_process(task(), ctx)
        next(wrapped)
        with pytest.raises(ValueError):
            wrapped.send(None)
        assert tracer.spans[ctx.span_id].attrs["outcome"] == "ValueError"


# -- the causal tracer --------------------------------------------------------


class TestCausalTracer:
    def test_span_ids_are_deterministic_counters(self):
        env = Environment()
        tracer = CausalTracer(env)
        root = tracer.new_trace("r", service="svc")
        child = tracer.start_span("c", service="svc", parent=root)
        assert root.trace_id == "t000001"
        assert root.span_id == "s000002"
        assert child.span_id == "s000003"
        assert child.trace_id == root.trace_id

    def test_baggage_inherits_and_merges(self):
        env = Environment()
        tracer = CausalTracer(env)
        root = tracer.new_trace("r", service="svc", baggage={"order": "o1"})
        child = tracer.start_span("c", service="svc", parent=root,
                                  baggage={"step": "ship"})
        assert child.baggage == {"order": "o1", "step": "ship"}
        assert root.baggage == {"order": "o1"}  # parent untouched

    def test_end_span_is_idempotent(self):
        env = Environment()
        tracer = CausalTracer(env)
        ctx = tracer.new_trace("r", service="svc")
        tracer.end_span(ctx, outcome="ok")
        first_end = tracer.spans[ctx.span_id].end
        env.run(until=1.0)
        tracer.end_span(ctx, outcome="late")
        assert tracer.spans[ctx.span_id].end == first_end
        # Later attrs still merge (the first *end time* wins, not attrs).
        assert tracer.spans[ctx.span_id].attrs["outcome"] == "late"

    def test_dag_and_children(self):
        env = Environment()
        tracer = CausalTracer(env)
        root = tracer.new_trace("r", service="svc")
        a = tracer.start_span("a", service="svc", parent=root)
        b = tracer.start_span("b", service="svc", parent=root)
        leaf = tracer.start_span("leaf", service="svc", parent=a)
        dag = tracer.dag(root.trace_id)
        assert dag[root.span_id] == [a.span_id, b.span_id]
        assert dag[a.span_id] == [leaf.span_id]
        assert [s.span_id for s in tracer.children(root.span_id)] == \
            [a.span_id, b.span_id]
        assert [s.span_id for s in tracer.roots(root.trace_id)] == \
            [root.span_id]

    def test_find_trace_by_baggage(self):
        env = Environment()
        tracer = CausalTracer(env)
        tracer.new_trace("r1", service="svc", baggage={"order": "o1"})
        t2 = tracer.new_trace("r2", service="svc", baggage={"order": "o2"})
        assert tracer.find_trace(order="o2") == t2.trace_id
        assert tracer.find_trace(order="nope") is None

    def test_point_span_has_zero_duration(self):
        env = Environment()
        tracer = CausalTracer(env)
        ctx = tracer.point("commit", service="store", store="s1")
        span = tracer.spans[ctx.span_id]
        assert span.duration == 0
        assert span.attrs["store"] == "s1"

    def test_annotate_attaches_events(self):
        env = Environment()
        tracer = CausalTracer(env)
        ctx = tracer.new_trace("r", service="svc")
        tracer.annotate(ctx, "retry", attempt=1)
        [(_, name, attrs)] = tracer.spans[ctx.span_id].events
        assert name == "retry" and attrs == {"attempt": 1}

    def test_critical_path_follows_latest_leaf(self):
        env = Environment()
        tracer = CausalTracer(env)
        root = tracer.new_trace("r", service="svc")
        fast = tracer.start_span("fast", service="svc", parent=root)
        tracer.end_span(fast)
        env.run(until=2.0)
        slow = tracer.start_span("slow", service="svc", parent=root)
        tracer.end_span(slow)
        tracer.end_span(root)
        path = [s.name for s in tracer.critical_path(root.trace_id)]
        assert path == ["r", "slow"]

    def test_chrome_trace_entries_are_well_formed(self):
        env = Environment()
        tracer = CausalTracer(env)
        root = tracer.new_trace("r", service="svc", baggage={"order": "o1"})
        tracer.end_span(root)
        [entry] = json.loads(json.dumps(tracer.to_chrome_trace()))
        assert entry["ph"] == "X"
        assert entry["pid"] == "svc"
        assert entry["tid"] == root.trace_id
        assert entry["args"]["baggage"] == {"order": "o1"}


# -- the metrics registry -----------------------------------------------------


class TestRegistry:
    def test_counter_accumulates(self):
        reg = Registry(Environment())
        reg.counter("ops", store="a").inc()
        reg.counter("ops", store="a").inc(2)
        reg.counter("ops", store="b").inc()
        series = reg.snapshot()["metrics"]["ops"]["series"]
        assert series == {"store=a": 3.0, "store=b": 1.0}

    def test_counter_rejects_decrease(self):
        reg = Registry(Environment())
        with pytest.raises(ConfigurationError):
            reg.counter("ops").inc(-1)

    def test_gauge_sets_level(self):
        reg = Registry(Environment())
        reg.gauge("depth").set(5)
        reg.gauge("depth").set(2)
        assert reg.snapshot()["metrics"]["depth"]["series"][""] == 2.0

    def test_histogram_summary(self):
        reg = Registry(Environment())
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.histogram("lag").observe(v)
        summary = reg.snapshot()["metrics"]["lag"]["series"][""]
        assert summary["count"] == 4
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["p50"] == 2.5

    def test_histogram_decimates_past_cap(self):
        from repro.obs.registry import _HISTOGRAM_CAP

        reg = Registry(Environment())
        handle = reg.histogram("big")
        for v in range(_HISTOGRAM_CAP + 10):
            handle.observe(float(v))
        summary = reg.snapshot()["metrics"]["big"]["series"][""]
        # Exact count survives decimation; the reservoir is bounded.
        assert summary["count"] == _HISTOGRAM_CAP + 10
        assert len(handle._series.values) <= _HISTOGRAM_CAP

    def test_kind_mismatch_is_a_configuration_error(self):
        reg = Registry(Environment())
        reg.counter("ops").inc()
        with pytest.raises(ConfigurationError):
            reg.gauge("ops")
        with pytest.raises(ConfigurationError):
            reg.counter("ops").set(1)

    def test_collector_scrapes_at_snapshot(self):
        reg = Registry(Environment())
        source = {"total": 7}
        reg.register_collector(
            lambda r: r.counter("scraped").set_total(source["total"]))
        assert reg.snapshot()["metrics"]["scraped"]["series"][""] == 7.0
        source["total"] = 9
        assert reg.snapshot()["metrics"]["scraped"]["series"][""] == 9.0

    def test_window_delta_rates_over_sim_time(self):
        env = Environment()
        reg = Registry(env)
        reg.counter("ops").inc(5)
        window = reg.window()
        env.run(until=2.0)
        reg.counter("ops").inc(6)
        delta = window.delta()
        assert delta["interval"] == 2.0
        assert delta["metrics"]["ops"][""] == {"increase": 6.0, "rate": 3.0}


# -- the latency tracer's protocol error (satellite) --------------------------


class TestTracerEndError:
    def test_end_without_begin_raises_trace_error(self):
        tracer = Tracer(Environment())
        tracer.begin("cast", "exchange", key="c1")
        with pytest.raises(TraceError) as err:
            tracer.end("cast", "exchange", key="c2")
        message = str(err.value)
        assert "cast/exchange" in message and "c2" in message
        # The message lists what IS open, to make the mismatch findable.
        assert "c1" in message

    def test_double_end_raises_trace_error(self):
        tracer = Tracer(Environment())
        tracer.begin("rpc", "call")
        tracer.end("rpc", "call")
        with pytest.raises(TraceError):
            tracer.end("rpc", "call")

    def test_open_span_has_none_end(self):
        tracer = Tracer(Environment())
        span = tracer.begin("rpc", "call")
        assert span.end is None
        with pytest.raises(ValueError):
            span.duration


# -- the acceptance run: one order's cross-service causal DAG -----------------


@pytest.fixture(scope="module")
def traced_app():
    app = RetailKnactorApp.build(profile=K_REDIS, with_notify=True, obs=True)
    workload = OrderWorkload(seed=7)
    key, data = workload.next_order()
    app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    return app, key


class TestCausalDagAcceptance:
    def test_trace_found_by_order_baggage(self, traced_app):
        app, key = traced_app
        assert app.runtime.obs.causal.find_trace(order=key) is not None

    def test_trace_spans_three_services_and_two_stores(self, traced_app):
        app, key = traced_app
        causal = app.runtime.obs.causal
        trace_id = causal.find_trace(order=key)
        services = causal.services(trace_id)
        stores = causal.stores(trace_id)
        assert len(services) >= 3, f"only {services}"
        assert len(stores) >= 2, f"only {stores}"
        assert "knactor-checkout" in stores
        assert "knactor-shipping" in stores

    def test_checkout_write_flows_through_exchange_to_shipping(
            self, traced_app):
        """The paper's pitch, as a DAG walk: the checkout write is an
        ancestor of the integrator exchange, which parents the shipping
        write -- causality across services recovered purely from data."""
        app, key = traced_app
        causal = app.runtime.obs.causal
        trace_id = causal.find_trace(order=key)
        spans = causal.spans_of(trace_id)
        shipping_writes = [
            s for s in spans
            if s.name == "write" and s.attrs.get("store") == "knactor-shipping"
        ]
        assert shipping_writes, "no shipping write recorded in the trace"

        def ancestors(span):
            while span.parent_id is not None:
                span = causal.spans[span.parent_id]
                yield span

        chain = list(ancestors(shipping_writes[0]))
        names = [(s.name, s.service) for s in chain]
        assert ("exchange", "retail-cast") in names, names
        assert any(
            s.name == "write" and s.attrs.get("store") == "knactor-checkout"
            for s in chain
        ), names
        assert chain[-1].name == "place-order"

    def test_root_span_closed_ok(self, traced_app):
        app, key = traced_app
        causal = app.runtime.obs.causal
        [root] = causal.roots(causal.find_trace(order=key))
        assert root.end is not None
        assert root.attrs["outcome"] == "ok"

    def test_chrome_export_is_valid_trace_event_json(self, traced_app):
        app, _key = traced_app
        entries = app.runtime.obs.causal.to_chrome_trace()
        entries += app.tracer.to_chrome_trace()
        data = json.loads(json.dumps({"traceEvents": entries}))
        assert len(data["traceEvents"]) > 10
        for entry in data["traceEvents"]:
            assert entry["ph"] in ("X", "i")
            assert isinstance(entry["ts"], (int, float))
            if entry["ph"] == "X":
                assert entry["dur"] >= 0

    def test_registry_scraped_runtime_counters(self, traced_app):
        app, _key = traced_app
        metrics = app.runtime.obs.registry.snapshot()["metrics"]
        ops = metrics["store_ops_total"]["series"]
        assert sum(ops.values()) == sum(app.de.backend.op_counts.values())
        assert metrics["exchanges_total"]["series"]["integrator=retail-cast"] \
            == app.cast.exchanges_run
        lag = metrics["watch_lag_seconds"]["series"]
        assert sum(s["count"] for s in lag.values()) > 0

    def test_dashboard_renders_every_metric(self, traced_app):
        app, _key = traced_app
        dashboard = app.runtime.obs.dashboard()
        assert "store_ops_total" in dashboard
        assert "traces 1" in dashboard

    def test_request_report_names_the_critical_path(self, traced_app):
        app, key = traced_app
        causal = app.runtime.obs.causal
        report = causal.request_report(causal.find_trace(order=key))
        assert "critical path:" in report
        assert "place-order" in report
        assert key in report  # baggage surfaces in the header

    def test_obs_off_leaves_no_plane(self):
        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False)
        assert app.runtime.obs is None
        assert app.tracer.obs is None

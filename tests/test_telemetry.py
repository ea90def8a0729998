"""Tests for the telemetry / SLO-monitoring layer."""

import pytest

from repro.apps.retail.knactor_app import RetailKnactorApp
from repro.apps.retail.workload import OrderWorkload
from repro.core.optimizer import K_REDIS
from repro.metrics.telemetry import (
    _state_plane_stats,
    exchange_durations,
    reconcile_durations,
    resilience_snapshot,
    runtime_snapshot,
)
from repro.errors import ConfigurationError
from repro.obs.slo import TraceLatencySLO
from repro.util.stats import interpolated


@pytest.fixture(scope="module")
def app():
    app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False)
    workload = OrderWorkload(seed=7)
    for _ in range(3):
        key, data = workload.next_order()
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    return app


class TestSnapshot:
    def test_covers_all_components(self, app):
        snapshot = runtime_snapshot(app.runtime)
        assert set(snapshot["knactors"]) == set(app.runtime.knactors)
        assert "retail-cast" in snapshot["integrators"]
        assert snapshot["exchanges"]["object"]["audited_accesses"] > 0

    def test_reconciler_counters(self, app):
        shipping = runtime_snapshot(app.runtime)["knactors"]["shipping"]
        assert shipping["reconciles"] >= 3
        assert shipping["queue_depth"] == 0  # quiescent

    def test_backend_op_counts_present(self, app):
        ops = runtime_snapshot(app.runtime)["exchanges"]["object"]["backend_ops"]
        assert ops.get("create", 0) >= 3
        assert ops.get("patch", 0) >= 3

    def test_shape_without_obs_plane(self, app):
        snapshot = runtime_snapshot(app.runtime)
        assert set(snapshot) == {"time", "knactors", "integrators",
                                 "exchanges"}
        assert snapshot["time"] == app.env.now

    def test_obs_section_present_when_plane_attached(self):
        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False,
                                     obs=True)
        key, data = OrderWorkload(seed=7).next_order()
        app.env.run(until=app.place_order(key, data))
        app.run_until_quiet(max_seconds=60.0)
        obs = runtime_snapshot(app.runtime)["obs"]
        assert obs["traces"]["count"] == 1
        assert obs["traces"]["spans"] > 3
        assert "store_ops_total" in obs["metrics"]["metrics"]

    def test_state_plane_section(self, app):
        state_plane = runtime_snapshot(app.runtime)["exchanges"]["object"][
            "state_plane"]
        assert state_plane["zero_copy"] is True
        assert set(state_plane["copy"]) >= {"copied_bytes",
                                            "shared_bytes_avoided"}
        assert state_plane["watch_wire_bytes"] > 0


class TestStatePlaneStats:
    def test_none_for_backends_without_copy_meter(self):
        class Legacy:
            pass

        assert _state_plane_stats(Legacy()) is None

    def test_counters_for_instrumented_backend(self, app):
        stats = _state_plane_stats(app.de.backend)
        assert set(stats) == {"zero_copy", "delta_watch", "copy",
                              "watch_wire_bytes", "watch_deltas_sent",
                              "watch_fulls_sent"}
        # Full/delta split only accumulates on the delta-watch plane;
        # here it is off, so the counters exist but stay zero.
        assert stats["delta_watch"] is False
        assert stats["watch_wire_bytes"] > 0


class TestResilienceSnapshot:
    def test_shape_and_quiescent_values(self, app):
        snapshot = resilience_snapshot(app.runtime)
        assert set(snapshot) == {"time", "reconcilers", "integrators",
                                 "stores", "retries", "circuits"}
        shipping = snapshot["reconcilers"]["shipping"]
        assert shipping["health"] == "ready"
        assert shipping["dead_letters"] == 0
        assert shipping["dead_letter_keys"] == []
        cast = snapshot["integrators"]["retail-cast"]
        assert cast["started"] is True
        assert cast["dead_letters"] == 0
        store = snapshot["stores"]["object-backend"]
        assert store["available"] is True
        assert store["crashes"] == 0

    def test_breakers_included_when_passed(self, app):
        from repro.faults import CircuitBreaker

        breaker = CircuitBreaker(app.env, name="probe")
        snapshot = resilience_snapshot(app.runtime, breakers=[breaker])
        assert snapshot["circuits"]["probe"]["state"] == "closed"


class TestExchangeDurations:
    def test_one_span_per_exchange(self, app):
        durations = exchange_durations(app.tracer, "retail-cast")
        assert len(durations) == app.cast.exchanges_run
        assert all(d >= 0 for d in durations)

    def test_unknown_integrator_has_no_spans(self, app):
        assert exchange_durations(app.tracer, "nope") == []

    def test_reconcile_durations_per_knactor(self, app):
        durations = reconcile_durations(app.tracer, "shipping")
        assert len(durations) >= 3
        # The carrier call dominates each shipping reconcile.
        assert all(d > 0.4 for d in durations if d > 0.01)

    def test_reconcile_durations_unknown_knactor(self, app):
        assert reconcile_durations(app.tracer, "ghost") == []


class TestTraceLatencySLO:
    """Latency objectives over the retail integrator's exchange spans."""

    def test_met_slo(self, app):
        spec = TraceLatencySLO("exchange-fast", integrator="retail-cast",
                               target_seconds=1.0)
        result = spec.evaluate_trace(app.tracer)
        assert result.met and not result.no_data
        assert result.sample_count == app.cast.exchanges_run
        assert result.good == result.total == result.sample_count
        assert "MET" in result.describe()

    def test_violated_slo(self, app):
        spec = TraceLatencySLO("impossible", integrator="retail-cast",
                               target_seconds=1e-9)
        result = spec.evaluate_trace(app.tracer)
        assert not result.met
        assert "VIOLATED" in result.describe()

    def test_custom_percentile(self, app):
        spec = TraceLatencySLO("median", integrator="retail-cast",
                               target_seconds=1.0, percentile=0.5)
        result = spec.evaluate_trace(app.tracer)
        assert result.target == 0.5
        durations = sorted(exchange_durations(app.tracer, "retail-cast"))
        assert result.observed == interpolated(durations, 0.5)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            TraceLatencySLO("x", integrator="cast", target_seconds=0)
        with pytest.raises(ConfigurationError):
            TraceLatencySLO("x", integrator="cast", target_seconds=1,
                            percentile=1.5)

"""Unit suite for the declarative SLO layer (``repro.obs.slo``).

Everything runs against a standalone registry on a bare simnet
environment: objective judgements, exemplar linkage, multi-window
burn-rate math, and error-budget accounting, with hand-built counts so
every expected number is derivable by inspection.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs import Registry
from repro.obs.slo import (
    AvailabilitySLO,
    BurnRateTracker,
    BurnWindow,
    FreshnessSLO,
    LatencySLO,
    SLOReport,
    TraceLatencySLO,
    evaluate,
)
from repro.simnet import Environment, Tracer


def _env_registry():
    env = Environment()
    return env, Registry(env)


def _advance(env, seconds):
    """Move the sim clock forward by ``seconds``."""
    env.run(until=env.now + seconds)


class TestLatencySLO:
    def test_met_under_threshold(self):
        env, registry = _env_registry()
        series = registry.histogram("request_latency_seconds", scenario="t")
        for value in (0.01, 0.02, 0.03):
            series.observe(value)
        result = LatencySLO("lat", percentile=0.99,
                            threshold_seconds=0.1).evaluate(registry)
        assert result.met
        assert result.observed <= 0.03
        assert result.exemplars == []
        assert "MET" in result.describe()

    def test_violation_carries_worst_exemplars(self):
        env, registry = _env_registry()
        series = registry.histogram("request_latency_seconds", scenario="t")
        for index in range(20):
            series.observe(0.01, exemplar=f"t-fast-{index}")
        for index, value in enumerate((0.5, 0.9, 0.7)):
            series.observe(value, exemplar=f"t-slow-{index}")
        result = LatencySLO("lat", percentile=0.95,
                            threshold_seconds=0.1).evaluate(registry)
        assert not result.met
        values = [e["value"] for e in result.exemplars]
        assert values == sorted(values, reverse=True)
        assert values[0] == 0.9
        assert all(v > 0.1 for v in values)
        assert result.exemplars[0]["trace_id"] == "t-slow-1"

    def test_label_filter_selects_series(self):
        env, registry = _env_registry()
        registry.histogram("request_latency_seconds",
                           scenario="a").observe(0.01)
        registry.histogram("request_latency_seconds",
                           scenario="b").observe(9.0)
        result = LatencySLO("lat", labels={"scenario": "a"},
                            threshold_seconds=0.1).evaluate(registry)
        assert result.met and result.sample_count == 1

    def test_no_data(self):
        env, registry = _env_registry()
        result = LatencySLO("lat", threshold_seconds=0.1).evaluate(registry)
        assert result.no_data and not result.met
        assert "NO DATA" in result.describe()

    def test_good_total_counts_under_threshold(self):
        env, registry = _env_registry()
        series = registry.histogram("request_latency_seconds")
        for value in (0.01, 0.02, 0.5, 0.9):
            series.observe(value)
        good, total = LatencySLO(
            "lat", threshold_seconds=0.1).good_total(registry)
        assert (good, total) == (2, 4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LatencySLO("lat")  # no threshold
        with pytest.raises(ConfigurationError):
            LatencySLO("lat", threshold_seconds=-1)
        with pytest.raises(ConfigurationError):
            LatencySLO("lat", threshold_seconds=0.1, percentile=1.5)
        with pytest.raises(ConfigurationError):
            LatencySLO("", threshold_seconds=0.1)


class TestFreshnessSLO:
    def test_reads_watch_lag_by_default(self):
        env, registry = _env_registry()
        registry.histogram("watch_lag_seconds").observe(0.02)
        result = FreshnessSLO("fresh",
                              threshold_seconds=0.1).evaluate(registry)
        assert result.kind == "freshness"
        assert result.met and result.sample_count == 1


class TestAvailabilitySLO:
    def _spec(self, target=0.9, **kwargs):
        return AvailabilitySLO(
            "avail", target=target,
            total=[("requests_total", {})],
            bad=[("requests_total", {"outcome": "rejected"})],
            **kwargs,
        )

    def test_good_fraction(self):
        env, registry = _env_registry()
        registry.counter("requests_total", outcome="ok").inc(95)
        registry.counter("requests_total", outcome="rejected").inc(5)
        result = self._spec(target=0.9).evaluate(registry)
        assert result.met
        assert result.observed == pytest.approx(0.95)
        assert (result.good, result.total) == (95, 100)

    def test_violation_borrows_exemplars_from_histogram(self):
        env, registry = _env_registry()
        registry.counter("requests_total", outcome="ok").inc(5)
        registry.counter("requests_total", outcome="rejected").inc(5)
        lat = registry.histogram("request_latency_seconds", scenario="t")
        lat.observe(0.3, exemplar="t-worst")
        lat.observe(0.1, exemplar="t-mild")
        result = self._spec(
            target=0.99,
            exemplar_metric="request_latency_seconds",
            exemplar_labels={"scenario": "t"},
        ).evaluate(registry)
        assert not result.met
        assert result.exemplars[0]["trace_id"] == "t-worst"

    def test_violation_without_companion_histogram_has_no_exemplars(self):
        env, registry = _env_registry()
        registry.counter("requests_total", outcome="rejected").inc(10)
        result = self._spec(target=0.99).evaluate(registry)
        assert not result.met and result.exemplars == []

    def test_no_data(self):
        env, registry = _env_registry()
        result = self._spec().evaluate(registry)
        assert result.no_data and not result.met

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AvailabilitySLO("a", target=1.5, total=[("x", {})])
        with pytest.raises(ConfigurationError):
            AvailabilitySLO("a", target=0.9, total=[])


class TestBurnWindows:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurnWindow(long_seconds=5, short_seconds=5, factor=2)
        with pytest.raises(ConfigurationError):
            BurnWindow(long_seconds=10, short_seconds=1, factor=0)


class TestBurnRateTracker:
    """Hand-built counts: every burn rate below is derivable on paper."""

    WINDOW = BurnWindow(long_seconds=10.0, short_seconds=1.0, factor=3.0)

    def _setup(self):
        env, registry = _env_registry()
        spec = AvailabilitySLO(
            "avail", target=0.8,  # error budget: 20%
            total=[("requests_total", {})],
            bad=[("requests_total", {"outcome": "rejected"})],
            windows=(self.WINDOW,),
        )
        tracker = BurnRateTracker(env, registry, [spec])
        ok = registry.counter("requests_total", outcome="ok")
        bad = registry.counter("requests_total", outcome="rejected")
        return env, registry, spec, tracker, ok, bad

    def test_burn_math_and_alerting(self):
        env, registry, spec, tracker, ok, bad = self._setup()
        tracker.sample()  # t=0: (0, 0)

        _advance(env, 1.0)
        ok.inc(90), bad.inc(10)  # 10% bad of 100
        tracker.sample()
        [entry] = tracker.burn_rates(spec)
        assert entry["long_burn"] == pytest.approx(0.5)   # 0.1 / 0.2
        assert not entry["alert"]
        assert tracker.error_budget_remaining(spec) == pytest.approx(0.5)

        _advance(env, 1.0)
        bad.inc(50)  # cumulative: 60 bad / 150
        tracker.sample()
        [entry] = tracker.burn_rates(spec)
        assert entry["long_burn"] == pytest.approx(2.0)   # 0.4 / 0.2
        assert entry["short_burn"] == pytest.approx(5.0)  # 50/50 / 0.2
        assert not entry["alert"]  # long window not yet over factor
        assert tracker.alerts() == []

        _advance(env, 1.0)
        bad.inc(100)  # cumulative: 160 bad / 250
        tracker.sample()
        [entry] = tracker.burn_rates(spec)
        assert entry["long_burn"] == pytest.approx(3.2)   # 0.64 / 0.2
        assert entry["short_burn"] == pytest.approx(5.0)  # 100/100 / 0.2
        assert entry["alert"]
        assert [name for name, _ in tracker.alerts()] == ["avail"]
        assert tracker.error_budget_remaining(spec) == 0.0

    def test_recovery_clears_the_short_window(self):
        env, registry, spec, tracker, ok, bad = self._setup()
        tracker.sample()
        _advance(env, 1.0)
        bad.inc(100)
        tracker.sample()
        _advance(env, 1.0)
        ok.inc(100)  # a clean recent window
        tracker.sample()
        [entry] = tracker.burn_rates(spec)
        assert entry["short_burn"] == pytest.approx(0.0)
        assert not entry["alert"]  # recovered burns stop paging

    def test_no_traffic_is_no_burn(self):
        env, registry, spec, tracker, ok, bad = self._setup()
        tracker.sample()
        _advance(env, 1.0)
        tracker.sample()
        [entry] = tracker.burn_rates(spec)
        assert entry["long_burn"] is None and not entry["alert"]
        assert tracker.error_budget_remaining(spec) is None

    def test_periodic_sampling_process(self):
        env, registry, spec, tracker, ok, bad = self._setup()
        tracker.interval = 0.5
        tracker.start()
        assert tracker.start() is None  # idempotent
        _advance(env, 2.0)
        tracker.stop()
        _advance(env, 5.0)
        samples = tracker._samples["avail"]
        assert len(samples) == 4  # 0.5, 1.0, 1.5, 2.0 -- none after stop
        assert samples[-1][0] == pytest.approx(2.0)

    def test_validation(self):
        env, registry = _env_registry()
        with pytest.raises(ConfigurationError):
            BurnRateTracker(env, registry, [], interval=0)


class TestTraceLatencySLO:
    def test_needs_a_tracer(self):
        env, registry = _env_registry()
        spec = TraceLatencySLO("legacy", integrator="sync",
                               target_seconds=0.1)
        with pytest.raises(ConfigurationError):
            spec.evaluate(registry)

    def test_empty_tracer_is_no_data(self):
        env = Environment()
        spec = TraceLatencySLO("legacy", integrator="sync",
                               target_seconds=0.1)
        result = spec.evaluate_trace(Tracer(env))
        assert result.no_data and not result.met

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TraceLatencySLO("legacy", target_seconds=0.1)  # no integrator
        with pytest.raises(ConfigurationError):
            TraceLatencySLO("legacy", integrator="sync", target_seconds=0)
        with pytest.raises(ConfigurationError):
            TraceLatencySLO("legacy", integrator="sync", target_seconds=1,
                            percentile=1.5)


class TestEvaluateAndReport:
    def test_report_shape(self):
        env, registry = _env_registry()
        registry.histogram("request_latency_seconds").observe(0.01)
        registry.counter("requests_total", outcome="ok").inc(10)
        specs = [
            LatencySLO("lat", threshold_seconds=0.1),
            AvailabilitySLO("avail", target=0.9,
                            total=[("requests_total", {})], bad=[]),
            TraceLatencySLO("legacy", integrator="sync", target_seconds=1.0),
        ]
        report = evaluate(specs, registry, scenario="unit", env=env,
                          meta={"run": 1})
        assert report.met
        # The trace-vocabulary spec is skipped, not judged.
        assert [r.name for r in report.results] == ["lat", "avail"]
        doc = report.to_json()
        assert doc["scenario"] == "unit"
        assert doc["met"] is True
        assert doc["meta"] == {"run": 1}
        assert {o["name"] for o in doc["objectives"]} == {"lat", "avail"}
        for objective in doc["objectives"]:
            assert set(objective) >= {
                "name", "kind", "met", "observed", "objective",
                "exemplars", "burn", "budget_remaining",
            }

    def test_violations_listed(self):
        env, registry = _env_registry()
        registry.histogram("request_latency_seconds").observe(5.0)
        report = SLOReport(scenario="unit", results=[
            LatencySLO("lat", threshold_seconds=0.1).evaluate(registry),
        ])
        assert not report.met
        assert [r.name for r in report.violated()] == ["lat"]
        assert "VIOLATIONS" in report.describe()

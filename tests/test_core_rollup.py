"""Tests for the Rollup integrator (Log -> Object aggregation)."""

import pytest

from repro.core import Knactor, KnactorRuntime, StoreBinding
from repro.core.rollup import Rollup, RollupRule
from repro.errors import ConfigurationError
from repro.exchange import LogDE, ObjectDE
from repro.simnet import FixedLatency, Network
from repro.store import ApiServer, LogLake

READINGS = """\
schema: Home/v1/Meter/Readings
kwh: number
room: string
"""

DASHBOARD = """\
schema: Home/v1/Dashboard/Panel
totalKwh: number # +kr: external
samples: number # +kr: external
"""


def build(env, window=None, where=None):
    net = Network(env, default_latency=FixedLatency(0.0005))
    runtime = KnactorRuntime(env, network=net)
    object_de = ObjectDE(env, ApiServer(env, net, watch_overhead=0.0))
    log_de = LogDE(env, LogLake(env, net, watch_overhead=0.0))
    runtime.add_exchange("object", object_de)
    runtime.add_exchange("log", log_de)
    runtime.add_knactor(Knactor("meter", [StoreBinding("log", "log", READINGS)]))
    runtime.add_knactor(Knactor("dashboard",
                                [StoreBinding("default", "object", DASHBOARD)]))
    log_de.grant("rollup", "knactor-meter-log", role="reader")
    object_de.grant("rollup", "knactor-dashboard", role="integrator")
    rollup = Rollup("rollup", rules=[
        RollupRule(
            source="knactor-meter-log",
            target="knactor-dashboard",
            target_key="main",
            aggs={"totalKwh": "sum(kwh)", "samples": "count()"},
            where=where,
            window=window,
        )
    ])
    runtime.add_integrator(rollup)
    runtime.start()
    return runtime, rollup


class TestRollup:
    def test_aggregates_into_object(self, env):
        runtime, rollup = build(env)
        meter = runtime.handle_of("meter", "log")
        env.run(until=meter.load([{"kwh": 1.0, "room": "den"}]))
        env.run(until=meter.load([{"kwh": 2.5, "room": "hall"}]))
        env.run()
        dashboard = runtime.handle_of("dashboard")
        data = env.run(until=dashboard.get("main"))["data"]
        assert data["totalKwh"] == pytest.approx(3.5)
        assert data["samples"] == 2
        assert rollup.status()["rules"][0]["updates"] == 2

    def test_where_filter(self, env):
        runtime, rollup = build(env, where="room == 'den'")
        meter = runtime.handle_of("meter", "log")
        env.run(until=meter.load([
            {"kwh": 1.0, "room": "den"},
            {"kwh": 100.0, "room": "garage"},
        ]))
        env.run()
        dashboard = runtime.handle_of("dashboard")
        assert env.run(until=dashboard.get("main"))["data"]["totalKwh"] == 1.0

    def test_trailing_window(self, env):
        runtime, rollup = build(env, window=10.0)
        meter = runtime.handle_of("meter", "log")
        env.run(until=meter.load([{"kwh": 5.0, "room": "den"}]))
        env.run(until=env.now + 60.0)  # the old record leaves the window
        env.run(until=meter.load([{"kwh": 1.0, "room": "den"}]))
        env.run()
        dashboard = runtime.handle_of("dashboard")
        assert env.run(until=dashboard.get("main"))["data"]["totalKwh"] == 1.0

    def test_reconfigure_swaps_rules(self, env):
        runtime, rollup = build(env)
        rollup.reconfigure([
            RollupRule(
                source="knactor-meter-log",
                target="knactor-dashboard",
                target_key="main",
                aggs={"totalKwh": "max(kwh)"},
            )
        ])
        meter = runtime.handle_of("meter", "log")
        env.run(until=meter.load([{"kwh": 2.0, "room": "a"},
                                  {"kwh": 9.0, "room": "b"}]))
        env.run()
        dashboard = runtime.handle_of("dashboard")
        assert env.run(until=dashboard.get("main"))["data"]["totalKwh"] == 9.0
        assert rollup.generation == 1

    def test_invalid_rules_rejected(self, env):
        net = Network(env)
        runtime = KnactorRuntime(env, network=net)
        runtime.add_exchange("object", ObjectDE(env, ApiServer(env, net)))
        runtime.add_exchange("log", LogDE(env, LogLake(env, net)))
        with pytest.raises(ConfigurationError):
            runtime.add_integrator(Rollup("r", rules=[
                RollupRule(source="s", target="t", target_key="k", aggs={})
            ]))
        with pytest.raises(ConfigurationError):
            runtime.add_integrator(Rollup("r2", rules=[
                RollupRule(source="s", target="t", target_key="k",
                           aggs={"x": "sum(v)"}, window=-1)
            ]))

    def test_stop_halts_updates(self, env):
        runtime, rollup = build(env)
        rollup.stop()
        meter = runtime.handle_of("meter", "log")
        env.run(until=meter.load([{"kwh": 1.0, "room": "den"}]))
        env.run()
        dashboard = runtime.handle_of("dashboard")
        from repro.errors import NotFoundError

        with pytest.raises(NotFoundError):
            env.run(until=dashboard.get("main"))

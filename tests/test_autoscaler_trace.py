"""Tests for the autoscaler and the Chrome-trace exporter."""

import json

import pytest

from repro.cluster import Cluster, Image, Node
from repro.cluster.autoscaler import HorizontalAutoscaler
from repro.errors import ClusterError
from repro.simnet import Tracer


@pytest.fixture
def cluster(env):
    return Cluster(env, nodes=[Node("n1", capacity=32), Node("n2", capacity=32)])


def make_autoscaler(env, cluster, load_holder, **kwargs):
    env.run(until=cluster.create_deployment("svc", Image("svc", "v1"), replicas=2))
    defaults = dict(
        cluster=cluster,
        deployment_name="svc",
        metric=lambda: load_holder["load"],
        target_load_per_replica=10.0,
        min_replicas=1,
        max_replicas=8,
        interval=5.0,
        cooldown=0.0,
    )
    defaults.update(kwargs)
    return HorizontalAutoscaler(**defaults)


class TestAutoscaler:
    def test_scales_up_under_load(self, env, cluster):
        load = {"load": 55.0}  # needs ceil(55/10) = 6 replicas
        scaler = make_autoscaler(env, cluster, load)
        scaler.start()
        env.run(until=30.0)
        assert len(cluster.deployment("svc").ready_pods) == 6
        assert scaler.events and scaler.events[0].to_replicas == 6

    def test_scales_down_when_idle(self, env, cluster):
        load = {"load": 0.0}
        scaler = make_autoscaler(env, cluster, load)
        scaler.start()
        env.run(until=30.0)
        assert len(cluster.deployment("svc").ready_pods) == 1

    def test_bounded_by_max(self, env, cluster):
        load = {"load": 10_000.0}
        scaler = make_autoscaler(env, cluster, load, max_replicas=4)
        scaler.start()
        env.run(until=30.0)
        assert len(cluster.deployment("svc").ready_pods) == 4

    def test_cooldown_prevents_flapping(self, env, cluster):
        load = {"load": 55.0}
        scaler = make_autoscaler(env, cluster, load, cooldown=1000.0)
        scaler.start()
        env.run(until=12.0)
        load["load"] = 0.0
        env.run(until=60.0)
        # Only the initial scale-up happened; the scale-down is cooling.
        assert len(scaler.events) == 1

    def test_stop_halts_scaling(self, env, cluster):
        load = {"load": 55.0}
        scaler = make_autoscaler(env, cluster, load)
        scaler.start()
        scaler.stop()
        env.run(until=30.0)
        assert scaler.events == []

    def test_desired_replicas_formula(self, env, cluster):
        scaler = make_autoscaler(env, cluster, {"load": 0})
        assert scaler.desired_replicas(0, 2) == 1
        assert scaler.desired_replicas(10, 2) == 1
        assert scaler.desired_replicas(11, 2) == 2
        assert scaler.desired_replicas(10**9, 2) == 8

    def test_invalid_configuration(self, env, cluster):
        with pytest.raises(ClusterError):
            make_autoscaler(env, cluster, {"load": 0}, target_load_per_replica=0)
        cluster2 = Cluster(env)
        env.run(until=cluster2.create_deployment("svc2", Image("s", "v1")))
        with pytest.raises(ClusterError):
            HorizontalAutoscaler(
                cluster=cluster2, deployment_name="svc2", metric=lambda: 0,
                target_load_per_replica=1.0, min_replicas=5, max_replicas=2,
            )


class TestChromeTrace:
    def test_export_shape(self, env):
        tracer = Tracer(env)
        tracer.record("cast", "begin", cid="o1")
        tracer.begin("stage", "work", key="o1", cid="o1")
        env.run(until=2.5)
        tracer.end("stage", "work", key="o1")
        entries = tracer.to_chrome_trace()
        assert len(entries) == 2
        instant = next(e for e in entries if e["ph"] == "i")
        complete = next(e for e in entries if e["ph"] == "X")
        assert instant["name"] == "begin" and instant["tid"] == "o1"
        assert complete["dur"] == pytest.approx(2.5e6)
        json.dumps(entries)  # must be JSON-serializable

    def test_entries_sorted_by_time(self, env):
        tracer = Tracer(env)
        tracer.begin("b", "span")
        env.run(until=3.0)
        tracer.record("a", "late")
        env.run(until=4.0)
        tracer.end("b", "span")
        entries = tracer.to_chrome_trace()
        times = [e["ts"] for e in entries]
        assert times == sorted(times)
        assert entries[0]["ph"] == "X"  # the span started first

    def test_open_spans_excluded(self, env):
        tracer = Tracer(env)
        tracer.begin("x", "never-closed")
        assert tracer.to_chrome_trace() == []

    def test_real_app_trace_exports(self):
        from repro.apps.retail.knactor_app import RetailKnactorApp
        from repro.apps.retail.workload import OrderWorkload
        from repro.core.optimizer import K_REDIS

        app = RetailKnactorApp.build(profile=K_REDIS, with_notify=False)
        key, data = OrderWorkload(seed=7).next_order()
        app.env.run(until=app.place_order(key, data))
        app.run_until_quiet(max_seconds=30.0)
        entries = app.tracer.to_chrome_trace()
        assert len(entries) > 10
        categories = {e["cat"] for e in entries}
        assert {"store", "cast", "reconciler"} <= categories
        json.dumps(entries)

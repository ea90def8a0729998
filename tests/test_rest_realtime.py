"""The real TCP front door: HttpListener + the retail REST gateway.

These tests bind real sockets on 127.0.0.1 (ephemeral ports), issue
requests from a client thread with ``http.client``, and drive the
kernel in the main thread until the client reports completion.
"""

import http.client
import json
import threading
import warnings
from urllib.parse import quote

import pytest

from repro.apps.retail.rest_gateway import serve_retail
from repro.apps.retail.workload import OrderWorkload
from repro.errors import ConfigurationError
from repro.realtime import RealtimeEnvironment
from repro.rest import RestServer
from repro.simnet import Environment, Network
from repro.store import ShardedStore


def _drive(env, listener, done, settle=0.05):
    """Run the kernel until the client thread flags completion."""

    def monitor():
        while not done.is_set():
            yield env.timeout(settle)
        listener.stop()

    env.process(monitor())
    env.run()


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, payload,
                     {"Content-Type": "application/json"} if payload else {})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestHttpListener:
    def test_serve_refused_on_sim_backend(self):
        env = Environment()
        server = RestServer(env, Network(env), "api")
        with pytest.raises(ConfigurationError, match="realtime backend"):
            server.serve()

    def test_round_trip_and_404(self):
        env = RealtimeEnvironment(factor=0.0)
        server = RestServer(env, Network(env), "api")
        server.route("GET", "/ping", lambda request: {"pong": True})
        server.route(
            "POST", "/echo", lambda request: {"got": request.body}
        )
        listener = server.serve(port=0)
        assert listener.port != 0

        results = {}
        done = threading.Event()

        def client():
            try:
                results["ping"] = _request(listener.port, "GET", "/ping")
                results["echo"] = _request(
                    listener.port, "POST", "/echo", body={"n": 3}
                )
                results["missing"] = _request(listener.port, "GET", "/nope")
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(env, listener, done)
        thread.join()
        env.close()

        assert results["ping"] == (200, {"pong": True})
        assert results["echo"] == (200, {"got": {"n": 3}})
        assert results["missing"][0] == 404
        assert server.requests_served == 2  # 404s are not served requests

    def test_keep_alive_reuses_one_connection(self):
        env = RealtimeEnvironment(factor=0.0)
        server = RestServer(env, Network(env), "api")
        server.route("GET", "/ping", lambda request: {"pong": True})
        listener = server.serve(port=0)

        statuses = []
        done = threading.Event()

        def client():
            conn = http.client.HTTPConnection(
                "127.0.0.1", listener.port, timeout=10
            )
            try:
                for _ in range(3):
                    conn.request("GET", "/ping")
                    response = conn.getresponse()
                    response.read()
                    statuses.append(response.status)
            finally:
                conn.close()
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(env, listener, done)
        thread.join()
        env.close()

        assert statuses == [200, 200, 200]
        assert listener.connections_accepted == 1


class TestRetailGateway:
    def test_order_lifecycle_over_tcp(self):
        app, gateway, listener = serve_retail(port=0, factor=0.02)
        key, data = OrderWorkload(seed=9).next_order()
        results = {}
        done = threading.Event()

        def client():
            try:
                results["health"] = _request(
                    listener.port, "GET", "/healthz"
                )
                results["created"] = _request(
                    listener.port, "POST", "/orders",
                    body={**data, "key": key, "email": "shopper@example.com"},
                )
                # Poll until the integrator fulfils the order for real.
                for _ in range(100):
                    status, body = _request(
                        listener.port, "GET",
                        f"/orders/{quote(key, safe='')}",
                    )
                    if body.get("order", {}).get("status") == "fulfilled":
                        break
                results["final"] = (status, body)
                results["missing"] = _request(
                    listener.port, "GET", "/orders/nope"
                )
                results["metrics"] = _request(listener.port, "GET", "/metrics")
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(app.env, listener, done)
        thread.join()
        app.env.close()

        assert results["health"][1]["backend"] == "realtime"
        status, created = results["created"]
        assert status == 201
        assert created["key"] == key
        assert created["order"]["status"] == "placed"
        assert results["final"][1]["order"]["status"] == "fulfilled"
        assert results["missing"][0] == 404
        metrics = results["metrics"][1]
        assert metrics["orders_placed"] == 1
        assert metrics["orders_fulfilled"] == 1

    def test_generated_key_order_fulfils(self):
        # No "key" in the body: the gateway must mint an order/* key --
        # the DXG matches objects by the key's kind, so a bare "order-1"
        # style key would never be picked up by the integrator.
        app, gateway, listener = serve_retail(port=0, factor=0.0)
        _, data = OrderWorkload(seed=9).next_order()
        results = {}
        done = threading.Event()

        def client():
            try:
                status, created = _request(
                    listener.port, "POST", "/orders", body=dict(data)
                )
                results["created"] = (status, created)
                key = created["key"]
                for _ in range(200):
                    status, body = _request(
                        listener.port, "GET",
                        f"/orders/{quote(key, safe='')}",
                    )
                    if body.get("order", {}).get("status") == "fulfilled":
                        break
                results["final"] = (status, body)
                results["namespaced"] = _request(
                    listener.port, "POST", "/orders",
                    body={**data, "key": "bare-key"},
                )
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(app.env, listener, done)
        thread.join()
        app.env.close()

        status, created = results["created"]
        assert status == 201
        assert created["key"].startswith("order/")
        assert results["final"][1]["order"]["status"] == "fulfilled"
        assert results["namespaced"][1]["key"] == "order/bare-key"

    def test_shards_build_a_sharded_backend_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            app, gateway, listener = serve_retail(port=0, factor=0.0,
                                                  shards=2)
        try:
            backend = app.de.backend
            assert isinstance(backend, ShardedStore)
            assert len(backend.shards) == 2
        finally:
            listener.stop()
            app.env.close()

    def test_bad_request_rejected(self):
        app, gateway, listener = serve_retail(port=0, factor=0.0)
        results = {}
        done = threading.Event()

        def client():
            try:
                results["empty"] = _request(
                    listener.port, "POST", "/orders", body={}
                )
                results["invalid"] = _request(
                    listener.port, "POST", "/orders", body={"items": "nope"}
                )
                results["wrong-kind"] = _request(
                    listener.port, "POST", "/orders",
                    body={"items": {}, "key": "shipment/s1"},
                )
            finally:
                done.set()

        thread = threading.Thread(target=client)
        thread.start()
        _drive(app.env, listener, done)
        thread.join()
        app.env.close()

        assert results["empty"][0] == 400
        assert results["invalid"][0] == 400
        assert results["wrong-kind"][0] == 400

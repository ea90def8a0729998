"""Fig. 1: the same composition over RPC, REST, Pub/Sub, and Knactor.

Service A (thermostat) produces readings; service B (display) shows them.
All four mechanisms achieve the same end state.  What differs -- and what
these tests pin down -- is WHERE the composition knowledge lives:

- RPC:    A holds B's stub/IDL and calls it.
- REST:   A hard-codes B's URL structure and representation.
- Pub/Sub: A and B share a topic name and a message codec.
- Knactor: A and B know nothing; a third-party integrator holds the
  mapping, reconfigurable at run time.
"""

import pytest

from repro.core import Cast, Knactor, KnactorRuntime, StoreBinding
from repro.exchange import ObjectDE
from repro.pubsub import Broker, MessageCodec, PubSubClient
from repro.rest import RestClient, RestServer
from repro.rpc import RPCChannel, RPCServer, parse_idl
from repro.simnet import FixedLatency, Network
from repro.store import MemKV

READING = {"celsius": 21.5, "room": "den"}
EXPECTED_TEXT = "den: 21.5"


class DisplayState:
    def __init__(self):
        self.text = None


@pytest.fixture
def net(env):
    return Network(env, default_latency=FixedLatency(0.0005))


def test_rpc_mechanism(env, net):
    display = DisplayState()
    idl = parse_idl(
        "message ShowRequest {\n  string text = 1;\n}\n"
        "message Empty {\n}\n"
        "service DisplayService {\n  rpc Show(ShowRequest) returns (Empty);\n}\n"
    )
    server = RPCServer(env, net, "display")

    def show(request):
        display.text = request["text"]
        return {}

    server.register("DisplayService", "Show", show, idl=idl)
    # COUPLING: the thermostat imports the display's IDL and stub.
    channel = RPCChannel(env, server, "thermostat")
    env.run(until=channel.call(
        "DisplayService", "Show",
        {"text": f"{READING['room']}: {READING['celsius']}"},
    ))
    assert display.text == EXPECTED_TEXT


def test_rest_mechanism(env, net):
    display = DisplayState()
    server = RestServer(env, net, "display")

    def put_panel(request):
        display.text = request.body["text"]
        return {"ok": True}

    server.route("PUT", "/panel", put_panel)
    # COUPLING: the thermostat hard-codes the display's URL + body shape.
    client = RestClient(env, server, "thermostat")
    env.run(until=client.put(
        "/panel", body={"text": f"{READING['room']}: {READING['celsius']}"},
    ))
    assert display.text == EXPECTED_TEXT


def test_pubsub_mechanism(env, net):
    display = DisplayState()
    broker = Broker(env, net)
    # COUPLING: both sides hold the same topic name and codec.
    codec = MessageCodec("display.Show", 1, {"text": str})
    subscriber = PubSubClient(broker, "display")
    subscriber.subscribe(
        "home/display", lambda _t, m: setattr(display, "text", m["text"]),
        codec=codec,
    )
    publisher = PubSubClient(broker, "thermostat")
    env.run(until=publisher.publish(
        "home/display",
        {"text": f"{READING['room']}: {READING['celsius']}"},
        codec=codec,
    ))
    env.run()
    assert display.text == EXPECTED_TEXT


def test_knactor_mechanism(env, net):
    runtime = KnactorRuntime(env, network=net)
    de = ObjectDE(env, MemKV(env, net, watch_overhead=0.0))
    runtime.add_exchange("object", de)
    runtime.add_knactor(Knactor("thermostat", [StoreBinding(
        "default", "object",
        "schema: Home/v1/Thermostat/Reading\ncelsius: number\nroom: string\n",
    )]))
    runtime.add_knactor(Knactor("display", [StoreBinding(
        "default", "object",
        "schema: Home/v1/Display/Panel\ntext: string # +kr: external\n",
    )]))
    # NO coupling: the mapping lives in a third module.
    de.grant("cast", "knactor-thermostat", role="reader")
    de.grant("cast", "knactor-display", role="integrator")
    runtime.add_integrator(Cast("cast", (
        "Input:\n"
        "  T: Home/v1/Thermostat/knactor-thermostat\n"
        "  D: Home/v1/Display/knactor-display\n"
        "DXG:\n"
        "  D:\n"
        "    text: concat(T.room, ': ', T.celsius)\n"
    )))
    runtime.start()
    thermostat = runtime.handle_of("thermostat")
    env.run(until=thermostat.create("den", READING))
    env.run()
    display = runtime.handle_of("display")
    assert env.run(until=display.get("den"))["data"]["text"] == EXPECTED_TEXT


def test_only_knactor_reconfigures_without_touching_services(env, net):
    """The discriminating property: with API-centric mechanisms the
    composition change lives in service code; with Knactor it is an
    integrator operation against a live system."""
    runtime = KnactorRuntime(env, network=net)
    de = ObjectDE(env, MemKV(env, net, watch_overhead=0.0))
    runtime.add_exchange("object", de)
    runtime.add_knactor(Knactor("thermostat", [StoreBinding(
        "default", "object",
        "schema: Home/v1/Thermostat/Reading\ncelsius: number\nroom: string\n",
    )]))
    runtime.add_knactor(Knactor("display", [StoreBinding(
        "default", "object",
        "schema: Home/v1/Display/Panel\ntext: string # +kr: external\n",
    )]))
    de.grant("cast", "knactor-thermostat", role="reader")
    de.grant("cast", "knactor-display", role="integrator")
    cast = Cast("cast", (
        "Input:\n"
        "  T: Home/v1/Thermostat/knactor-thermostat\n"
        "  D: Home/v1/Display/knactor-display\n"
        "DXG:\n"
        "  D:\n"
        "    text: concat(T.room, ': ', T.celsius)\n"
    ))
    runtime.add_integrator(cast)
    runtime.start()
    thermostat = runtime.handle_of("thermostat")
    env.run(until=thermostat.create("den", dict(READING)))
    env.run()
    cast.set_assignment("D", "text",
                        "concat(T.room, ' is at ', T.celsius, ' degrees')")
    env.run(until=thermostat.patch("den", {"celsius": 22.0}))
    env.run()
    display = runtime.handle_of("display")
    assert env.run(until=display.get("den"))["data"]["text"] == (
        "den is at 22.0 degrees"
    )

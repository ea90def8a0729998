"""Tests for the integrator marketplace catalog (§5 ecosystem)."""

import pytest

from repro.core import Knactor, KnactorRuntime, StoreBinding
from repro.core.catalog import Catalog, IntegratorPackage
from repro.errors import ConfigurationError, NotFoundError
from repro.exchange import ObjectDE
from repro.store import ApiServer

THERMOSTAT = """\
schema: Home/v1/Thermostat/Reading
celsius: number
room: string
"""

DISPLAY = """\
schema: Home/v1/Display/Panel
text: string # +kr: external
"""

PACKAGE = IntegratorPackage(
    name="thermo-display",
    version="1.0",
    description="Shows thermostat readings on any compatible display",
    author="acme-integrations",
    dxg="""\
Input:
  T: Home/v1/Thermostat/any
  D: Home/v1/Display/any
DXG:
  D:
    text: concat(T.room, ': ', T.celsius)
""",
)


@pytest.fixture
def runtime(env, zero_net):
    rt = KnactorRuntime(env, network=zero_net)
    de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
    rt.add_exchange("object", de)
    rt.add_knactor(Knactor("thermostat",
                           [StoreBinding("default", "object", THERMOSTAT)]))
    rt.add_knactor(Knactor("display",
                           [StoreBinding("default", "object", DISPLAY)]))
    rt.start()
    return rt


@pytest.fixture
def catalog():
    c = Catalog()
    c.publish(PACKAGE)
    return c


class TestPublishing:
    def test_publish_and_get(self, catalog):
        assert catalog.get("thermo-display").version == "1.0"
        assert catalog.get("thermo-display", "1.0") is not None

    def test_duplicate_version_rejected(self, catalog):
        with pytest.raises(ConfigurationError):
            catalog.publish(PACKAGE)

    def test_latest_version_wins(self, catalog):
        catalog.publish(
            IntegratorPackage("thermo-display", "1.1", "newer", dxg=PACKAGE.dxg)
        )
        assert catalog.get("thermo-display").version == "1.1"

    def test_unknown_package(self, catalog):
        with pytest.raises(NotFoundError):
            catalog.get("nope")

    def test_broken_dxg_rejected_at_publish(self):
        broken = IntegratorPackage(
            "bad", "1.0", "cycles",
            dxg="Input:\n  A: x/v1/A/a\n  B: x/v1/B/b\n"
                "DXG:\n  A:\n    x: B.y\n  B:\n    y: A.x\n",
        )
        with pytest.raises(Exception):
            Catalog().publish(broken)


class TestCompatibility:
    def test_compatible_on_matching_de(self, catalog, runtime):
        de = runtime.exchange("object")
        report = catalog.check(PACKAGE, de)
        assert report.compatible
        assert report.store_map == {
            "T": "knactor-thermostat", "D": "knactor-display",
        }

    def test_incompatible_when_store_missing(self, catalog, env, zero_net):
        de = ObjectDE(env, ApiServer(env, zero_net))
        de.host_store("knactor-thermostat", THERMOSTAT, owner="t")
        report = catalog.check(PACKAGE, de)
        assert not report.compatible
        assert any("Display" in p for p in report.problems)
        assert "NOT compatible" in report.describe()

    def test_incompatible_on_version_mismatch(self, catalog, env, zero_net):
        de = ObjectDE(env, ApiServer(env, zero_net))
        de.host_store(
            "knactor-thermostat",
            THERMOSTAT.replace("Home/v1", "Home/v2"), owner="t",
        )
        de.host_store("knactor-display", DISPLAY, owner="d")
        assert not catalog.check(PACKAGE, de).compatible

    def test_incompatible_on_missing_field(self, catalog, env, zero_net):
        de = ObjectDE(env, ApiServer(env, zero_net))
        de.host_store(
            "knactor-thermostat",
            "schema: Home/v1/Thermostat/Reading\ncelsius: number\n",  # no room
            owner="t",
        )
        de.host_store("knactor-display", DISPLAY, owner="d")
        report = catalog.check(PACKAGE, de)
        assert not report.compatible
        assert any("room" in p for p in report.problems)

    def test_compatible_packages_listing(self, catalog, runtime):
        matches = catalog.compatible_packages(runtime.exchange("object"))
        assert [p.name for p, _r in matches] == ["thermo-display"]


class TestInstall:
    def test_install_wires_grants_and_cast(self, catalog, runtime, env, call):
        cast = catalog.install("thermo-display", runtime)
        assert cast.started
        thermostat = runtime.handle_of("thermostat")
        call(thermostat.create("den", {"celsius": 20.0, "room": "den"}))
        env.run()
        display = runtime.handle_of("display")
        assert call(display.get("den"))["data"]["text"] == "den: 20.0"

    def test_install_incompatible_fails(self, catalog, env, zero_net):
        rt = KnactorRuntime(env, network=zero_net)
        rt.add_exchange("object", ObjectDE(env, ApiServer(env, zero_net)))
        with pytest.raises(ConfigurationError):
            catalog.install("thermo-display", rt)

    def test_install_uses_store_map_not_name_convention(self, catalog, env,
                                                        zero_net, call):
        """Hosted store names differ from the package's Input refs --
        discovery is by SCHEMA, not by naming convention."""
        rt = KnactorRuntime(env, network=zero_net)
        de = ObjectDE(env, ApiServer(env, zero_net, watch_overhead=0.0))
        rt.add_exchange("object", de)
        rt.add_knactor(Knactor(
            "vendorX-thermo",
            [StoreBinding("default", "object", THERMOSTAT,
                          store_name="vendorX-thermo-store")],
        ))
        rt.add_knactor(Knactor(
            "vendorY-display",
            [StoreBinding("default", "object", DISPLAY,
                          store_name="vendorY-display-store")],
        ))
        rt.start()
        catalog.install("thermo-display", rt)
        handle = rt.handle_of("vendorX-thermo")
        call(handle.create("hall", {"celsius": 18.5, "room": "hall"}))
        env.run()
        display = rt.handle_of("vendorY-display")
        assert call(display.get("hall"))["data"]["text"] == "hall: 18.5"

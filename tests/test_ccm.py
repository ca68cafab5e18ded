"""Unit tests for the CCM-lite component model."""

import random

import pytest

from repro.ccm.component import AttributeSpec, Component
from repro.ccm.container import Container
from repro.ccm.ports import EventSinkPort, EventSourcePort, Facet, Receptacle
from repro.ccm.repository import ComponentRepository
from repro.cpu.processor import Processor
from repro.errors import (
    AttributeConfigError,
    ComponentError,
    DeploymentError,
    PortError,
)
from repro.net.federation import FederatedEventChannel
from repro.net.latency import ConstantDelay
from repro.net.network import Network
from repro.sim.kernel import Simulator


class Widget(Component):
    ATTRIBUTES = {
        "rate": AttributeSpec(float, default=1.0, validator=lambda v: v > 0),
        "label": AttributeSpec(str, required=True),
        "count": AttributeSpec(int, default=0, mutable=True),
    }


def make_container(node="n1"):
    sim = Simulator()
    net = Network(sim, random.Random(0), ConstantDelay(0.001))
    fed = FederatedEventChannel(net)
    fed.add_node(node)
    cpu = Processor(sim, node)
    return Container(cpu, fed)


# ----------------------------------------------------------------------
# Attributes
# ----------------------------------------------------------------------
class TestAttributes:
    def test_defaults_applied(self):
        w = Widget("w")
        assert w.get_attribute("rate") == 1.0

    def test_set_and_get(self):
        w = Widget("w")
        w.set_attribute("rate", 2.5)
        assert w.get_attribute("rate") == 2.5

    def test_unknown_attribute_rejected(self):
        w = Widget("w")
        with pytest.raises(AttributeConfigError):
            w.set_attribute("bogus", 1)
        with pytest.raises(AttributeConfigError):
            w.get_attribute("bogus")

    def test_type_checked(self):
        w = Widget("w")
        with pytest.raises(AttributeConfigError):
            w.set_attribute("rate", "fast")

    def test_bool_rejected_where_int_expected(self):
        w = Widget("w")
        with pytest.raises(AttributeConfigError):
            w.set_attribute("count", True)

    def test_validator_enforced(self):
        w = Widget("w")
        with pytest.raises(AttributeConfigError):
            w.set_attribute("rate", -1.0)

    def test_set_configuration_bulk(self):
        w = Widget("w")
        w.set_configuration({"rate": 3.0, "label": "x"})
        assert w.get_attribute("label") == "x"

    def test_required_attribute_enforced_at_activation(self):
        container = make_container()
        w = Widget("w")
        container.install(w)
        with pytest.raises(AttributeConfigError):
            w.activate()

    def test_immutable_after_activation(self):
        container = make_container()
        w = Widget("w")
        w.set_attribute("label", "x")
        container.install(w)
        w.activate()
        with pytest.raises(AttributeConfigError):
            w.set_attribute("rate", 2.0)
        w.set_attribute("count", 5)  # mutable attribute still settable
        assert w.get_attribute("count") == 5

    def test_activate_requires_install(self):
        w = Widget("w")
        with pytest.raises(ComponentError):
            w.activate()


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
class TestContainer:
    def test_install_binds_component(self):
        container = make_container()
        w = Widget("w")
        container.install(w)
        assert w.container is container
        assert w.node == "n1"

    def test_double_install_rejected(self):
        container = make_container()
        w = Widget("w")
        container.install(w)
        with pytest.raises(ComponentError):
            container.install(w)

    def test_duplicate_name_rejected(self):
        container = make_container()
        container.install(Widget("w"))
        with pytest.raises(ComponentError):
            container.install(Widget("w"))

    def test_lookup(self):
        container = make_container()
        w = container.install(Widget("w"))
        assert container.lookup("w") is w
        with pytest.raises(ComponentError):
            container.lookup("zz")

    def test_activate_all(self):
        container = make_container()
        w = Widget("w")
        w.set_attribute("label", "x")
        container.install(w)
        container.activate_all()
        assert w.activated

    def test_uninstalled_component_accessors_fail(self):
        w = Widget("w")
        with pytest.raises(ComponentError):
            _ = w.node

    @pytest.mark.parametrize("accessor", ["sim", "node", "processor", "tracer"])
    def test_every_checked_accessor_raises_before_install(self, accessor):
        with pytest.raises(ComponentError):
            getattr(Widget("w"), accessor)

    def test_install_binds_the_containers_environment(self):
        container = make_container("n7")
        w = container.install(Widget("w"))
        bound = (w._node, w._sim, w._processor, w._tracer)
        expected = (
            container.node, container.sim, container.processor, container.tracer,
        )
        assert all(a is b for a, b in zip(bound, expected))
        assert bound[0] == "n7"
        # The checked accessors still answer, and agree with the fields.
        assert (w.node, w.sim, w.processor, w.tracer) == bound

    def test_accessors_stay_properties_and_get_attribute_a_method(self):
        # Per-layer tracing patches these on Component by name.
        for name in ("sim", "node", "processor", "tracer"):
            assert isinstance(Component.__dict__[name], property)
        assert callable(Component.__dict__["get_attribute"])


# ----------------------------------------------------------------------
# Ports
# ----------------------------------------------------------------------
class TestPorts:
    def test_event_source_sink_roundtrip(self):
        container = make_container()
        w = container.install(Widget("w"))
        w.set_attribute("label", "x")
        got = []
        sink = EventSinkPort(w, "in", got.append)
        sink.subscribe("topic")
        source = EventSourcePort(w, "out")
        source.push("n1", "topic", 99)
        assert got == [99]
        assert sink.received == 1 and source.pushed == 1

    def test_uninstalled_source_push_fails(self):
        w = Widget("w")
        source = EventSourcePort(w, "out")
        with pytest.raises(PortError):
            source.push("n1", "t", 1)

    def test_uninstalled_sink_subscribe_fails(self):
        w = Widget("w")
        sink = EventSinkPort(w, "in", lambda p: None)
        with pytest.raises(PortError):
            sink.subscribe("t")

    def test_facet_receptacle(self):
        w = Widget("w")
        target = object()
        facet = Facet(w, "svc", target)
        receptacle = Receptacle(w, "uses_svc")
        assert not receptacle.connected
        receptacle.connect(facet)
        assert receptacle.connected
        assert receptacle() is target

    def test_receptacle_double_connect_rejected(self):
        w = Widget("w")
        receptacle = Receptacle(w, "r")
        receptacle.connect(Facet(w, "f", 1))
        with pytest.raises(PortError):
            receptacle.connect(Facet(w, "f2", 2))

    def test_unconnected_receptacle_deref_fails(self):
        w = Widget("w")
        receptacle = Receptacle(w, "r")
        with pytest.raises(PortError):
            receptacle()

    def test_generic_facet_hooks_default_to_error(self):
        w = Widget("w")
        with pytest.raises(ComponentError):
            w.provide_facet("anything")
        with pytest.raises(ComponentError):
            w.connect_receptacle("anything", None)


# ----------------------------------------------------------------------
# Repository
# ----------------------------------------------------------------------
class TestRepository:
    def test_register_and_create(self):
        repo = ComponentRepository()
        repo.register_class("Widget", Widget)
        w = repo.create("Widget", "inst1")
        assert isinstance(w, Widget) and w.name == "inst1"

    def test_duplicate_registration_rejected(self):
        repo = ComponentRepository()
        repo.register_class("Widget", Widget)
        with pytest.raises(DeploymentError):
            repo.register_class("Widget", Widget)

    def test_unknown_implementation_rejected(self):
        repo = ComponentRepository()
        with pytest.raises(DeploymentError):
            repo.create("Nope", "x")

    def test_factory_must_return_component(self):
        repo = ComponentRepository()
        repo.register("Bad", lambda name: object())
        with pytest.raises(DeploymentError):
            repo.create("Bad", "x")

    def test_contains_iter_len(self):
        repo = ComponentRepository()
        repo.register_class("A", Widget)
        repo.register_class("B", Widget)
        assert "A" in repo and "C" not in repo
        assert list(repo) == ["A", "B"]
        assert len(repo) == 2

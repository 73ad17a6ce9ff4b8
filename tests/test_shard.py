"""The narrow :class:`PacketSink` wiring contract: ``check_sink``,
``Link.connect`` and :class:`WiringError`."""

import pytest

from repro.sim.boundary import PacketSink, WiringError, check_sink
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import DATA, Packet
from repro.sim.units import US


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)


def pkt():
    return Packet(DATA, 1, 0, 1, seq=0, size=4096)


class TestBoundaryProtocol:
    def test_sink_protocol_is_runtime_checkable(self):
        assert isinstance(Sink(), PacketSink)
        assert not isinstance(object(), PacketSink)

    def test_check_sink_accepts_and_returns(self):
        sink = Sink()
        assert check_sink(sink, "test") is sink

    def test_check_sink_rejects_non_sinks(self):
        with pytest.raises(WiringError):
            check_sink(object(), "test")
        with pytest.raises(WiringError):
            check_sink(None, "test")

    def test_connect_wires_once(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        sink = Sink()
        assert link.connect(sink) is link
        assert link.dst is sink

    def test_double_connect_raises(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        link.connect(Sink())
        with pytest.raises(WiringError):
            link.connect(Sink())

    def test_connect_rejects_non_sink(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        with pytest.raises(WiringError):
            link.connect(object())

    def test_transmit_on_unwired_link_raises(self):
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        with pytest.raises(WiringError):
            link.transmit(pkt())

    def test_link_receive_aliases_transmit(self):
        # A Link is itself a PacketSink: upstream components hand off
        # through .receive() without knowing what kind of hop comes next.
        sim = Simulator()
        link = Link(sim, 100.0, 1 * US)
        sink = Sink()
        link.connect(sink)
        link.receive(pkt())
        sim.run()
        assert len(sink.received) == 1

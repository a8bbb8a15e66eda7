"""Unit tests for framing, links, UDP, and TCP."""

import random

import pytest

from repro.net import (ETHERNET_MTU, GIGABIT, Link, TcpConnection,
                       UdpEndpoint, plan_tcp_stream, plan_udp_datagram)
from repro.net.link import LINK_LATENCY
from repro.sim import RateLimiter, Simulator


class TestFraming:
    def test_small_udp_datagram_is_one_frame(self):
        plan = plan_udp_datagram(100)
        assert plan.frames == 1
        assert plan.wire_bytes > 100

    def test_8k_nfs_read_spans_six_frames(self):
        """The §5.4 arithmetic: an 8 KiB read reply fragments into six
        Ethernet frames."""
        assert plan_udp_datagram(8 * 1024 + 104).frames == 6

    def test_tcp_mss_slightly_smaller_than_udp_fragment(self):
        udp = plan_udp_datagram(64 * 1024)
        tcp = plan_tcp_stream(64 * 1024)
        assert tcp.frames >= udp.frames
        assert tcp.wire_bytes > udp.wire_bytes

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            plan_udp_datagram(-1)
        with pytest.raises(ValueError):
            plan_tcp_stream(-1)


class TestLink:
    def test_delivery_time_is_serialization_plus_latency(self):
        sim = Simulator()
        link = Link(sim, rate=1_000_000)
        done = link.send(10_000)
        times = []
        done.add_callback(lambda ev: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(0.01 + LINK_LATENCY)]

    def test_messages_serialize(self):
        sim = Simulator()
        link = Link(sim, rate=1_000_000)
        times = []
        for _ in range(2):
            link.send(500_000).add_callback(
                lambda ev: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(0.5 + LINK_LATENCY),
                         pytest.approx(1.0 + LINK_LATENCY)]

    def test_bus_ceiling_applies(self):
        sim = Simulator()
        bus = RateLimiter(sim, 1_000)           # much slower than NIC
        link = Link(sim, rate=1_000_000, bus=bus)
        times = []
        link.send(1_000).add_callback(lambda ev: times.append(sim.now))
        sim.run()
        assert times[0] >= 0.99  # bus-bound, not NIC-bound

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, rate=GIGABIT)
        link.send(1000)
        link.send(500)
        assert link.messages_sent == 2
        assert link.bytes_sent == 1500


def udp_pair(sim, loss=0.0):
    a = UdpEndpoint(sim, Link(sim, GIGABIT), loss_rate=loss,
                    rng=random.Random(1), name="a")
    b = UdpEndpoint(sim, Link(sim, GIGABIT), loss_rate=loss,
                    rng=random.Random(2), name="b")
    a.connect(b)
    b.connect(a)
    return a, b


class TestUdp:
    def test_round_trip_delivery(self):
        sim = Simulator()
        a, b = udp_pair(sim)
        received = []
        b.bind(received.append)
        a.send("hello", 1000)
        sim.run()
        assert received == ["hello"]

    def test_unbound_receiver_is_error(self):
        sim = Simulator()
        a, b = udp_pair(sim)
        a.send("msg", 100)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_loss_drops_whole_datagrams(self):
        sim = Simulator()
        a, b = udp_pair(sim, loss=0.2)
        received = []
        b.bind(received.append)
        for index in range(200):
            a.send(index, 8 * 1024)   # 6 frames each: high drop odds
        sim.run()
        assert 0 < len(received) < 200
        assert a.datagrams_lost == 200 - len(received)

    def test_zero_loss_is_lossless(self):
        sim = Simulator()
        a, b = udp_pair(sim)
        received = []
        b.bind(received.append)
        for index in range(50):
            a.send(index, 8192)
        sim.run()
        assert received == list(range(50))

    def test_bad_loss_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            UdpEndpoint(sim, Link(sim, GIGABIT), loss_rate=1.0)


class TestTcp:
    def test_in_order_delivery(self):
        sim = Simulator()
        conn = TcpConnection(sim, Link(sim, GIGABIT))
        received = []
        conn.bind(received.append)
        for index in range(20):
            conn.send(index, 8 * 1024)
        sim.run()
        assert received == list(range(20))

    def test_window_paces_large_messages(self):
        sim = Simulator()
        slow_link = Link(sim, rate=1_000_000)
        conn = TcpConnection(sim, slow_link)
        received = []
        conn.bind(received.append)
        for index in range(4):
            conn.send(index, 64 * 1024)
        sim.run()
        assert received == [0, 1, 2, 3]
        # Four 64 KiB messages over a 1 MB/s link: >= 0.25 s.
        assert sim.now >= 0.25

    def test_loss_causes_retransmit_delay(self):
        sim = Simulator()
        lossy = TcpConnection(sim, Link(sim, GIGABIT), loss_rate=0.05,
                              rng=random.Random(3))
        received = []
        lossy.bind(received.append)
        for index in range(100):
            lossy.send(index, 8 * 1024)
        sim.run()
        assert received == list(range(100))   # reliable despite loss
        assert lossy.retransmits > 0

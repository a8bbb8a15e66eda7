"""Unit tests for the RPC layer over both transports."""

import random

import pytest

from repro.net import (GIGABIT, Link, RPC_MAX_TIMEOUT, RpcClient,
                       RpcServer, RpcTimeout, TcpConnection, UdpEndpoint)
from repro.sim import Simulator


def udp_channel(sim, loss=0.0, retransmit=None):
    client_ep = UdpEndpoint(sim, Link(sim, GIGABIT), loss_rate=loss,
                            rng=random.Random(10))
    server_ep = UdpEndpoint(sim, Link(sim, GIGABIT), loss_rate=loss,
                            rng=random.Random(11))
    client_ep.connect(server_ep)
    server_ep.connect(client_ep)
    client = RpcClient(sim, client_ep, client_ep,
                       retransmit_timeout=retransmit)
    server = RpcServer(sim, server_ep, server_ep)
    return client, server


def tcp_channel(sim):
    up = TcpConnection(sim, Link(sim, GIGABIT), name="up")
    down = TcpConnection(sim, Link(sim, GIGABIT), name="down")
    client = RpcClient(sim, up, down)
    server = RpcServer(sim, up, down)
    return client, server


def echo_handler(body, span, rpc_key):
    yield
    return None


def make_echo(sim, delay=0.0):
    def handler(body, span, rpc_key):
        if delay:
            yield sim.timeout(delay)
        else:
            yield sim.timeout(0)
        return f"echo:{body}", 100

    return handler


@pytest.mark.parametrize("make_channel", [udp_channel, tcp_channel])
def test_call_reply_round_trip(make_channel):
    sim = Simulator()
    client, server = make_channel(sim)
    server.serve(make_echo(sim))

    def caller(sim):
        reply = yield client.call("ping", 100)
        return reply

    assert sim.run_until_complete(sim.spawn(caller(sim))) == "echo:ping"
    assert client.calls == 1
    assert server.requests == 1


def test_concurrent_calls_matched_by_xid():
    sim = Simulator()
    client, server = udp_channel(sim)

    def handler(body, span, rpc_key):
        # Later requests finish *sooner*: replies come back reordered.
        yield sim.timeout(0.1 / (body + 1))
        return body * 10, 50

    server.serve(handler)
    results = {}

    def caller(sim, value):
        reply = yield client.call(value, 50)
        results[value] = reply

    for value in range(5):
        sim.spawn(caller(sim, value))
    sim.run()
    assert results == {value: value * 10 for value in range(5)}


def test_unserved_rpc_server_raises():
    sim = Simulator()
    client, server = udp_channel(sim)
    client.call("ping", 100)
    with pytest.raises(RuntimeError):
        sim.run()


def test_retransmission_recovers_lost_datagram():
    sim = Simulator()
    client, server = udp_channel(sim, loss=0.25, retransmit=0.05)
    server.serve(make_echo(sim))
    replies = []

    def caller(sim, index):
        reply = yield client.call(index, 100)
        replies.append(reply)

    for index in range(40):
        sim.spawn(caller(sim, index))
    sim.run(until=30.0)
    assert len(replies) == 40
    assert client.retransmitted > 0


def black_hole_channel(sim, retransmit=0.01, max_retransmits=3):
    """A client whose server never answers (requests vanish)."""
    client_ep = UdpEndpoint(sim, Link(sim, GIGABIT))
    server_ep = UdpEndpoint(sim, Link(sim, GIGABIT))
    client_ep.connect(server_ep)
    server_ep.connect(client_ep)
    server_ep.bind(lambda message: None)
    return RpcClient(sim, client_ep, client_ep,
                     retransmit_timeout=retransmit,
                     max_retransmits=max_retransmits)


def test_retransmit_exhaustion_fails_pending_with_rpc_timeout():
    sim = Simulator()
    client = black_hole_channel(sim, retransmit=0.01, max_retransmits=3)
    errors = []

    def caller(sim):
        try:
            yield client.call("ping", 10)
        except RpcTimeout as exc:
            errors.append(exc)
        return None

    sim.run_until_complete(sim.spawn(caller(sim)))
    assert len(errors) == 1
    assert errors[0].attempts == 4          # original + 3 retransmits
    assert client.retransmitted == 3
    assert client.timeouts == 1
    # The xid must be forgotten: no leak, and a late reply is ignored.
    assert client.pending_calls == 0


def test_hard_client_retries_forever():
    sim = Simulator()
    client = black_hole_channel(sim, retransmit=0.01,
                                max_retransmits=None)
    client.call("ping", 10)
    sim.run(until=5.0)
    assert client.pending_calls == 1
    assert client.timeouts == 0
    assert client.retransmitted > 5


def test_backoff_schedule_monotone_and_capped():
    sim = Simulator()
    client = black_hole_channel(sim, retransmit=0.9)
    schedule = [client.backoff_schedule(a) for a in range(12)]
    assert schedule[0] == 0.9
    assert all(later >= earlier for earlier, later
               in zip(schedule, schedule[1:]))
    assert schedule[-1] == RPC_MAX_TIMEOUT
    assert max(schedule) <= RPC_MAX_TIMEOUT


class _DropFirstSend:
    """Transport wrapper that swallows exactly one outgoing message."""

    def __init__(self, inner):
        self.inner = inner
        self.dropped = False

    def send(self, message, payload_bytes):
        if not self.dropped:
            self.dropped = True
            return
        self.inner.send(message, payload_bytes)

    def bind(self, receiver):
        self.inner.bind(receiver)


def lossy_reply_channel(sim, handler_delay):
    client_ep = UdpEndpoint(sim, Link(sim, GIGABIT))
    server_ep = UdpEndpoint(sim, Link(sim, GIGABIT))
    client_ep.connect(server_ep)
    server_ep.connect(client_ep)
    client = RpcClient(sim, client_ep, client_ep,
                       retransmit_timeout=0.05, max_retransmits=10)
    server = RpcServer(sim, server_ep, _DropFirstSend(server_ep),
                       track_duplicates=True)
    executions = []

    def handler(body, span, rpc_key):
        executions.append(body)
        yield sim.timeout(handler_delay)
        return f"ok:{body}", 10

    server.serve(handler)
    return client, server, executions


def test_dupreq_cache_resends_reply_without_reexecution():
    sim = Simulator()
    # Handler finishes before the retransmission arrives, but its reply
    # is lost: the retransmission must be answered from the cache.
    client, server, executions = lossy_reply_channel(sim,
                                                     handler_delay=0.001)

    def caller(sim):
        reply = yield client.call("p", 10)
        return reply

    assert sim.run_until_complete(sim.spawn(caller(sim))) == "ok:p"
    assert executions == ["p"]
    assert server.executed == 1
    assert server.dupreq_hits >= 1
    assert server.duplicate_executions == 0


def test_dupreq_cache_drops_retransmission_of_in_flight_request():
    sim = Simulator()
    # Handler is slower than the retransmit timer: the copies arriving
    # mid-execution are dropped, and the one eventual reply answers.
    client, server, executions = lossy_reply_channel(sim,
                                                     handler_delay=0.4)

    def caller(sim):
        reply = yield client.call("q", 10)
        return reply

    assert sim.run_until_complete(sim.spawn(caller(sim))) == "ok:q"
    assert executions == ["q"]
    assert server.dupreq_in_progress_drops >= 1
    assert server.duplicate_executions == 0


def test_disabled_dupreq_cache_reexecutes():
    sim = Simulator()
    client_ep = UdpEndpoint(sim, Link(sim, GIGABIT))
    server_ep = UdpEndpoint(sim, Link(sim, GIGABIT))
    client_ep.connect(server_ep)
    server_ep.connect(client_ep)
    client = RpcClient(sim, client_ep, client_ep,
                       retransmit_timeout=0.05, max_retransmits=10)
    server = RpcServer(sim, server_ep, _DropFirstSend(server_ep),
                       dupreq_cache_size=0, track_duplicates=True)

    def handler(body, span, rpc_key):
        yield sim.timeout(0.001)
        return "ok", 10

    server.serve(handler)

    def caller(sim):
        reply = yield client.call("r", 10)
        return reply

    assert sim.run_until_complete(sim.spawn(caller(sim))) == "ok"
    # Without the cache the retransmitted request runs again — the
    # failure mode the cache exists to prevent.
    assert server.duplicate_executions >= 1


def test_reply_payload_includes_headers():
    sim = Simulator()
    client, server = udp_channel(sim)
    server.serve(make_echo(sim))

    def caller(sim):
        reply = yield client.call("x", 0)
        return reply

    sim.run_until_complete(sim.spawn(caller(sim)))
    # Both directions moved more bytes than the bare payloads.
    assert client.out.tx_link.bytes_sent > 0

"""Model-based property test: the RPC client's retransmission timer.

A scripted transport drops the first ``drops`` attempts of each call
and answers the next one after a fixed round trip.  Hypothesis draws
the script, the soft-mount budget and the jitter; calls are issued one
after another, so a plain loop is the reference:

* attempt ``k + 1`` leaves ``MOUNT_TIMEO * RPC_BACKOFF_FACTOR**k``
  (capped at ``RPC_MAX_TIMEOUT``) after attempt ``k``, times ``1 +
  jitter * rng.random()`` when jitter is on, with the draws taken in
  order from the client's RNG;
* a soft mount fails the call with :class:`RpcTimeout` after
  ``max_retransmits`` retransmissions plus one more wait; a hard mount
  never fails;
* only a reply to a call that was never retransmitted gives an RTT
  sample (Karn's rule).
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.host.testbed import MOUNT_TIMEO
from repro.net.rpc import (RPC_BACKOFF_FACTOR, RPC_MAX_TIMEOUT, RpcClient,
                           RpcMessage, RpcTimeout)
from repro.obs import Observability
from repro.sim import Simulator

#: Round trip of an answered attempt: well inside the first timeout.
RTT = 0.0007


class ScriptedTransport:
    """Drops the first ``drops[i]`` attempts of call ``i``, answers the
    next one ``RTT`` later, and logs every send as ``(time, xid)``."""

    def __init__(self, sim, drops):
        self.sim = sim
        self.drops = drops
        self.sent = []
        self._attempts = {}
        self._receiver = None

    def bind(self, receiver):
        self._receiver = receiver

    def send(self, message, payload_bytes):
        self.sent.append((self.sim.now, message.xid))
        attempt = self._attempts.get(message.xid, 0)
        self._attempts[message.xid] = attempt + 1
        if attempt >= self.drops[message.xid - 1]:
            reply = RpcMessage(message.xid, ("reply", message.xid), 0,
                               is_reply=True)
            self.sim.call_later(RTT, self._receiver, reply)


def run_calls(drops, max_retransmits, jitter, seed):
    sim = Simulator(Observability(trace=True, metrics=True))
    transport = ScriptedTransport(sim, drops)
    client = RpcClient(sim, transport, transport,
                       retransmit_timeout=MOUNT_TIMEO,
                       max_retransmits=max_retransmits, jitter=jitter,
                       rng=random.Random(seed))
    outcomes = []

    def caller():
        for _ in drops:
            try:
                body = yield client.call("op", 100)
                outcomes.append(("reply", sim.now, body))
            except RpcTimeout as exc:
                outcomes.append(("timeout", sim.now, exc.attempts,
                                 exc.elapsed))

    sim.run_until_complete(sim.spawn(caller()))
    return client, transport.sent, outcomes


def reference(drops, max_retransmits, jitter, seed):
    rng = random.Random(seed)
    now = 0.0
    sent, outcomes, samples = [], [], []
    for xid, dropped in enumerate(drops, start=1):
        started = attempt_sent = now
        attempt = 0
        while True:
            sent.append((attempt_sent, xid))
            delay = min(MOUNT_TIMEO * RPC_BACKOFF_FACTOR ** attempt,
                        RPC_MAX_TIMEOUT)
            if jitter > 0.0:
                delay *= 1.0 + jitter * rng.random()
            if attempt >= dropped:
                now = attempt_sent + RTT
                outcomes.append(("reply", now, ("reply", xid)))
                if attempt == 0:
                    samples.append(now - attempt_sent)
                break
            expiry = attempt_sent + delay
            if max_retransmits is not None and attempt >= max_retransmits:
                now = expiry
                outcomes.append(("timeout", now, attempt + 1, now - started))
                break
            attempt += 1
            attempt_sent = expiry
    return sent, outcomes, samples


@given(drops=st.lists(st.integers(0, 10), min_size=1, max_size=5),
       max_retransmits=st.one_of(st.none(), st.integers(0, 10)),
       jitter=st.sampled_from([0.0, 0.1, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(drops=[9, 0, 1], max_retransmits=None, jitter=0.0, seed=0)
@example(drops=[3, 2], max_retransmits=2, jitter=0.1, seed=1)
@settings(max_examples=120, deadline=None)
def test_client_retransmits_on_the_backoff_schedule(drops, max_retransmits,
                                                    jitter, seed):
    client, sent, outcomes = run_calls(drops, max_retransmits, jitter, seed)
    want_sent, want_outcomes, samples = reference(drops, max_retransmits,
                                                  jitter, seed)
    assert sent == want_sent
    assert outcomes == want_outcomes
    if max_retransmits is None:
        assert all(outcome[0] == "reply" for outcome in outcomes)
    rtt = client.sim.obs.registry.snapshot()["histograms"][
        "rpc.client.attempt_rtt_s"]
    assert rtt["count"] == len(samples)
    assert rtt["sum"] == sum(samples)
    assert client.pending_calls == 0

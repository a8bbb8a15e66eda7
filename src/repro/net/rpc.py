"""SUN RPC over either transport.

NFS v2/v3 are RPC programs; the mount's transport choice (§5.4 — UDP by
default under ``mount_nfs``, TCP by default under many ``amd`` builds)
decides which transport carries the calls.  The layer models what the
FreeBSD-era RPC code actually does under failure:

* **retransmission with exponential backoff** — a call unanswered after
  the current timeout is sent again with the *same* xid, and the
  timeout doubles (with optional jitter) up to a ceiling, mirroring the
  client's ``timeo``/backoff behaviour;
* **terminal timeouts** — when a retransmission budget is given
  (soft-mount semantics), exhausting it fails the caller's event with
  :class:`RpcTimeout` and forgets the xid; with no budget (hard-mount
  semantics) the client retries forever;
* **a server-side duplicate-request cache** keyed by (client, xid), so
  a retransmitted request whose original is still executing is dropped,
  and one whose reply was already sent is answered from cache instead
  of being re-executed — the standard defence against retransmitted
  non-idempotent operations.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Protocol, Tuple

from ..obs.provenance import EDGE_RETRIED_AS
from ..sim import Event, Simulator

#: Approximate bytes of RPC + NFS call/reply headers on the wire.
RPC_CALL_HEADER = 136
RPC_REPLY_HEADER = 104

#: Each retransmission multiplies the timeout by this factor ...
RPC_BACKOFF_FACTOR = 2.0
#: ... up to this ceiling (the classic 60-second major-timeout cap of
#: the BSD client).
RPC_MAX_TIMEOUT = 60.0


class RpcTimeout(Exception):
    """A call exhausted its retransmission budget (soft-mount failure)."""

    def __init__(self, xid: int, attempts: int, elapsed: float):
        super().__init__(
            f"xid {xid} unanswered after {attempts} attempts "
            f"({elapsed:.3f}s)")
        self.xid = xid
        self.attempts = attempts
        self.elapsed = elapsed


class Transport(Protocol):
    """What RPC needs from UDP endpoints and TCP connections alike."""

    def send(self, message: Any, payload_bytes: int) -> None: ...

    def bind(self, receiver: Callable[[Any], None]) -> None: ...


@dataclass
class RpcMessage:
    xid: int
    body: Any
    payload_bytes: int
    is_reply: bool = False
    #: Originating client name — the dupreq-cache key's first half.
    client: str = ""
    #: Span id of the client-side call span (carries trace context to
    #: the server by value; ``None`` when tracing is off).
    trace_ctx: Optional[int] = None


class RpcClient:
    """Issues calls and matches replies by transaction id.

    ``retransmit_timeout`` enables retransmission: a call unanswered
    after the timeout is sent again with the same xid, as real NFS
    clients do.  Successive timeouts grow by :data:`RPC_BACKOFF_FACTOR`
    up to :data:`RPC_MAX_TIMEOUT`; when ``rng`` is supplied, each wait
    is stretched by up to ``jitter`` (fractional) to decorrelate
    clients.

    ``max_retransmits`` is the soft-mount budget: after that many
    retransmissions plus one final wait, the pending event *fails* with
    :class:`RpcTimeout` and the xid is forgotten.  ``None`` means retry
    forever — hard-mount semantics.
    """

    def __init__(self, sim: Simulator, out_transport: Transport,
                 in_transport: Transport,
                 retransmit_timeout: Optional[float] = None,
                 max_retransmits: Optional[int] = 10,
                 jitter: float = 0.0,
                 rng: Optional[random.Random] = None,
                 name: str = "rpc-client"):
        if retransmit_timeout is not None and retransmit_timeout <= 0:
            raise ValueError("retransmit_timeout must be positive")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.sim = sim
        self.out = out_transport
        self.retransmit_timeout = retransmit_timeout
        self.max_retransmits = max_retransmits
        self.jitter = jitter
        self.name = name
        self._rng = rng
        self._xids = itertools.count(1)
        self._pending: Dict[int, Event] = {}
        self.calls = 0
        self.retransmitted = 0
        self.timeouts = 0
        #: Per-xid transmission-attempt bookkeeping (traced runs only).
        #: Each attempt window closes exactly once — a reply that lands
        #: after a retransmission was issued must not count the same
        #: wait twice, so closes are deduped by (xid, attempt).
        self._attempt_obs: Dict[int, dict] = {}
        #: Closed attempt windows, in close order:
        #: (xid, attempt, reason, elapsed_s).  The lossy-UDP regression
        #: test asserts each (xid, attempt) appears at most once.
        self.attempt_log: list = []
        self._m_attempt = sim.obs.registry.histogram(
            "rpc.client.attempt_rtt_s")
        in_transport.bind(self._on_reply)

    def backoff_schedule(self, attempt: int) -> float:
        """The deterministic (pre-jitter) wait before retransmission
        ``attempt`` (0-based): ``timeo * factor**attempt``, capped."""
        if self.retransmit_timeout is None:
            raise ValueError("retransmission is not enabled")
        return min(self.retransmit_timeout * RPC_BACKOFF_FACTOR ** attempt,
                   RPC_MAX_TIMEOUT)

    @property
    def pending_calls(self) -> int:
        return len(self._pending)

    def call(self, body: Any, payload_bytes: int, parent=None) -> Event:
        """Send a call; the returned event fires with the reply body.

        On retransmission-budget exhaustion the event *fails* with
        :class:`RpcTimeout` instead — a waiting process sees it raised
        at its ``yield``.  ``parent`` is an optional tracing span the
        call span nests under.
        """
        xid = next(self._xids)
        reply = self.sim.event(name=f"{self.name}.xid{xid}")
        self._pending[xid] = reply
        self.calls += 1
        tracer = self.sim.obs.tracer
        trace_ctx = None
        if tracer.enabled:
            span = tracer.start(f"call:{type(body).__name__}", "net.rpc",
                                parent=parent, xid=xid)
            trace_ctx = span.id
            # The reply event fires exactly once (success or RpcTimeout
            # failure); its callbacks run synchronously when processed,
            # so finishing the span there records the observed RTT
            # without touching simulation state.
            reply.add_callback(
                lambda ev: span.finish(ok=ev.error is None))
            state = {"sent": [self.sim.now], "markers": [], "closed": set()}
            self._attempt_obs[xid] = state
            if self.sim.obs.prov.enabled:
                # Instant marker span per transmission attempt: the
                # provenance node retried-as edges point at.
                marker = tracer.start("xmit", "net.rpc", parent=span,
                                      xid=xid, attempt=0)
                marker.finish()
                state["markers"].append(marker)
        message = RpcMessage(xid, body, payload_bytes + RPC_CALL_HEADER,
                             client=self.name, trace_ctx=trace_ctx)
        self.out.send(message, message.payload_bytes)
        if self.retransmit_timeout is not None:
            self._arm(message, reply, self.sim.now, 0)
        return reply

    def _arm(self, message: RpcMessage, reply: Event, started: float,
             attempt: int) -> None:
        """Start the retransmission timer for ``attempt`` (0-based).

        The timer is a callback chain, not a process: arm, expire, then
        retransmit and re-arm.  Each arming takes one jitter draw.
        """
        delay = self.backoff_schedule(attempt)
        if self.jitter > 0.0 and self._rng is not None:
            delay *= 1.0 + self.jitter * self._rng.random()
        self.sim.call_later(delay, self._expire, message, reply, started,
                            attempt)

    def _expire(self, message: RpcMessage, reply: Event, started: float,
                attempt: int) -> None:
        if reply.triggered:
            return
        if (self.max_retransmits is not None
                and attempt >= self.max_retransmits):
            # Terminal failure: deliver RpcTimeout to the waiter and
            # forget the xid (a late reply is dropped as unknown).
            self._pending.pop(message.xid, None)
            self.timeouts += 1
            self._finish_attempts(message.xid, "timeout")
            reply.fail(RpcTimeout(message.xid, attempt + 1,
                                  self.sim.now - started))
            return
        self.retransmitted += 1
        self._retry_attempt(message.xid)
        self.out.send(message, message.payload_bytes)
        self._arm(message, reply, started, attempt + 1)

    def _close_attempt(self, xid: int, reason: str) -> None:
        """Close the xid's newest attempt window, exactly once.

        The dedupe key is (xid, attempt): a reply that arrives after a
        retransmission was issued, a retransmit racing a same-timestamp
        reply, or a dupreq-cache resend may each try to close a window
        that is already closed — only the first close records latency.
        """
        state = self._attempt_obs.get(xid)
        if state is None:
            return
        attempt = len(state["sent"]) - 1
        if (xid, attempt) in state["closed"]:
            return
        state["closed"].add((xid, attempt))
        elapsed = self.sim.now - state["sent"][attempt]
        self.attempt_log.append((xid, attempt, reason, elapsed))
        # Karn's rule: a reply to a retransmitted call is ambiguous (it
        # may answer any copy), so only never-retransmitted calls yield
        # an RTT sample.
        sampled = reason == "reply" and attempt == 0
        if sampled:
            self._m_attempt.observe(elapsed)
        prov = self.sim.obs.prov
        if prov.enabled and state["markers"]:
            prov.note(state["markers"][attempt], attempt=attempt,
                      closed=reason, elapsed_s=elapsed,
                      rtt_sampled=sampled)

    def _retry_attempt(self, xid: int) -> None:
        """A retransmission supersedes the open attempt window."""
        state = self._attempt_obs.get(xid)
        if state is None:
            return
        self._close_attempt(xid, "superseded")
        state["sent"].append(self.sim.now)
        prov = self.sim.obs.prov
        if prov.enabled and state["markers"]:
            previous = state["markers"][-1]
            marker = self.sim.obs.tracer.start(
                "xmit", "net.rpc", parent=previous.parent_id, xid=xid,
                attempt=len(state["markers"]))
            marker.finish()
            state["markers"].append(marker)
            prov.edge(EDGE_RETRIED_AS, previous, marker)

    def _finish_attempts(self, xid: int, reason: str) -> None:
        """Terminal close (reply or timeout): close and forget the xid."""
        self._close_attempt(xid, reason)
        self._attempt_obs.pop(xid, None)

    def _on_reply(self, message: RpcMessage) -> None:
        pending = self._pending.pop(message.xid, None)
        if pending is not None and not pending.triggered:
            self._finish_attempts(message.xid, "reply")
            pending.succeed(message.body)
        # Late or duplicate replies (post-retransmit, post-timeout) are
        # dropped, as real RPC clients drop replies with unknown xids —
        # and their attempt windows were already closed, so no latency
        # is double-counted.


#: Sentinel marking a dupreq-cache entry whose handler is still running.
_IN_PROGRESS = object()


class RpcServer:
    """Dispatches incoming calls to an asynchronous handler.

    The handler is a generator function ``handler(body, span, rpc_key)``
    returning ``(reply_body, reply_payload_bytes)`` — or ``None`` to
    drop the request without replying (a crashed server); each call runs
    as its own simulation process, so the server's own concurrency
    limits (the nfsd pool) live in the handler.  ``span`` is the serve
    span (None when tracing is off), for parenting the handler's own
    instrumentation; ``rpc_key`` is the request's ``(client, xid)``
    identity, what a stable-storage replay cache keys on (the wire
    protocol already carries both fields).

    ``dupreq_cache_size`` bounds the duplicate-request cache (0
    disables it): a retransmission of an in-flight request is dropped,
    and a retransmission of an answered request is served the cached
    reply without re-executing the handler.  ``track_duplicates``
    additionally counts handler executions per (client, xid) so
    experiments can assert zero duplicate executions.
    """

    def __init__(self, sim: Simulator, in_transport: Transport,
                 out_transport: Transport, name: str = "rpc-server",
                 dupreq_cache_size: int = 128,
                 track_duplicates: bool = False):
        if dupreq_cache_size < 0:
            raise ValueError("dupreq_cache_size cannot be negative")
        self.sim = sim
        self.out = out_transport
        self.name = name
        self.dupreq_cache_size = dupreq_cache_size
        self.handler = None
        self.requests = 0
        self.executed = 0
        self.dropped = 0
        self.dupreq_hits = 0
        self.dupreq_in_progress_drops = 0
        self.dupreq_evictions = 0
        self.duplicate_executions = 0
        self._dupreq: "OrderedDict[Tuple[str, int], Any]" = OrderedDict()
        self._track_duplicates = track_duplicates
        self._executed_keys: set = set()
        self._m_handle = sim.obs.registry.histogram("rpc.server.handle_s")
        in_transport.bind(self._on_request)

    def serve(self, handler) -> None:
        self.handler = handler

    def _on_request(self, message: RpcMessage) -> None:
        if self.handler is None:
            raise RuntimeError(f"{self.name}: no handler registered")
        self.requests += 1
        key = (message.client, message.xid)
        if self.dupreq_cache_size > 0:
            entry = self._dupreq.get(key)
            if entry is _IN_PROGRESS:
                # The original is still executing; the eventual reply
                # answers both copies.
                self.dupreq_in_progress_drops += 1
                return
            if entry is not None:
                # Answered before: resend the cached reply, do NOT
                # re-execute (the op may not be idempotent).
                self.dupreq_hits += 1
                self._dupreq.move_to_end(key)
                self.out.send(entry, entry.payload_bytes)
                return
            self._dupreq[key] = _IN_PROGRESS
        if self._track_duplicates:
            if key in self._executed_keys:
                self.duplicate_executions += 1
            else:
                self._executed_keys.add(key)
        self.executed += 1
        self.sim.start(self._handle(message),
                       name=f"{self.name}.req{message.xid}")

    def _handle(self, message: RpcMessage):
        # The process starts inside the request's delivery, so ``now``
        # here is the request's arrival time at the server.
        arrived = self.sim.now
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            span = tracer.start(f"serve:{type(message.body).__name__}",
                                "net.rpc", parent=message.trace_ctx,
                                detached=True, xid=message.xid)
        else:
            span = None
        key = (message.client, message.xid)
        result = yield from self.handler(message.body, span, key)
        self._m_handle.observe(self.sim.now - arrived)
        if result is None:
            # The handler dropped the request (server down): no reply,
            # and the dupreq slot is vacated so a retransmission after
            # restart executes fresh.
            self.dropped += 1
            self._dupreq.pop(key, None)
            if self._track_duplicates:
                self._executed_keys.discard(key)
            if span is not None:
                span.finish(dropped=True)
            return None
        body, payload_bytes = result
        reply = RpcMessage(message.xid, body,
                           payload_bytes + RPC_REPLY_HEADER, is_reply=True,
                           client=message.client)
        if self.dupreq_cache_size > 0:
            self._dupreq[key] = reply
            self._dupreq.move_to_end(key)
            self._trim_dupreq()
        self.out.send(reply, reply.payload_bytes)
        if span is not None:
            span.finish()
        return None

    def _trim_dupreq(self) -> None:
        """Evict oldest *completed* entries beyond the size bound.

        In-progress guards are never evicted: dropping one would let a
        retransmission re-execute a request that is still running.
        """
        while len(self._dupreq) > self.dupreq_cache_size:
            for key, entry in self._dupreq.items():
                if entry is not _IN_PROGRESS:
                    del self._dupreq[key]
                    self.dupreq_evictions += 1
                    break
            else:
                break

    def crash_reset(self) -> None:
        """Forget per-boot volatile state (the server machine rebooted).

        The dupreq cache lives in server RAM, so a crash empties it —
        a retransmission whose original executed before the crash will
        re-execute after it, which is precisely why NFSv3 non-idempotent
        recovery leans on the write verifier rather than the cache.
        Duplicate-execution accounting restarts with the cache: the
        idempotency oracle is a per-boot-epoch invariant.
        """
        self._dupreq.clear()
        self._executed_keys.clear()

"""The simulation core: clock, event loop, and process spawning.

The design follows the classic process-interaction style (as popularised
by SimPy): simulated activities are Python generators that ``yield``
events; the kernel resumes each generator when the event it waited on
fires.  The kernel is deliberately small — everything domain-specific
(disks, schedulers, NFS daemons) is layered on top.

There is one scheduler: a binary heap of ``(when, seq, entry)`` tuples
(:class:`~repro.sim.events.EventQueue`), where ``seq`` is a monotone
insertion counter, so entries fire in exactly ``(time, insertion-order)``
sequence and every run is deterministic.  :meth:`Simulator.run` pops
the heap and fires each entry inline.  Every entry is scheduled through
the instance attribute ``sim._push``, so a caller that wants to count or
trace scheduling wraps that one attribute.  The entries are:

* an event fired by ``succeed``/``fail``, or pushed pre-triggered at an
  absolute time by :meth:`Simulator.at` (a FIFO server's finish);
* a timeout;
* a :meth:`Simulator.spawn` bootstrap (:meth:`Simulator.start` runs the
  first step inline and queues none);
* a process completion, only when something waits on the process;
* a :meth:`Simulator.call_later` callback.
"""

from __future__ import annotations

from heapq import heappop
from typing import Any, Callable, Iterable, Optional

from ..obs import NULL_OBS, Observability
from .errors import SchedulingError, SimulationError
from .events import TRIGGERED, AllOf, Event, EventQueue, Timeout
from .process import Process, _Bootstrap


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.spawn(worker(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"

    ``obs`` attaches an :class:`~repro.obs.Observability` (span tracer
    + metrics registry) that instrumented components reach via
    ``sim.obs``.  The default is the shared all-off null object, and by
    the no-perturbation invariant of :mod:`repro.obs` an instrumented
    run is bit-identical to an uninstrumented one.
    """

    def __init__(self, obs: Optional[Observability] = None):
        self.now: float = 0.0
        self._queue = EventQueue()
        #: The single scheduling entry point: ``_push(when, entry)``
        #: queues anything with a ``_process()`` method to fire at the
        #: absolute time ``when``.
        self._push = self._queue.push
        self._running = False
        self.obs = obs if obs is not None else NULL_OBS
        self.obs.bind(self)

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------

    def event(self, name: Optional[str] = None) -> Event:
        """Create a pending one-shot event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, value)

    def at(self, when: float, name: Optional[str] = None) -> Event:
        """An event that fires at the absolute simulated time ``when``.

        For a caller that computes a finish time itself, as a FIFO
        server does when it books work: one pre-triggered event and one
        queue entry, pushed at exactly ``when``.
        """
        if when < self.now:
            raise SchedulingError(
                f"cannot schedule an event at {when} before now "
                f"({self.now})")
        event = Event(self, name)
        event.state = TRIGGERED
        self._push(when, event)
        return event

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def spawn(self, generator, name: Optional[str] = None) -> Process:
        """Start a new process from a generator; returns its Process.

        The first step runs from a bootstrap entry at the current time,
        after every entry already queued for this instant.
        """
        process = Process(self, generator, name=name)
        self._push(self.now, _Bootstrap(process))
        return process

    def start(self, generator, name: Optional[str] = None) -> Process:
        """Start a new process and run its first step before returning.

        No bootstrap entry: the generator runs to its first ``yield``
        inside the caller, so the caller's own entry must be where the
        process belongs in the queue order (an RPC handler started by
        its request's delivery).
        """
        process = Process(self, generator, name=name)
        process._step(None)
        return process

    def call_later(self, delay: float, callback: Callable[..., Any],
                   *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` simulated seconds from now.

        One queue entry and no process: the cheap form of a process
        that only sleeps and then acts.  Nothing can wait on it.
        """
        if delay < 0:
            raise SchedulingError("cannot schedule a callback in the past")
        self._push(self.now + delay, _Call(callback, args))

    # ------------------------------------------------------------------
    # Scheduling and the main loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Process exactly one entry (advancing the clock to it)."""
        when, entry = self._queue.pop()
        if when < self.now:
            raise SimulationError("event queue went backwards in time")
        self.now = when
        entry._process()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock reaches ``until``.

        Returns the final simulation time.  ``until`` is an absolute
        simulated timestamp, not a delta.  The loop pops heap tuples and
        fires them inline: no :meth:`step` call, no ``len`` or ``peek``
        per entry.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        heap = self._queue._heap
        try:
            if until is None:
                while heap:
                    when, _seq, entry = heappop(heap)
                    self.now = when
                    entry._process()
            else:
                while heap:
                    if heap[0][0] > until:
                        self.now = until
                        break
                    when, _seq, entry = heappop(heap)
                    self.now = when
                    entry._process()
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def run_until_complete(self, process: Process,
                           limit: Optional[float] = None) -> Any:
        """Run until ``process`` finishes; return its value.

        ``limit`` guards against runaway simulations: exceeding it raises
        :class:`SimulationError`.
        """
        queue = self._queue
        while not process.finished:
            if not len(queue):
                raise SimulationError(
                    f"deadlock: {process!r} cannot finish, queue empty")
            if limit is not None and queue.peek_time() > limit:
                raise SimulationError(
                    f"simulation exceeded time limit {limit}")
            self.step()
        if process.error is not None:
            raise process.error
        return process.value


class _Call:
    """Queue entry that runs a callback: :meth:`Simulator.call_later`."""

    __slots__ = ("callback", "args")

    def __init__(self, callback: Callable[..., Any], args: tuple):
        self.callback = callback
        self.args = args

    def _process(self) -> None:
        self.callback(*self.args)

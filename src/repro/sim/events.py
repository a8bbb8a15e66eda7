"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.
Events move through three states: *pending* (created, not yet fired),
*triggered* (scheduled to fire at a known simulation time), and
*processed* (callbacks have run).  Waiting on an already-processed event
resumes the waiter at once, so there is no lost-wakeup race.

This module sits on the kernel's hottest path — a replay run processes
over a hundred events per NFS operation — so the primitives are written
flat: callback lists materialize only when a subscriber appears, event
labels are computed lazily, and scheduling goes through the simulator's
single ``_push`` indirection (see :mod:`repro.sim.core`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.core.Simulator`.
    name:
        Optional label used in ``repr`` and error messages.
    """

    __slots__ = ("sim", "name", "state", "value", "error", "callbacks")

    def __init__(self, sim, name: Optional[str] = None):
        self.sim = sim
        self.name = name
        self.state = PENDING
        self.value: Any = None
        #: set by :meth:`fail`; delivered by throwing into waiters.
        self.error: Optional[BaseException] = None
        #: callables invoked as ``cb(event)`` when the event is
        #: processed; ``None`` until the first subscriber (most events
        #: never get one, so the list is lazy).
        self.callbacks: Optional[List[Callable[["Event"], None]]] = None

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
        return f"<Event {label} {self.state}>"

    @property
    def triggered(self) -> bool:
        return self.state != PENDING

    @property
    def processed(self) -> bool:
        return self.state == PROCESSED

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire ``delay`` seconds from now.

        Returns the event itself so calls can be chained.  Firing an
        already-triggered event raises ``RuntimeError``: events are
        strictly one-shot.
        """
        if self.state != PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self.state = TRIGGERED
        self.value = value
        sim = self.sim
        if delay < 0:
            from .errors import SchedulingError
            raise SchedulingError(f"cannot schedule {self!r} in the past")
        sim._push(sim.now + delay, self)
        return self

    def fail(self, error: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a *failure*.

        A process waiting on the event has ``error`` thrown into it at
        its ``yield`` (it may catch the exception and carry on); plain
        callbacks still run and can inspect ``event.error``.  Like
        :meth:`succeed`, strictly one-shot.
        """
        if not isinstance(error, BaseException):
            raise TypeError(f"fail() needs an exception, got {error!r}")
        if self.state != PENDING:
            raise RuntimeError(f"{self!r} already triggered")
        self.state = TRIGGERED
        self.error = error
        sim = self.sim
        if delay < 0:
            from .errors import SchedulingError
            raise SchedulingError(f"cannot schedule {self!r} in the past")
        sim._push(sim.now + delay, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed.

        If the event has already been processed, the callback runs
        immediately (synchronously): late subscribers never hang.
        """
        if self.state == PROCESSED:
            callback(self)
        elif self.callbacks is None:
            self.callbacks = [callback]
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        self.state = PROCESSED
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        # Flattened Event.__init__ (timeouts are the kernel's most
        # common allocation; the super().__init__ chain is measurable).
        self.sim = sim
        self.state = TRIGGERED
        self.value = value
        self.error = None
        self.callbacks = None
        self.delay = delay
        sim._push(sim.now + delay, self)

    @property
    def name(self) -> str:  # type: ignore[override]
        # Computed on demand: formatting "timeout(0.004)" per event was
        # a visible slice of the old kernel's per-op cost.
        return f"timeout({self.delay:g})"


class AllOf(Event):
    """Fires once every one of the given events has been processed.

    The value is the list of child events, in the order supplied.
    """

    __slots__ = ("_remaining", "_children")

    def __init__(self, sim, events):
        super().__init__(sim, name="all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._children:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0 and self.state == PENDING:
            self.succeed(list(self._children))


class EventQueue:
    """The kernel's time-ordered queue: a binary heap of tuples.

    Each entry is ``(when, seq, entry)``.  Ties on timestamp are broken
    FIFO via a monotonically increasing sequence number, which keeps the
    simulation deterministic.  The simulator's run loop pops ``_heap``
    directly.
    """

    __slots__ = ("_heap", "_counter")

    def __init__(self):
        self._heap: List[Tuple[float, int, Any]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, when: float, entry: Any) -> None:
        heapq.heappush(self._heap, (when, next(self._counter), entry))

    def pop(self) -> Tuple[float, Any]:
        when, _seq, entry = heapq.heappop(self._heap)
        return when, entry

    def peek_time(self) -> float:
        return self._heap[0][0]

"""Unit tests for the event queue and event primitives."""

import pytest

from repro.sim import AllOf, Event, Simulator, Timeout
from repro.sim.events import EventQueue


class TestEvent:
    def test_starts_pending(self):
        sim = Simulator()
        event = sim.event("e")
        assert not event.triggered
        assert not event.processed

    def test_succeed_marks_triggered(self):
        sim = Simulator()
        event = sim.event().succeed(42)
        assert event.triggered
        assert not event.processed
        sim.run()
        assert event.processed
        assert event.value == 42

    def test_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event().succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_callback_runs_on_processing(self):
        sim = Simulator()
        seen = []
        event = sim.event()
        event.add_callback(lambda ev: seen.append(ev.value))
        event.succeed("x")
        assert seen == []
        sim.run()
        assert seen == ["x"]

    def test_late_callback_runs_immediately(self):
        sim = Simulator()
        event = sim.event().succeed("done")
        sim.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == ["done"]

    def test_succeed_with_delay(self):
        sim = Simulator()
        times = []
        event = sim.event()
        event.add_callback(lambda ev: times.append(sim.now))
        event.succeed(delay=2.5)
        sim.run()
        assert times == [2.5]


class TestEventFail:
    def test_fail_throws_into_waiting_process(self):
        sim = Simulator()
        event = sim.event("doomed")
        caught = []

        def waiter(sim):
            try:
                yield event
            except ValueError as exc:
                caught.append(exc)
            return None

        sim.spawn(waiter(sim))
        event.fail(ValueError("boom"), delay=1.0)
        sim.run()
        assert len(caught) == 1
        assert sim.now == 1.0

    def test_uncaught_failure_kills_the_process(self):
        sim = Simulator()
        event = sim.event()

        def waiter(sim):
            yield event

        process = sim.spawn(waiter(sim))
        event.fail(RuntimeError("no handler"))
        sim.run()
        assert isinstance(process.error, RuntimeError)

    def test_fail_needs_an_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_fail_is_one_shot(self):
        sim = Simulator()
        event = sim.event().succeed()
        with pytest.raises(RuntimeError):
            event.fail(ValueError("late"))

    def test_plain_callbacks_see_the_error(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.error))
        event.fail(KeyError("k"))
        sim.run()
        assert len(seen) == 1 and isinstance(seen[0], KeyError)

    def test_child_process_error_propagates_to_parent(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(1.0)
            raise OSError("child died")

        caught = []

        def parent(sim):
            try:
                yield sim.spawn(child(sim))
            except OSError as exc:
                caught.append(exc)
            return "recovered"

        process = sim.spawn(parent(sim))
        assert sim.run_until_complete(process) == "recovered"
        assert len(caught) == 1


class TestTimeout:
    def test_fires_at_delay(self):
        sim = Simulator()
        fired = []
        timeout = sim.timeout(1.25, value="t")
        timeout.add_callback(lambda ev: fired.append((sim.now, ev.value)))
        sim.run()
        assert fired == [(1.25, "t")]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-0.1)

    def test_zero_delay_fires_now(self):
        sim = Simulator()
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed
        assert sim.now == 0.0


class TestCallLater:
    def test_runs_callback_at_delay_in_fifo_order(self):
        sim = Simulator()
        fired = []
        sim.call_later(0.5, lambda tag: fired.append((sim.now, tag)), "a")
        sim.call_later(0.5, lambda tag: fired.append((sim.now, tag)), "b")
        sim.call_later(0.25, lambda: fired.append((sim.now, "c")))
        sim.run()
        assert fired == [(0.25, "c"), (0.5, "a"), (0.5, "b")]

    def test_negative_delay_rejected(self):
        from repro.sim import SchedulingError
        with pytest.raises(SchedulingError):
            Simulator().call_later(-0.1, lambda: None)


class TestAnyOfAllOf:
    def test_all_of_waits_for_all(self):
        sim = Simulator()
        events = [sim.timeout(t) for t in (3.0, 1.0, 2.0)]
        gate = sim.all_of(events)
        done = []
        gate.add_callback(lambda ev: done.append(sim.now))
        sim.run()
        assert done == [3.0]

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()
        gate = sim.all_of([])
        sim.run()
        assert gate.processed


class TestEventQueue:
    def test_orders_by_time(self):
        sim = Simulator()
        queue = EventQueue()
        order = []
        for t in (3.0, 1.0, 2.0):
            queue.push(t, sim.event(str(t)))
        while len(queue):
            when, event = queue.pop()
            order.append(when)
        assert order == [1.0, 2.0, 3.0]

    def test_fifo_among_ties(self):
        sim = Simulator()
        queue = EventQueue()
        first = sim.event("first")
        second = sim.event("second")
        queue.push(1.0, first)
        queue.push(1.0, second)
        assert queue.pop()[1] is first
        assert queue.pop()[1] is second

    def test_peek_time(self):
        queue = EventQueue()
        sim = Simulator()
        queue.push(4.0, sim.event())
        queue.push(2.0, sim.event())
        assert queue.peek_time() == 2.0

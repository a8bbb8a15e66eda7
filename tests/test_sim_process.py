"""Unit tests for generator-based processes."""

import pytest

from repro.sim import Process, ProcessError, SimulationError, Simulator


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(0.5)
        return "result"

    process = sim.spawn(worker(sim))
    assert sim.run_until_complete(process) == "result"
    assert sim.now == 1.5


def test_process_is_waitable_event():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return 7

    def parent(sim):
        value = yield sim.spawn(child(sim))
        return value * 2

    process = sim.spawn(parent(sim))
    assert sim.run_until_complete(process) == 14


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(ProcessError):
        Process(sim, lambda: None)


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42

    process = sim.spawn(bad(sim))
    with pytest.raises(ProcessError):
        sim.run_until_complete(process)


def test_exception_propagates_via_run_until_complete():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("kaboom")

    process = sim.spawn(boom(sim))
    with pytest.raises(ValueError, match="kaboom"):
        sim.run_until_complete(process)


def test_deadlock_detected():
    sim = Simulator()

    def stuck(sim):
        yield sim.event("never")

    process = sim.spawn(stuck(sim))
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(process)


def test_run_until_time_limit():
    sim = Simulator()

    def ticker(sim):
        for _ in range(100):
            yield sim.timeout(1.0)

    sim.spawn(ticker(sim))
    sim.run(until=5.5)
    assert sim.now == 5.5


def record_pushes(sim):
    """Log every entry the kernel queues on ``sim``."""
    pushed = []
    push = sim._push

    def logging_push(when, entry):
        pushed.append(entry)
        push(when, entry)

    sim._push = logging_push
    return pushed


def sleeper(sim, delay, value):
    yield sim.timeout(delay)
    return value


def test_unawaited_process_finishes_without_a_queue_entry():
    sim = Simulator()
    pushed = record_pushes(sim)
    process = sim.spawn(sleeper(sim, 1.0, "done"))
    sim.run()
    assert process.processed and process.value == "done"
    # The bootstrap and the timeout; no completion entry.
    assert len(pushed) == 2 and process not in pushed


def test_process_awaited_before_it_finishes_wakes_waiter_via_queue():
    sim = Simulator()
    pushed = record_pushes(sim)
    child = sim.spawn(sleeper(sim, 1.0, 7))

    def parent(sim):
        value = yield child
        return (sim.now, value)

    waiter = sim.spawn(parent(sim))
    sim.run()
    assert waiter.value == (1.0, 7)
    assert pushed.count(child) == 1


def test_process_awaited_after_it_finished_resumes_waiter_at_once():
    sim = Simulator()
    pushed = record_pushes(sim)
    child = sim.spawn(sleeper(sim, 1.0, 7))

    def parent(sim):
        yield sim.timeout(2.0)
        queued = len(pushed)
        value = yield child
        return (sim.now, value, len(pushed) - queued)

    waiter = sim.spawn(parent(sim))
    sim.run()
    assert waiter.value == (2.0, 7, 0)


def test_start_runs_first_step_inline_and_is_a_counted_process(
        monkeypatch):
    built = []
    process_init = Process.__init__

    def counting_init(process, *args, **kwargs):
        built.append(process)
        process_init(process, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    sim = Simulator()
    pushed = record_pushes(sim)
    steps = []

    def worker(sim):
        steps.append(sim.now)
        yield sim.timeout(1.0)
        steps.append(sim.now)

    started = sim.start(worker(sim))
    assert steps == [0.0]
    assert built == [started]
    # The worker's timeout, and no bootstrap entry.
    assert len(pushed) == 1
    spawned = sim.spawn(worker(sim))
    assert built == [started, spawned]
    sim.run()
    assert steps == [0.0, 0.0, 1.0, 1.0]
    assert started.processed and spawned.processed

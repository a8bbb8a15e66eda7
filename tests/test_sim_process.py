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

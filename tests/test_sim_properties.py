"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.events import EventQueue


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_event_queue_pops_in_nondecreasing_time_order(times):
    sim = Simulator()
    queue = EventQueue()
    for t in times:
        queue.push(t, sim.event())
    popped = []
    while len(queue):
        popped.append(queue.pop()[0])
    assert popped == sorted(popped)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_clock_never_runs_backwards(delays):
    sim = Simulator()
    observed = []

    def waiter(sim, delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.spawn(waiter(sim, delay))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)
    assert sim.now == max(delays)


@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=30, deadline=None)
def test_resource_never_exceeds_capacity(capacity, nworkers):
    from repro.sim import Resource

    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    concurrency = {"now": 0, "peak": 0}

    def worker(sim):
        yield resource.acquire()
        concurrency["now"] += 1
        concurrency["peak"] = max(concurrency["peak"], concurrency["now"])
        yield sim.timeout(1.0)
        concurrency["now"] -= 1
        resource.release()

    for _ in range(nworkers):
        sim.spawn(worker(sim))
    sim.run()
    assert concurrency["peak"] <= capacity
    assert concurrency["now"] == 0
    assert resource.in_use == 0


@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=1, max_size=60),
       st.floats(min_value=1.0, max_value=1e9))
@settings(max_examples=50, deadline=None)
def test_rate_limiter_total_time_is_sum_of_parts(sizes, rate):
    from repro.sim import RateLimiter

    sim = Simulator()
    limiter = RateLimiter(sim, rate)
    for size in sizes:
        sim.at(limiter.reserve(size))
    sim.run()
    expected = sum(sizes) / rate
    assert sim.now <= expected * (1 + 1e-9) + 1e-12
    assert limiter.bytes_moved == sum(sizes)

"""Model-based property test: the host CPU vs a FIFO reference server.

Hypothesis draws CPU charges (arrival times with deliberate ties, costs
that include exact zeros) on machines with 0-4 busy-loop processes,
runs them through :meth:`Machine.execute`, and checks each charge
against a plain FIFO server: it starts at ``max(booking, previous
finish)`` and finishes ``cost * dilation`` later, compared by float
equality.  Charges are served in the order they were booked; with
jitter, each charge first waits a draw from the machine's RNG, taken
in call order, and only then books the CPU.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import Machine
from repro.host.machine import BASE_JITTER, JITTER_PER_HOG, SLOWDOWN_PER_HOG
from repro.sim import Simulator

#: Arrival instants on a coarse grid, so that charges often tie.
arrivals = st.integers(0, 6).map(lambda tick: tick * 0.0005)
costs = st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=0.002,
                            allow_nan=False, allow_infinity=False))
charges = st.lists(st.tuples(arrivals, costs), min_size=1, max_size=12)


def run_charges(busy, jitter, charges, seed):
    """Run each ``(arrival, cost)`` charge as its own process.

    Returns the machine and the ``(index, finish)`` pairs in the order
    the charges completed.
    """
    sim = Simulator()
    machine = Machine(sim, "m", rng=random.Random(seed),
                      busy_processes=busy)
    done = []

    def charge(index, arrival, cost):
        yield sim.timeout(arrival)
        yield from machine.execute(cost, jitter=jitter)
        done.append((index, sim.now))

    for index, (arrival, cost) in enumerate(charges):
        sim.spawn(charge(index, arrival, cost))
    sim.run()
    return machine, done


def reference(busy, jitter, charges, seed):
    """The FIFO server: ``(index, finish)`` in service order, and the
    CPU time it booked."""
    dilation = 1.0 + busy * SLOWDOWN_PER_HOG
    ceiling = BASE_JITTER + busy * JITTER_PER_HOG
    rng = random.Random(seed)
    # Calls happen in arrival order, ties in spawn order.
    calls = sorted(range(len(charges)), key=lambda i: (charges[i][0], i))
    bookings = []
    for order, index in enumerate(calls):
        arrival = charges[index][0]
        # The jitter wait is drawn at the call and spent before booking.
        booked = arrival + rng.uniform(0.0, ceiling) if jitter else arrival
        bookings.append((booked, order, index))
    served = []
    consumed = 0.0
    previous = 0.0
    for booked, _order, index in sorted(bookings):
        cost = charges[index][1] * dilation
        previous = max(booked, previous) + cost
        consumed += cost
        served.append((index, previous))
    return served, consumed


@given(busy=st.integers(0, 4), jitter=st.booleans(), charges=charges,
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_execute_is_a_fifo_server_of_dilated_charges(busy, jitter, charges,
                                                     seed):
    machine, done = run_charges(busy, jitter, charges, seed)
    served, consumed = reference(busy, jitter, charges, seed)
    assert done == served
    assert machine.cpu_time_consumed == consumed

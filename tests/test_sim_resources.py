"""Unit tests for Resource, Store, and RateLimiter."""

import pytest

from repro.sim import RateLimiter, Resource, Simulator, Store


class TestResource:
    def test_capacity_enforced_fifo(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def worker(sim, name, hold):
            yield resource.acquire()
            order.append((name, sim.now))
            yield sim.timeout(hold)
            resource.release()

        sim.spawn(worker(sim, "a", 2.0))
        sim.spawn(worker(sim, "b", 1.0))
        sim.run()
        assert order == [("a", 0.0), ("b", 2.0)]

    def test_try_acquire(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        assert resource.try_acquire()
        assert resource.try_acquire()
        assert not resource.try_acquire()
        resource.release()
        assert resource.try_acquire()

    def test_release_without_acquire_rejected(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_bad_capacity_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_queued_counts_waiters(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        assert resource.try_acquire()
        resource.acquire()
        resource.acquire()
        assert resource.queued == 2


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = []

        def getter(sim):
            item = yield store.get()
            got.append((item, sim.now))

        sim.spawn(getter(sim))
        sim.run()
        assert got == [("x", 0.0)]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter(sim):
            item = yield store.get()
            got.append((item, sim.now))

        def putter(sim):
            yield sim.timeout(3.0)
            store.put("late")

        sim.spawn(getter(sim))
        sim.spawn(putter(sim))
        sim.run()
        assert got == [("late", 3.0)]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def getter(sim, tag):
            item = yield store.get()
            got.append((tag, item))

        sim.spawn(getter(sim, "first"))
        sim.spawn(getter(sim, "second"))
        store.put(1)
        store.put(2)
        sim.run()
        assert got == [("first", 1), ("second", 2)]

    def test_len_counts_items(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        assert len(store) == 2


class TestRateLimiter:
    def test_single_transfer_duration(self):
        sim = Simulator()
        limiter = RateLimiter(sim, rate_bytes_per_sec=1000.0)
        done = []

        def mover(sim):
            yield sim.at(limiter.reserve(500))
            done.append(sim.now)

        sim.spawn(mover(sim))
        sim.run()
        assert done == [pytest.approx(0.5)]

    def test_transfers_serialize(self):
        sim = Simulator()
        limiter = RateLimiter(sim, rate_bytes_per_sec=1000.0)
        done = []

        def mover(sim, tag):
            yield sim.at(limiter.reserve(1000))
            done.append((tag, sim.now))

        sim.spawn(mover(sim, "a"))
        sim.spawn(mover(sim, "b"))
        sim.run()
        assert done == [("a", pytest.approx(1.0)),
                        ("b", pytest.approx(2.0))]

    def test_idle_gap_not_credited(self):
        sim = Simulator()
        limiter = RateLimiter(sim, rate_bytes_per_sec=1000.0)
        done = []

        def mover(sim):
            yield sim.timeout(10.0)
            yield sim.at(limiter.reserve(1000))
            done.append(sim.now)

        sim.spawn(mover(sim))
        sim.run()
        assert done == [pytest.approx(11.0)]

    def test_bad_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            RateLimiter(sim, 0.0)

    def test_negative_transfer_rejected(self):
        sim = Simulator()
        limiter = RateLimiter(sim, 1000.0)
        with pytest.raises(ValueError):
            limiter.reserve(-1)

    def test_bytes_moved_accumulates(self):
        sim = Simulator()
        limiter = RateLimiter(sim, 1000.0)
        limiter.reserve(100)
        limiter.reserve(200)
        assert limiter.bytes_moved == 300

"""Unit tests for the kernel disk queues (elevator, N-CSCAN)."""

import pytest

from repro.disk import DiskRequest
from repro.kernel import (ElevatorQueue, NStepCscanQueue,
                          available_policies, make_bufq)


def request(lba):
    return DiskRequest(lba=lba, nsectors=16)


def drain(queue):
    order = []
    while True:
        item = queue.next()
        if item is None:
            return order
        order.append(item.lba)


class TestElevator:
    def test_services_ascending_within_sweep(self):
        queue = ElevatorQueue()
        for lba in (300, 100, 200):
            queue.insert(request(lba))
        assert drain(queue) == [100, 200, 300]

    def test_request_ahead_of_head_joins_current_sweep(self):
        """The §5.3 unfairness mechanism: a stream at the head keeps
        jumping the queue."""
        queue = ElevatorQueue()
        queue.insert(request(100))
        queue.insert(request(500))
        assert queue.next().lba == 100
        # The stream at 100 immediately asks for the adjacent block,
        # which lands *ahead* of the waiting request at 500.
        queue.insert(request(116))
        assert queue.next().lba == 116
        queue.insert(request(132))
        assert queue.next().lba == 132
        assert queue.next().lba == 500

    def test_request_behind_head_waits_for_next_sweep(self):
        queue = ElevatorQueue()
        queue.insert(request(200))
        assert queue.next().lba == 200
        queue.insert(request(100))   # behind the head
        queue.insert(request(300))   # ahead of the head
        assert drain(queue) == [300, 100]

    def test_wraps_to_lowest_after_sweep(self):
        queue = ElevatorQueue()
        queue.insert(request(500))
        assert queue.next().lba == 500
        queue.insert(request(10))
        queue.insert(request(20))
        assert drain(queue) == [10, 20]

    def test_len_counts_both_sweeps(self):
        queue = ElevatorQueue()
        queue.insert(request(100))
        queue.next()
        queue.insert(request(50))    # next sweep
        queue.insert(request(150))   # current sweep
        assert len(queue) == 2


class TestNStepCscan:
    def test_sweep_is_frozen(self):
        """Requests arriving during a sweep wait for the next one —
        the paper's fairness patch."""
        queue = NStepCscanQueue()
        queue.insert(request(100))
        queue.insert(request(300))
        assert queue.next().lba == 100
        # Arrives mid-sweep, sorts before 300, but must NOT jump in.
        queue.insert(request(200))
        assert queue.next().lba == 300
        assert queue.next().lba == 200

    def test_accumulated_batch_is_sorted(self):
        queue = NStepCscanQueue()
        queue.insert(request(100))
        assert queue.next().lba == 100
        for lba in (900, 300, 600):
            queue.insert(request(lba))
        assert drain(queue) == [300, 600, 900]

    def test_empty_returns_none(self):
        assert NStepCscanQueue().next() is None


class TestFactory:
    def test_make_by_name(self):
        assert make_bufq("elevator").name == "elevator"
        assert make_bufq("n-cscan").name == "n-cscan"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            make_bufq("deadline")

    def test_available_policies(self):
        assert available_policies() == ["elevator", "n-cscan"]


class TestQueueProperties:
    """Property-style checks shared by every queue policy."""

    def test_everything_inserted_is_returned_exactly_once(self):
        import random as _random
        rng = _random.Random(11)
        for policy in available_policies():
            queue = make_bufq(policy)
            inserted = []
            drained = []
            for _round in range(5):
                for _n in range(rng.randrange(1, 20)):
                    item = request(rng.randrange(100_000))
                    inserted.append(item.id)
                    queue.insert(item)
                for _n in range(rng.randrange(1, 15)):
                    item = queue.next()
                    if item is None:
                        break
                    drained.append(item.id)
            while True:
                item = queue.next()
                if item is None:
                    break
                drained.append(item.id)
            assert sorted(drained) == sorted(inserted), policy

    def test_len_tracks_contents(self):
        for policy in available_policies():
            queue = make_bufq(policy)
            for lba in (5, 10, 15):
                queue.insert(request(lba))
            assert len(queue) == 3
            queue.next()
            assert len(queue) == 2

"""Property-based tests for the disk drive (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import (DiskRequest, IBM_DDYS_T36950N, SECTOR_SIZE,
                        WDC_WD200BB)
from repro.sim import Simulator

request_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000_000),
              st.integers(min_value=1, max_value=256),
              st.booleans()),
    min_size=1, max_size=40)


def run_batch(spec, tuples, tags=None):
    sim = Simulator()
    drive = spec.build(sim, tagged_queueing=tags)
    requests = [DiskRequest(lba=lba, nsectors=n, is_write=w)
                for lba, n, w in tuples]
    for request in requests:
        drive.submit(request)
    sim.run()
    return sim, drive, requests


@given(request_lists)
@settings(max_examples=40, deadline=None)
def test_every_request_completes_exactly_once_ide(tuples):
    sim, drive, requests = run_batch(WDC_WD200BB, tuples)
    assert all(r.done.processed for r in requests)
    assert drive.stats.requests == len(requests)
    assert sorted(drive.stats.service_order) == \
        sorted(r.id for r in requests)


@given(request_lists)
@settings(max_examples=40, deadline=None)
def test_every_request_completes_under_tcq(tuples):
    """The firmware scheduler (aged SPTF) must not starve anything."""
    sim, drive, requests = run_batch(IBM_DDYS_T36950N, tuples, tags=True)
    assert all(r.done.processed for r in requests)
    assert all(r.completion >= r.arrival for r in requests)


@given(request_lists)
@settings(max_examples=40, deadline=None)
def test_service_time_bounds(tuples):
    """Each command takes at least its media/interface transfer time
    and at most full-stroke + a revolution + transfer (+ overheads)."""
    sim, drive, requests = run_batch(WDC_WD200BB, tuples)
    geometry = drive.geometry
    worst_positioning = (
        drive.seek_model.seek_time(geometry.cylinders - 1)
        + drive.rotation.revolution_time)
    for request in requests:
        elapsed = request.completion - request.service_start
        nbytes = request.nsectors * SECTOR_SIZE
        fastest = nbytes / drive.interface_rate
        slowest = (worst_positioning + drive.command_overhead
                   + nbytes / geometry.media_rate(
                       min(request.lba, geometry.total_sectors - 1))
                   + 1e-6)
        assert fastest - 1e-12 <= elapsed <= slowest


@given(request_lists)
@settings(max_examples=30, deadline=None)
def test_busy_time_additive(tuples):
    sim, drive, requests = run_batch(WDC_WD200BB, tuples)
    per_request = sum(r.completion - r.service_start for r in requests)
    assert drive.stats.busy_time <= per_request + 1e-9
    assert drive.stats.busy_time <= sim.now + 1e-9


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=20, deadline=None)
def test_sequential_stream_monotone_completions(nrequests):
    """Back-to-back sequential commands complete in submission order
    with strictly increasing completion times (FIFO, no tags)."""
    sim = Simulator()
    drive = WDC_WD200BB.build(sim)
    requests = [DiskRequest(lba=index * 128, nsectors=128)
                for index in range(nrequests)]
    for request in requests:
        drive.submit(request)
    sim.run()
    completions = [r.completion for r in requests]
    assert completions == sorted(completions)
    assert drive.stats.record_orders_match()

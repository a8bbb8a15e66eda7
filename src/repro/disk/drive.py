"""The disk drive: command queue, mechanics, and firmware cache.

The drive is a single server (one set of heads) fed from a command
queue.  With tagged command queueing (TCQ) enabled the host may keep up
to ``tcq_depth`` commands outstanding and the firmware scheduler picks
service order; with TCQ disabled the host keeps at most one command in
flight and the drive is trivially FIFO.

Service of one read command:

1. Probe the segmented prefetch cache.
   * full hit — data leaves over the interface at interface rate;
   * partial hit with an active fill — the drive simply keeps reading:
     the remainder arrives at media rate with no seek and no rotational
     latency (a *sequential continuation*);
   * otherwise — a media read: seek to the target cylinder, wait for the
     target sector to rotate under the head, then transfer at the zone's
     media rate.
2. After a media read the firmware keeps filling the stream's cache
   segment until the next command forces the head elsewhere.

All of the paper's §5 "traps" fall out of this model: ZCAV from the
zone-dependent media rate, TCQ effects from the firmware scheduler, and
rotational-gap forgiveness from the prefetch cache.
"""

from __future__ import annotations

from typing import List, Optional

from ..faults.disk import DiskFaultInjector
from ..obs.provenance import OvertakeLog
from ..sim import Event, Simulator
from .cache import SegmentedCache
from .geometry import SECTOR_SIZE, DiskGeometry
from .mechanics import RotationModel, SeekModel
from .request import DiskRequest, DriveStats
from .scheduler import AgedSptfFirmware, FifoFirmware

#: Size of one firmware prefetch-cache segment (both presets).
CACHE_SEGMENT_BYTES = 256 * 1024


class DiskDrive:
    """A simulated disk drive.

    Parameters
    ----------
    sim:
        The discrete-event simulator.
    geometry, seek_model:
        Physical description; see :mod:`repro.disk.geometry`.
    interface_rate:
        Host-interface bandwidth in bytes/s (Ultra160 SCSI, ATA/66...).
        Cache hits stream at this rate; media reads are media-bound.
    cache_segments, cache_replacement:
        Firmware prefetch buffer shape, in segments of
        :data:`CACHE_SEGMENT_BYTES`, and its segment victim policy
        (``"lru"`` or ``"mru"``; see :class:`SegmentedCache`).
    tcq_depth:
        Commands the host may keep outstanding when tagged queueing is
        on; the firmware then orders them by aged SPTF.
    command_overhead:
        Fixed per-command firmware/protocol time.
    """

    def __init__(self, sim: Simulator, geometry: DiskGeometry,
                 seek_model: SeekModel, interface_rate: float,
                 cache_segments: int = 8,
                 cache_replacement: str = "lru",
                 tcq_depth: int = 64,
                 command_overhead: float = 0.0002,
                 tagged_queueing: bool = True,
                 bus=None,
                 faults: Optional[DiskFaultInjector] = None,
                 name: str = "disk"):
        self.sim = sim
        self.geometry = geometry
        self.seek_model = seek_model
        self.rotation = RotationModel(geometry.rpm)
        self.interface_rate = interface_rate
        self.command_overhead = command_overhead
        self.name = name
        self.tcq_depth = tcq_depth
        self.tagged_queueing = tagged_queueing
        self.firmware = AgedSptfFirmware()
        self._fifo = FifoFirmware()
        #: Optional host-bus limiter (the server's PCI/DMA ceiling):
        #: every byte read from the drive is DMAed across it, so disk
        #: and NIC traffic contend for the same 54 MB/s (§4.1).
        self.bus = bus
        #: Optional :class:`~repro.faults.DiskFaultInjector` consulted
        #: once per command (media-error retries, lost commands, resets).
        self.faults = faults
        segment_sectors = max(1, CACHE_SEGMENT_BYTES // SECTOR_SIZE)
        self.cache = SegmentedCache(cache_segments, segment_sectors,
                                    cache_replacement)
        self.stats = DriveStats()
        self._obs_on = sim.obs.enabled
        #: TCQ residency: host submit to firmware selection.
        self._m_tcq = sim.obs.registry.histogram("disk.tcq_wait_s")
        #: Selection-to-completion service time.
        self._m_service = sim.obs.registry.histogram("disk.service_s")
        #: request id -> TCQ span while queued at the drive.
        self._tcq_obs = {}
        # Provenance of the firmware queue: overtakes in it, and the
        # last service-time breakdown (the ZCAV zone/seek/rotation/
        # transfer evidence).
        self._prov = sim.obs.prov
        self._overtakes = OvertakeLog(self._prov)
        self._breakdown: Optional[dict] = None

        self.current_cylinder = 0
        self._queue: List[DiskRequest] = []
        self._busy = False
        self._wakeup: Optional[Event] = None
        self.sim.spawn(self._service_loop(), name=f"{name}.service")

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------

    @property
    def queue_limit(self) -> int:
        """Commands the host may keep outstanding."""
        return self.tcq_depth if self.tagged_queueing else 1

    @property
    def outstanding(self) -> int:
        return len(self._queue) + (1 if self._busy else 0)

    def submit(self, request: DiskRequest) -> Event:
        """Queue a read command; returns its completion event."""
        if request.done is None:
            request.done = self.sim.event(name=f"io#{request.id}")
        request.arrival = self.sim.now
        if self._obs_on:
            tracer = self.sim.obs.tracer
            if tracer.enabled:
                span = tracer.start(
                    "tcq", "disk.tcq", parent=request.trace_ctx,
                    lba=request.lba)
                self._tcq_obs[request.id] = span
                if self._prov.enabled:
                    self._overtakes.arrive(request)
        self.stats.arrival_order.append(request.id)
        self._queue.append(request)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request.done

    def flush_cache(self) -> None:
        """Drop the firmware cache (used by the benchmark protocol)."""
        self.cache.invalidate()

    # ------------------------------------------------------------------
    # Positioning cost (also used by the firmware scheduler)
    # ------------------------------------------------------------------

    def positioning_time(self, request: DiskRequest) -> float:
        """Estimated seek + rotational delay to start ``request`` now.

        Cache hits and active continuations position for free.
        """
        now = self.sim.now
        lookup = self.cache.lookup(request.lba, request.nsectors, now)
        if lookup.hit and (lookup.covered_sectors >= request.nsectors
                           or lookup.continuation):
            return 0.0
        geometry = self.geometry
        seek = self.seek_model.seek_time(
            abs(geometry.cylinder_of_lba(request.lba)
                - self.current_cylinder))
        rot = self.rotation.latency_to(
            now + seek, geometry.angle_of_lba(request.lba))
        return seek + rot

    # ------------------------------------------------------------------
    # Service loop
    # ------------------------------------------------------------------

    def _service_loop(self):
        while True:
            if not self._queue:
                self._wakeup = self.sim.event(name=f"{self.name}.wakeup")
                yield self._wakeup
                self._wakeup = None
                continue
            scheduler = (self.firmware if self.tagged_queueing
                         else self._fifo)
            request = scheduler.select(
                self._queue, self.sim.now, self.positioning_time)
            self._busy = True
            start = self.sim.now
            if self._obs_on:
                self._m_tcq.observe(start - request.arrival)
                tcq_span = self._tcq_obs.pop(request.id, None)
                if tcq_span is not None:
                    if self._prov.enabled:
                        self._overtakes.depart(request, tcq_span)
                    tcq_span.finish()
                tracer = self.sim.obs.tracer
                if tracer.enabled:
                    mech_span = tracer.start(
                        "write" if request.is_write else "read",
                        "disk.mechanics", parent=request.trace_ctx,
                        lba=request.lba, nsectors=request.nsectors)
                else:
                    mech_span = None
            else:
                mech_span = None
            duration = self._service(request)
            if mech_span is not None and self._breakdown is not None:
                self._prov.note(mech_span, **self._breakdown)
                self._breakdown = None
            if self.faults is not None:
                extra, reset = self.faults.service_penalty(
                    not request.serviced_from_cache, self.sim.now)
                duration += extra
                if reset:
                    # A reset drops the firmware's prefetch cache and
                    # queue state; queued commands stay queued (the host
                    # re-issues them, which in this model is the same
                    # thing).
                    self.cache.invalidate()
            if self.bus is not None:
                # The data must also cross the host bus; completion is
                # whichever finishes later (DMA overlaps the media read).
                bus_done = self.bus.transfer(
                    request.nsectors * SECTOR_SIZE)
                if duration > 0:
                    yield self.sim.all_of(
                        [self.sim.timeout(duration), bus_done])
                else:
                    yield bus_done
            elif duration > 0:
                yield self.sim.timeout(duration)
            self._busy = False
            request.service_start = start
            request.completion = self.sim.now
            self.stats.busy_time += self.sim.now - start
            self.stats.service_order.append(request.id)
            if self._obs_on:
                self._m_service.observe(self.sim.now - start)
                if mech_span is not None:
                    mech_span.finish(
                        cache_hit=request.serviced_from_cache)
            request.done.succeed(request)

    def _service(self, request: DiskRequest) -> float:
        """Compute the service time and update drive state."""
        now = self.sim.now
        geometry = self.geometry
        nbytes = request.nsectors * SECTOR_SIZE
        self.stats.requests += 1
        self.stats.bytes_read += nbytes
        zone = geometry.zone_index_of_lba(request.lba)
        self.stats.bytes_by_zone[zone] = \
            self.stats.bytes_by_zone.get(zone, 0) + nbytes

        overhead = self.command_overhead
        if request.is_write:
            # Writes always touch the media (write caching disabled, as
            # benchmarking rigs do): seek, rotate, write, no prefetch.
            self.stats.writes += 1
        else:
            lookup = self.cache.lookup(request.lba, request.nsectors, now)

            if lookup.hit and lookup.covered_sectors >= request.nsectors:
                # Full cache hit: ship over the interface, head
                # untouched; any active fill keeps running.
                self.stats.cache_hits += 1
                request.serviced_from_cache = True
                if self._prov.enabled:
                    self._breakdown = {
                        "zone": zone, "cache_hit": True,
                        "transfer_s": nbytes / self.interface_rate,
                        "overhead_s": overhead}
                return overhead + nbytes / self.interface_rate

            if lookup.hit and lookup.continuation:
                # The head is streaming this segment right now: the
                # covered prefix ships from buffer while the remainder
                # arrives at media rate, with no repositioning.
                self.stats.sequential_continuations += 1
                self.stats.media_reads += 1
                remainder = request.nsectors - lookup.covered_sectors
                rate = geometry.media_rate(request.lba)
                media_time = remainder * SECTOR_SIZE / rate
                # The buffered prefix ships over the interface while the
                # remainder comes off the media, but every byte still
                # crosses the interface: the command cannot complete
                # faster than its full interface transfer.
                duration = overhead + max(media_time,
                                          nbytes / self.interface_rate)
                if self._prov.enabled:
                    self._breakdown = {
                        "zone": zone, "media_rate": rate,
                        "continuation": True,
                        "transfer_s": duration - overhead,
                        "overhead_s": overhead}
                self._finish_media_access(request, rate, now + duration)
                return duration

            self.stats.media_reads += 1

        # Full mechanical access.  The head leaves wherever it was, so
        # all active fills stop capturing data now.
        self.cache.freeze_fills(now)
        target_cyl = geometry.cylinder_of_lba(request.lba)
        distance = abs(target_cyl - self.current_cylinder)
        seek = self.seek_model.seek_time(distance)
        if distance:
            self.stats.seeks += 1
            self.stats.total_seek_cylinders += distance
        rot = self.rotation.latency_to(
            now + seek + overhead, geometry.angle_of_lba(request.lba))
        rate = geometry.media_rate(request.lba)
        media_time = request.nsectors * SECTOR_SIZE / rate
        duration = overhead + seek + rot + media_time
        if self._prov.enabled:
            self._breakdown = {
                "zone": zone, "media_rate": rate, "seek_s": seek,
                "rot_s": rot, "transfer_s": media_time,
                "overhead_s": overhead}
        self._finish_media_access(request, rate, now + duration)
        return duration

    def _finish_media_access(self, request: DiskRequest, rate: float,
                             completion: float) -> None:
        """Move the head and, after a read, restart prefetch behind it.

        The fill is credited from ``completion`` — prefetch cannot begin
        before the request's own sectors have passed under the head.
        """
        end = min(request.end_lba, self.geometry.total_sectors - 1)
        self.current_cylinder = self.geometry.cylinder_of_lba(end)
        if request.is_write:
            return
        fill_rate_sectors = rate / SECTOR_SIZE
        self.cache.begin_fill(request.lba, request.nsectors,
                              fill_rate_sectors, completion)

"""Canned testbeds reproducing the paper's experimental setup (§4.1).

Two builders:

* :func:`build_local_testbed` — a server machine with one benchmark
  disk and a local FFS (Figures 1–3);
* :func:`build_nfs_testbed` — the full client/switch/server path
  (Figures 4–8, Table 1).

Both take a :class:`TestbedConfig`, which names the drive (``ide`` /
``scsi``), the partition (1 = outermost … 4 = innermost), the kernel
disk scheduler, tagged-queueing state, transport, server heuristic, and
nfsheur parameters — every knob the paper turns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from ..disk import (DiskDrive, DriveSpec, IBM_DDYS_T36950N, Partition,
                    WDC_WD200BB, make_partitions)
from ..faults import FaultPlan, FaultSpec
from ..ffs import Directory, FileSystem, SequentialAllocator
from ..kernel import BufferCache, DiskIoScheduler
from ..net import (GIGABIT, Link, RpcClient, RpcServer, SERVER_PCI_DMA,
                   TcpConnection, UdpEndpoint)
from ..nfs import (DEFAULT_NFSHEUR, IMPROVED_NFSHEUR, NFS_READ_SIZE,
                   NfsHeurParams, NfsMount, NfsMountConfig, NfsServer,
                   NfsServerConfig, READDIR_DEFAULT_COUNT)
from ..obs import Observability
from ..obs.session import active_session
from ..readahead import Heuristic, make_heuristic
from ..sim import RandomStreams, RateLimiter, Simulator
from .machine import Machine

DRIVE_SPECS: Dict[str, DriveSpec] = {
    "ide": WDC_WD200BB,
    "scsi": IBM_DDYS_T36950N,
}

NFSHEUR_PARAMS: Dict[str, NfsHeurParams] = {
    "default": DEFAULT_NFSHEUR,
    "improved": IMPROVED_NFSHEUR,
}

#: The drive's four partitions, 1 (outermost) .. 4 (innermost).
PARTITIONS = (1, 2, 3, 4)

#: Capacity of the server's buffer cache.
SERVER_CACHE_BYTES = 160 * 1024 * 1024
#: Initial RPC retransmit timeout in seconds (the ``timeo`` mount
#: option); doubles per retry, capped.
MOUNT_TIMEO = 0.9
#: Retransmissions before a soft mount reports failure (``retrans``,
#: mount_nfs's classic default).
MOUNT_RETRANS = 4


@dataclass(frozen=True)
class TestbedConfig:
    """One experimental configuration.

    ``drive``+``partition`` name the file systems of the paper
    (``ide1``, ``scsi4``, ...).  ``seed`` varies across repeated runs;
    everything stochastic derives from it.
    """

    __test__ = False  # not a pytest collection target

    drive: str = "ide"
    partition: int = 1
    tagged_queueing: Optional[bool] = None   # None = drive capability
    bufq_policy: str = "elevator"
    transport: str = "udp"
    server_heuristic: str = "default"
    heuristic_options: dict = field(default_factory=dict)
    nfsheur: Union[str, NfsHeurParams] = "default"
    client_busy_loops: int = 0
    loss_rate: float = 0.0
    fragmentation: float = 0.0
    #: Number of client machines sharing the mount (readers are
    #: distributed round-robin across them by the benchmark runner).
    num_clients: int = 1
    #: NFS transfer size (rsize); the paper uses 8 KiB throughout.
    rsize: int = NFS_READ_SIZE
    #: Record READ arrivals at the server (reordering instrumentation).
    record_server_trace: bool = False
    #: Fault-injection plan (``None`` = clean run).  Enabling any fault
    #: also turns on RPC retransmission, backoff jitter, and — over
    #: TCP — the RPC-level retry timer that recovers from server
    #: crashes.
    faults: Optional[FaultSpec] = None
    #: Soft mount: a major timeout surfaces as ETIMEDOUT after
    #: :data:`MOUNT_RETRANS` retransmissions.  The default (hard, as in
    #: the paper's testbed) retries forever.
    mount_soft: bool = False
    #: Capture the client vnode boundary into an Ellard-style trace
    #: (see :mod:`repro.replay`).  Like span tracing and metrics, which
    #: an active observability session (:func:`repro.obs.observe`)
    #: turns on, capture never perturbs the simulated run.
    capture_trace: bool = False
    #: Server duplicate-request cache entries (0 disables it).  Sized to
    #: cover every request the server can complete inside one
    #: retransmission window (~1 s at ~1000 ops/s), so a retransmitted
    #: request always finds its entry — an undersized cache silently
    #: re-executes, which is the bug the cache exists to prevent.
    dupreq_cache_size: int = 4096
    #: NFSv3 write-verifier recovery: when a COMMIT (or WRITE) reply
    #: carries a verifier the client has not seen, re-send every
    #: uncommitted write acked under the old boot.  Off reproduces the
    #: classic lost-acked-data bug the chaos oracles exist to catch.
    mount_verifier_recovery: bool = True
    #: Metadata intent log: CREATE/MKDIR/REMOVE/RENAME journal an
    #: intent to stable storage before the reply leaves, so a crash
    #: never loses an acknowledged namespace mutation.  Off, a crash
    #: undoes nothing (namespace RAM is implicitly durable), but no
    #: reply outlives a reboot: a retransmitted mutation re-executes
    #: against the new boot, e.g. a retried REMOVE answers noent for
    #: a remove the server already acknowledged.
    metadata_journal: bool = True
    #: BUG-REINTRODUCTION HOOK: acknowledge metadata ops without
    #: forcing the intent log (write-behind journal).  Any crash after
    #: an acked op then loses it — the defect the
    #: no-lost-acked-metadata oracle exists to catch.
    meta_ack_before_intent: bool = False
    #: Client attribute-cache windows (the ``acregmin``/``acregmax``/
    #: ``acdirmin``/``acdirmax`` mount options).  ``acregmax=0``
    #: disables file-attribute caching; ``acdirmax=0`` disables the
    #: name cache's validity window (every component re-LOOKUPs).
    acregmin: float = 3.0
    acregmax: float = 60.0
    acdirmin: float = 30.0
    acdirmax: float = 60.0
    #: READDIR byte budget per RPC.
    readdir_count: int = READDIR_DEFAULT_COUNT
    seed: int = 0

    def fs_label(self) -> str:
        return f"{self.drive}{self.partition}"

    def with_seed(self, seed: int) -> "TestbedConfig":
        return replace(self, seed=seed)

    def nfsheur_params(self) -> NfsHeurParams:
        if isinstance(self.nfsheur, NfsHeurParams):
            return self.nfsheur
        try:
            return NFSHEUR_PARAMS[self.nfsheur]
        except KeyError:
            raise ValueError(
                f"unknown nfsheur preset {self.nfsheur!r}") from None


class LocalTestbed:
    """A machine, a drive, and a local file system."""

    def __init__(self, config: TestbedConfig):
        if config.drive not in DRIVE_SPECS:
            raise ValueError(f"unknown drive {config.drive!r}")
        if config.partition not in PARTITIONS:
            raise ValueError("partition must be 1..4")
        self.config = config
        # The active observability session is the one instrumentation
        # switch; by the no-perturbation invariant it changes no
        # simulated result.
        session = active_session()
        self.obs = (Observability() if session is None else
                    Observability(trace=session.trace,
                                  metrics=session.metrics,
                                  provenance=session.provenance))
        self.sim = Simulator(obs=self.obs)
        self.streams = RandomStreams(config.seed)
        #: Built once per run so every injector draws from its own
        #: seed-derived stream (deterministic replay).
        self.fault_plan: Optional[FaultPlan] = (
            FaultPlan(config.faults, self.streams)
            if config.faults is not None and config.faults.any_faults
            else None)
        spec = DRIVE_SPECS[config.drive]
        self.machine = Machine(self.sim, "server",
                               rng=self.streams.stream("server-cpu"))
        # The server's PCI/DMA ceiling (§4.1): disk DMA and NIC DMA
        # share it, which is what caps NFS well below both the wire and
        # the media rate.
        self.server_pci = RateLimiter(self.sim, SERVER_PCI_DMA)
        self.drive: DiskDrive = spec.build(
            self.sim, tagged_queueing=config.tagged_queueing,
            bus=self.server_pci,
            faults=(self.fault_plan.disk_injector()
                    if self.fault_plan else None))
        self.partitions: List[Partition] = make_partitions(
            self.drive.geometry, prefix=config.drive)
        self.partition = self.partitions[config.partition - 1]
        self.iosched = DiskIoScheduler(self.sim, self.drive,
                                       policy=config.bufq_policy)
        self.cache = BufferCache(self.sim, self.iosched,
                                 capacity_bytes=SERVER_CACHE_BYTES)
        allocator = SequentialAllocator(
            self.partition,
            fragmentation=config.fragmentation,
            rng=self.streams.stream("allocator"))
        self.fs = FileSystem(self.sim, self.cache, allocator)
        self._register_gauges()

    def _register_gauges(self) -> None:
        """Expose the stack's state as pull-style gauges.

        Gauges only *read* simulation state at snapshot time, so
        registration is free with respect to the no-perturbation
        invariant; when metrics are off this whole block is a no-op
        against the null registry.
        """
        registry = self.obs.registry
        if not registry.enabled:
            return
        sim = self.sim
        iosched, drive, cache = self.iosched, self.drive, self.cache
        registry.gauge("kernel.bufq.depth", lambda: float(iosched.queued))
        registry.gauge("kernel.cache.hit_rate",
                       lambda: cache.stats.hit_rate)
        registry.gauge("disk.queue.outstanding",
                       lambda: float(drive.outstanding))
        registry.gauge("disk.cache.hit_rate",
                       lambda: drive.stats.cache_hit_fraction)
        registry.gauge("disk.reorder_fraction",
                       lambda: drive.stats.reorder_fraction)
        registry.gauge("disk.busy_s", lambda: drive.stats.busy_time)
        # Static configuration facts the trap-diagnosis detectors read:
        # whether the drive reorders at all, and which partition the
        # benchmark file system sits on (the ZCAV zone question).
        registry.gauge("disk.tcq_enabled",
                       lambda: 1.0 if drive.tagged_queueing else 0.0)
        registry.gauge("disk.tcq_depth",
                       lambda: float(drive.queue_limit))
        registry.gauge("disk.partition_index",
                       lambda: float(self.config.partition))
        registry.gauge("host.server.cpu_s",
                       lambda: self.machine.cpu_time_consumed)
        # Per-zone throughput: the ZCAV breakdown of §5.1, computed from
        # the always-on byte counters the drive keeps.
        for index in range(len(drive.geometry.zones)):
            registry.gauge(
                f"disk.zone{index}.bytes_read",
                lambda z=index: float(drive.stats.bytes_by_zone.get(z, 0)))
            registry.gauge(
                f"disk.zone{index}.mb_s",
                lambda z=index: (
                    drive.stats.bytes_by_zone.get(z, 0) / sim.now / 1e6
                    if sim.now > 0 else 0.0))

    def flush_caches(self) -> None:
        """The §4.3.1 cache-defeat protocol, in one call."""
        self.cache.flush()
        self.drive.flush_cache()

    def run(self, processes) -> Optional[dict]:
        """Run the simulator until its queue is empty; return the metrics.

        Every one of ``processes`` must have finished: a process error
        is re-raised, and a process still waiting when the queue drained
        is an error.  The run's metrics-registry snapshot is returned
        (``None`` with metrics off), and the testbed's observability is
        folded into the active obs session, if any.
        """
        self.sim.run()
        for process in processes:
            if process.error is not None:
                raise process.error
            if not process.finished:
                raise RuntimeError(f"{process.name} never finished")
        if not self.obs.enabled:
            return None
        metrics = (self.obs.registry.snapshot()
                   if self.obs.registry.enabled else None)
        session = active_session()
        if session is not None:
            session.record(self.obs)
        return metrics


class NfsTestbed(LocalTestbed):
    """The full path: client machine(s), gigabit switch, NFS server.

    With ``num_clients > 1``, each client gets its own machine, NIC,
    transport endpoints, and mount; they all talk to the one server,
    whose single NIC (and PCI bus) carries every reply — the shared
    bottlenecks are physical, as on the real switch.
    """

    def __init__(self, config: TestbedConfig):
        super().__init__(config)
        if config.num_clients < 1:
            raise ValueError("need at least one client")
        sim = self.sim

        # The server's one transmit NIC; its PCI bus is shared with the
        # disk (§4.1).
        self.server_tx = Link(sim, GIGABIT, bus=self.server_pci,
                              name="server-tx")
        heuristic: Heuristic = make_heuristic(
            config.server_heuristic, **config.heuristic_options)
        self.server: Optional[NfsServer] = None

        self.capture = None
        if config.capture_trace:
            from ..replay.capture import TraceCapture
            self.capture = TraceCapture(
                block_size=config.rsize, seed=config.seed,
                clients=config.num_clients,
                config={"drive": config.drive,
                        "partition": config.partition,
                        "transport": config.transport,
                        "server_heuristic": config.server_heuristic,
                        "nfsheur": (config.nfsheur
                                    if isinstance(config.nfsheur, str)
                                    else "custom")})

        self.client_machines: List[Machine] = []
        self.mounts: List[NfsMount] = []
        self.rpc_clients: List[RpcClient] = []
        self.rpc_servers: List[RpcServer] = []
        #: Every transport endpoint built, for post-run fault accounting
        #: (UDP datagram losses, TCP segment retransmits).
        self.transport_endpoints: list = []
        server_faults = (self.fault_plan.server_injector()
                         if self.fault_plan else None)
        for index in range(config.num_clients):
            machine = Machine(
                sim, f"client{index}",
                rng=self.streams.stream(f"client-cpu{index}"),
                busy_processes=config.client_busy_loops)
            client_tx = Link(sim, GIGABIT, name=f"client{index}-tx")
            rpc_client, rpc_server = self._make_channel(
                config, index, client_tx)
            if self.server is None:
                self.server = NfsServer(
                    sim, self.machine, self.fs, rpc_server,
                    heuristic=heuristic,
                    config=NfsServerConfig(
                        nfsheur_params=config.nfsheur_params(),
                        record_trace=config.record_server_trace,
                        metadata_journal=config.metadata_journal,
                        meta_ack_before_intent=(
                            config.meta_ack_before_intent)),
                    faults=server_faults)
            else:
                self.server.attach_transport(rpc_server)
            mount = NfsMount(
                sim, machine, rpc_client,
                config=NfsMountConfig(
                    transport=config.transport,
                    read_size=config.rsize,
                    verifier_recovery=config.mount_verifier_recovery,
                    acregmin=config.acregmin,
                    acregmax=config.acregmax,
                    acdirmin=config.acdirmin,
                    acdirmax=config.acdirmax,
                    readdir_count=config.readdir_count),
                name=f"mnt{index}",
                capture=self.capture, client_index=index)
            #: Staleness ground truth for the attr-cache trap detector:
            #: pure bookkeeping against server state, so wiring it
            #: unconditionally cannot perturb timing.
            mount.attr_oracle = self._attr_oracle
            self.client_machines.append(machine)
            self.mounts.append(mount)
            self.rpc_clients.append(rpc_client)
            self.rpc_servers.append(rpc_server)

        # Single-client conveniences (the common case).
        self.client_machine = self.client_machines[0]
        self.mount = self.mounts[0]
        self._register_nfs_gauges()

    def _register_nfs_gauges(self) -> None:
        """NFS-path gauges: daemon pools plus the fault counters that
        :mod:`repro.faults` and the transports already keep."""
        registry = self.obs.registry
        if not registry.enabled:
            return
        server = self.server
        mounts, rpc_clients = self.mounts, self.rpc_clients
        rpc_servers, endpoints = self.rpc_servers, self.transport_endpoints
        registry.gauge("nfs.server.nfsd_busy",
                       lambda: float(server.nfsds.in_use))
        registry.gauge("nfs.server.nfsd_queued",
                       lambda: float(server.nfsds.queued))
        registry.gauge("nfs.server.mean_seqcount",
                       lambda: server.stats.mean_seqcount)
        # nfsheur table health (§6.3): the eviction-thrash detector
        # reads these to spot hit-rate collapse against table size.
        heur = server.nfsheur
        registry.gauge("nfs.server.nfsheur_lookups",
                       lambda: float(heur.stats.lookups))
        registry.gauge("nfs.server.nfsheur_hit_rate",
                       lambda: heur.stats.hit_rate)
        registry.gauge("nfs.server.nfsheur_ejections",
                       lambda: float(heur.stats.ejections))
        registry.gauge("nfs.server.nfsheur_table_size",
                       lambda: float(heur.params.table_size))
        registry.gauge("nfs.server.nfsheur_occupancy",
                       lambda: float(heur.occupancy))
        registry.gauge(
            "nfs.client.nfsiod_busy",
            lambda: float(sum(m.nfsiods.in_use for m in mounts)))
        registry.gauge(
            "rpc.client.retransmits",
            lambda: float(sum(c.retransmitted for c in rpc_clients)))
        registry.gauge(
            "rpc.client.timeouts",
            lambda: float(sum(c.timeouts for c in rpc_clients)))
        registry.gauge(
            "rpc.server.dupreq_hits",
            lambda: float(sum(s.dupreq_hits for s in rpc_servers)))
        registry.gauge(
            "rpc.server.dupreq_evictions",
            lambda: float(sum(s.dupreq_evictions for s in rpc_servers)))
        registry.gauge(
            "nfs.server.boot_epoch",
            lambda: float(server.boot_epoch))
        registry.gauge(
            "nfs.client.verifier_resends",
            lambda: float(sum(m.stats.verifier_resends for m in mounts)))
        registry.gauge(
            "net.udp.datagrams_lost",
            lambda: float(sum(getattr(ep, "datagrams_lost", 0)
                              for ep in endpoints)))
        registry.gauge(
            "net.tcp.segment_retransmits",
            lambda: float(sum(getattr(ep, "retransmits", 0)
                              for ep in endpoints)))
        # Namespace path: the metadata-trap detectors' evidence base.
        config = self.config
        for stat_name in ("path_walks", "path_components", "lookup_rpcs",
                          "lookup_cache_hits", "attr_hits", "attr_misses",
                          "attr_checks", "stale_attr_hits", "cto_getattrs",
                          "readdir_listings", "readdir_rpcs",
                          "readdir_entries", "readdir_restarts"):
            registry.gauge(
                f"nfs.client.{stat_name}",
                lambda s=stat_name: float(sum(
                    getattr(m.stats, s) for m in mounts)))
        for stat_name in ("lookups", "lookup_misses", "readdirs",
                          "readdir_entries", "creates", "mkdirs",
                          "removes", "renames", "setattrs",
                          "stale_handles", "bad_cookies"):
            registry.gauge(
                f"nfs.server.{stat_name}",
                lambda s=stat_name: float(getattr(server.stats, s)))
        # Static mount configuration the detectors cite as settings.
        registry.gauge("nfs.mount.acregmax", lambda: config.acregmax)
        registry.gauge("nfs.mount.acdirmax", lambda: config.acdirmax)
        registry.gauge("nfs.mount.readdir_count",
                       lambda: float(config.readdir_count))
        # The client always applies close-to-open consistency.
        registry.gauge("nfs.mount.close_to_open", lambda: 1.0)

    def _attr_oracle(self, fh, attrs) -> bool:
        """True when cached attributes disagree with server truth.

        Called by mounts on every attr-cache hit; reads server state
        only (no events, no RNG), preserving the no-perturbation
        invariant.
        """
        node = self.server._by_fh.get(fh)
        if node is None:
            return True     # the file is gone; any cached attrs lie
        inode = node.inode if isinstance(node, Directory) else node
        return inode.mtime != attrs.mtime or inode.size != attrs.size

    def _rpc_policy(self, config: TestbedConfig, index: int,
                    needs_timer: bool) -> dict:
        """Retransmission keywords for one client's :class:`RpcClient`.

        Hard mounts retry forever (``max_retransmits=None``); soft
        mounts carry the ``retrans`` budget.  Jitter is enabled only on
        faulted runs, so the pre-existing lossy-network experiment keeps
        its exact timing.
        """
        if not needs_timer:
            return {}
        policy = {
            "retransmit_timeout": MOUNT_TIMEO,
            "max_retransmits": MOUNT_RETRANS if config.mount_soft else None,
        }
        if self.fault_plan is not None:
            policy["jitter"] = 0.1
            policy["rng"] = self.streams.stream(f"rpc-jitter{index}")
        return policy

    def _make_channel(self, config: TestbedConfig, index: int,
                      client_tx: Link):
        sim = self.sim
        plan = self.fault_plan
        faulted = plan is not None
        if config.transport == "udp":
            client_ep = UdpEndpoint(
                sim, client_tx, loss_rate=config.loss_rate,
                rng=self.streams.stream(f"udp-up{index}"),
                faults=(plan.network_injector(f"up{index}")
                        if faulted else None),
                name=f"udp-client{index}")
            server_ep = UdpEndpoint(
                sim, self.server_tx, loss_rate=config.loss_rate,
                rng=self.streams.stream(f"udp-down{index}"),
                faults=(plan.network_injector(f"down{index}")
                        if faulted else None),
                name=f"udp-server{index}")
            client_ep.connect(server_ep)
            server_ep.connect(client_ep)
            self.transport_endpoints += [client_ep, server_ep]
            rpc_client = RpcClient(
                sim, client_ep, client_ep,
                name=f"client{index}",
                **self._rpc_policy(config, index,
                                   bool(config.loss_rate) or faulted))
            rpc_server = RpcServer(
                sim, server_ep, server_ep,
                dupreq_cache_size=config.dupreq_cache_size,
                track_duplicates=faulted)
        elif config.transport == "tcp":
            up = TcpConnection(
                sim, client_tx, loss_rate=config.loss_rate,
                rng=self.streams.stream(f"tcp-up{index}"),
                faults=(plan.network_injector(f"up{index}")
                        if faulted else None),
                name=f"tcp-up{index}")
            down = TcpConnection(
                sim, self.server_tx, loss_rate=config.loss_rate,
                rng=self.streams.stream(f"tcp-down{index}"),
                faults=(plan.network_injector(f"down{index}")
                        if faulted else None),
                name=f"tcp-down{index}")
            self.transport_endpoints += [up, down]
            # TCP needs no RPC timer for plain segment loss (the stream
            # recovers), but only retransmission survives a crashed or
            # partitioned server — so faulted runs arm it.
            rpc_client = RpcClient(
                sim, up, down, name=f"client{index}",
                **self._rpc_policy(config, index, faulted))
            rpc_server = RpcServer(
                sim, up, down,
                dupreq_cache_size=config.dupreq_cache_size,
                track_duplicates=faulted)
        else:
            raise ValueError(f"unknown transport {config.transport!r}")
        return rpc_client, rpc_server

    def mount_for(self, index: int) -> NfsMount:
        """The mount a given reader index should use (round-robin)."""
        return self.mounts[index % len(self.mounts)]

    def capture_trace_file(self):
        """Freeze the run's capture into a self-describing trace file.

        Returns ``None`` unless the testbed was built with
        ``capture_trace=True``; call after :meth:`Simulator.run` so the
        trace covers the whole run and the exported fileset is final.
        """
        if self.capture is None:
            return None
        return self.capture.trace_file(self.server.exported_files())

    def flush_caches(self) -> None:
        super().flush_caches()
        for mount in self.mounts:
            mount.flush_cache()


def build_local_testbed(config: TestbedConfig) -> LocalTestbed:
    return LocalTestbed(config)


def build_nfs_testbed(config: TestbedConfig) -> NfsTestbed:
    return NfsTestbed(config)

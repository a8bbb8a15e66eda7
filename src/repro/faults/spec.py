"""Declarative fault specifications.

A :class:`FaultSpec` names every fault a run should experience — which
layer, which failure mode, how often — without touching any RNG.  The
:class:`~repro.faults.plan.FaultPlan` pairs a spec with seeded random
streams (one per injector, following the repository's common-random-
numbers discipline) so that a faulted run is exactly as reproducible as
a fault-free one.

All specs are frozen dataclasses so they can sit inside the (frozen)
:class:`~repro.host.testbed.TestbedConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class NetworkFaults:
    """Per-direction link pathology.

    Frame loss follows a Gilbert–Elliott two-state chain: frames are
    lost with probability ``loss_good`` in the good state and
    ``loss_bad`` in the bad state; the chain enters the bad state with
    per-frame probability ``p_enter_bad`` and leaves it with
    ``p_exit_bad`` (mean burst length ``1/p_exit_bad`` frames).  This
    subsumes the i.i.d. model (set ``p_enter_bad = 0`` and
    ``loss_good > 0``) while modelling the bursty loss of the paper's
    §2 wireless scenario.

    ``corrupt_rate`` is a per-frame bit-corruption probability — a
    corrupted frame fails its checksum and is discarded, which for UDP
    costs the whole datagram (§5.4's all-or-nothing trap) and for TCP
    costs one segment retransmission.

    ``duplicate_rate`` delivers a datagram twice (switch flooding,
    retransmit races) — the hazard the server's duplicate-request cache
    exists to absorb.

    ``partitions`` is a tuple of ``(start, duration)`` windows of
    simulated seconds during which the link carries nothing at all.

    ``burst_windows`` is a tuple of ``(start, duration, loss)`` windows:
    while one is open, every frame is additionally lost with
    probability ``loss`` — a *scheduled* loss burst (microwave oven,
    flapping switch port) as opposed to the chain's stochastic ones.
    The chaos schedule fuzzer composes its loss-burst events from
    these.
    """

    p_enter_bad: float = 0.0
    p_exit_bad: float = 0.25
    loss_good: float = 0.0
    loss_bad: float = 0.5
    corrupt_rate: float = 0.0
    duplicate_rate: float = 0.0
    partitions: Tuple[Tuple[float, float], ...] = ()
    burst_windows: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self):
        for name in ("p_enter_bad", "loss_good", "loss_bad",
                     "corrupt_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.p_exit_bad <= 1.0:
            raise ValueError("p_exit_bad must be in (0, 1]")
        for start, duration in self.partitions:
            if start < 0 or duration <= 0:
                raise ValueError("partition windows need start >= 0 "
                                 "and duration > 0")
        for start, duration, loss in self.burst_windows:
            if start < 0 or duration <= 0:
                raise ValueError("burst windows need start >= 0 "
                                 "and duration > 0")
            if not 0.0 < loss <= 1.0:
                raise ValueError("burst loss must be in (0, 1]")

    @property
    def mean_loss(self) -> float:
        """Stationary per-frame loss probability of the chain."""
        denominator = self.p_enter_bad + self.p_exit_bad
        pi_bad = self.p_enter_bad / denominator if denominator else 0.0
        return pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good

    @staticmethod
    def from_mean_loss(mean_loss: float, burst_frames: float = 4.0,
                       loss_bad: float = 0.5, **kwargs) -> "NetworkFaults":
        """Build a bursty chain with a target stationary loss rate.

        ``burst_frames`` is the mean bad-state sojourn in frames;
        ``loss_bad`` the in-burst loss probability.  The good state is
        lossless, so the entire loss budget arrives in bursts.
        """
        if not 0.0 <= mean_loss < loss_bad:
            raise ValueError(
                f"mean_loss must be in [0, {loss_bad}), got {mean_loss}")
        p_exit = 1.0 / burst_frames
        if mean_loss == 0.0:
            return NetworkFaults(p_exit_bad=p_exit, loss_bad=loss_bad,
                                 **kwargs)
        pi_bad = mean_loss / loss_bad
        p_enter = p_exit * pi_bad / (1.0 - pi_bad)
        return NetworkFaults(p_enter_bad=p_enter, p_exit_bad=p_exit,
                             loss_bad=loss_bad, **kwargs)


@dataclass(frozen=True)
class DiskFaults:
    """Drive-level pathology.

    * ``media_error_rate`` — per media read, probability that the drive
      needs recovery (ECC retries over several revolutions) before the
      sector comes back; costs ``media_retry_time``.
    * ``command_timeout_rate`` — per command, probability the command is
      lost inside the drive and the host's SCSI/ATA timer must expire
      and re-issue it; costs ``command_timeout_penalty``.
    * ``reset_interval`` — if positive, the drive resets roughly every
      so many simulated seconds (the classic response to a wedged
      firmware): the tagged queue is dropped and re-issued by the host,
      the prefetch cache is lost, and service pauses for
      ``reset_latency``.
    """

    media_error_rate: float = 0.0
    media_retry_time: float = 0.015
    command_timeout_rate: float = 0.0
    command_timeout_penalty: float = 0.25
    reset_interval: float = 0.0
    reset_latency: float = 1.0

    def __post_init__(self):
        for name in ("media_error_rate", "command_timeout_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("media_retry_time", "command_timeout_penalty",
                     "reset_interval", "reset_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")


@dataclass(frozen=True)
class ServerFaults:
    """nfsd pathology.

    * ``crash_times`` — absolute simulated times at which the server
      crashes and reboots: every request arriving within
      ``restart_delay`` of a crash is silently dropped (clients recover
      by RPC retransmission, exactly as against a real rebooting NFS
      server) and the server's buffer cache comes back cold.
    * ``stall_times`` — times at which all nfsds stop making progress
      for ``stall_duration`` (lock convoy, paging storm): requests are
      not lost, only delayed.
    """

    crash_times: Tuple[float, ...] = ()
    restart_delay: float = 2.0
    stall_times: Tuple[float, ...] = ()
    stall_duration: float = 0.5

    def __post_init__(self):
        if self.restart_delay < 0 or self.stall_duration < 0:
            raise ValueError("delays cannot be negative")
        for when in tuple(self.crash_times) + tuple(self.stall_times):
            if when < 0:
                raise ValueError("fault times cannot be negative")


@dataclass(frozen=True)
class FaultSpec:
    """Everything that should go wrong in one run, by layer.

    ``None`` for a layer means that layer runs clean.  The same spec
    object produces the same faults under the same master seed — see
    :class:`~repro.faults.plan.FaultPlan`.
    """

    network: Optional[NetworkFaults] = None
    disk: Optional[DiskFaults] = None
    server: Optional[ServerFaults] = None

    @property
    def any_faults(self) -> bool:
        return (self.network is not None or self.disk is not None
                or self.server is not None)

"""Figure 3: disk scheduler fairness — per-process completion times.

Eight processes each read a 32 MB file concurrently; the plot is the
mean time for the k-th process to finish.  Expected shapes (§5.3):

* elevator (``bufqdisksort``): a staircase — the last process takes
  6–7x longer than the first, because a reader streaming at the head
  position keeps inserting into the current sweep;
* N-CSCAN: nearly flat (spread < 20 %) but all processes much slower —
  aggregate throughput less than half the elevator's;
* tagged queues (firmware scheduling): flat as well, with the worst
  aggregate throughput of the three.
"""

from __future__ import annotations

from ..host.testbed import TestbedConfig
from ..stats import SeriesSet
from .common import completion_distribution
from .registry import Claim, register


@register(
    id="fig3",
    title="Elevator vs N-CSCAN: completion-time distribution",
    paper_claim=("Elevator: staircase, last job 6-7x the first. "
                 "N-CSCAN: flat distribution but all jobs much slower. "
                 "Firmware (tags): fairer than N-CSCAN, worst "
                 "throughput."),
    claims=[
        Claim("fig3/elevator-staircase",
              "elevator: ide1's last of 8 readers takes over 4x its first",
              lambda f: f["fig3"].mean("ide1/elevator", 8)
              / f["fig3"].mean("ide1/elevator", 1) > 4.0),
        Claim("fig3/ncscan-is-fair",
              "N-CSCAN: ide1's last of 8 readers takes under 1.25x its first",
              lambda f: f["fig3"].mean("ide1/n-cscan", 8)
              / f["fig3"].mean("ide1/n-cscan", 1) < 1.25),
        Claim("fig3/fairness-costs-throughput",
              "ide1's last reader is 1.5x later with N-CSCAN than elevator",
              lambda f: f["fig3"].mean("ide1/n-cscan", 8)
              > 1.5 * f["fig3"].mean("ide1/elevator", 8)),
        Claim("fig3/firmware-fair-but-slowest",
              "tags: scsi1's last reader under 2x its first, after no-tags'",
              lambda f: f["fig3"].mean("scsi1/elevator/tags", 8)
              / f["fig3"].mean("scsi1/elevator/tags", 1) < 2.0
              and f["fig3"].mean("scsi1/elevator/tags", 8)
              > f["fig3"].mean("scsi1/elevator/no-tags", 8)),
    ])
def run(scale: float = 0.125, runs: int = 3, seed: int = 0) -> SeriesSet:
    configs = [
        ("ide1/elevator", TestbedConfig(drive="ide", partition=1,
                                        bufq_policy="elevator")),
        ("scsi1/elevator/no-tags", TestbedConfig(
            drive="scsi", partition=1, bufq_policy="elevator",
            tagged_queueing=False)),
        ("ide1/n-cscan", TestbedConfig(drive="ide", partition=1,
                                       bufq_policy="n-cscan")),
        ("scsi1/n-cscan/no-tags", TestbedConfig(
            drive="scsi", partition=1, bufq_policy="n-cscan",
            tagged_queueing=False)),
        ("scsi1/elevator/tags", TestbedConfig(
            drive="scsi", partition=1, bufq_policy="elevator",
            tagged_queueing=True)),
        ("scsi1/n-cscan/tags", TestbedConfig(
            drive="scsi", partition=1, bufq_policy="n-cscan",
            tagged_queueing=True)),
    ]
    return completion_distribution(
        "Figure 3: scheduler fairness (8 concurrent readers)",
        configs, nreaders=8, scale=scale, runs=runs, seed=seed)

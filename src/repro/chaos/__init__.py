"""Chaos engine: seeded fault schedules, correctness oracles, shrinking
repro bundles.

The paper's benchmarking traps are about *performance* under
misconfiguration; this package asks the complementary robustness
question the paper's §5.4 soft-mount warning gestures at — does the
simulated NFS stack stay *correct* under crashes, stalls, partitions,
and loss bursts?  See DESIGN.md §10 for the architecture.
"""

from .bundle import (BundleError, ReplayOutcome, bundle_dict,
                     config_from_bundle, read_bundle, replay_bundle,
                     write_bundle)
from .engine import (CampaignRun, ChaosResult, LIVENESS_GRACE,
                     run_campaign, run_chaos)
from .metadata import (MetadataWorkload, MetaOpsJournal, MixedWorkload,
                       metadata_verifier, metadata_worker,
                       workload_from_jsonable)
from .oracles import (METADATA_ORACLE_NAMES, MetadataOracleInputs,
                      ORACLE_NAMES, OracleInputs, OracleResult,
                      evaluate_metadata_oracles, evaluate_oracles,
                      failed_oracle_names, liveness_oracle)
from .schedule import (ChaosSchedule, FAULT_KINDS, FaultEvent,
                       ScheduleFuzzer)
from .shrink import ShrinkResult, shrink
from .workload import (ChaosJournal, ChaosWorkload, chaos_verifier,
                       chaos_worker)

__all__ = [
    "BundleError", "CampaignRun", "ChaosJournal", "ChaosResult",
    "ChaosSchedule",
    "ChaosWorkload", "FAULT_KINDS", "FaultEvent", "LIVENESS_GRACE",
    "METADATA_ORACLE_NAMES", "MetaOpsJournal", "MetadataOracleInputs",
    "MetadataWorkload", "MixedWorkload",
    "ORACLE_NAMES", "OracleInputs", "OracleResult", "ReplayOutcome",
    "ScheduleFuzzer", "ShrinkResult", "bundle_dict",
    "chaos_verifier", "chaos_worker", "config_from_bundle",
    "evaluate_metadata_oracles",
    "evaluate_oracles", "failed_oracle_names", "liveness_oracle",
    "metadata_verifier",
    "metadata_worker", "read_bundle",
    "replay_bundle", "run_campaign", "run_chaos", "shrink",
    "workload_from_jsonable", "write_bundle",
]

"""Fleet-scale campaign orchestrator: checkpointed shards, worker-failure
recovery, resumable chaos and bench campaigns.

The paper's central warning is that results are only as trustworthy as
the harness that produced them.  This package is the harness for runs
too large for one process group: it shards thousands of
``(seed, config, workload)`` cells across worker processes, commits
every completed cell to a crash-safe JSONL journal *before*
acknowledging it, recovers from worker crashes, timeouts, and its own
death (``--resume``), and accounts for coverage explicitly — done,
retried, timed out, abandoned — instead of silently dropping cells.
See DESIGN.md §11.
"""

from .cells import (CampaignSpec, SPEC_VERSION, chaos_cell,
                    namespace_point, run_bench_cell, run_chaos_cell,
                    run_spec_cell)
from .drivers import (CampaignIncomplete, bench_results, bench_spec,
                      chaos_spec, complete_results, fold_bench,
                      fold_chaos, run_bench_campaign,
                      run_chaos_campaign, run_spec_campaign,
                      shrink_and_bundle)
from .journal import (CampaignJournal, JournalError, LoadedJournal,
                      atomic_write_text, fold_records)
from .orchestrator import (CampaignOptions, CampaignOutcome,
                           CellOutcome, Orchestrator, run_sharded)
from .report import cells_csv, fold_json, report_html, write_report

__all__ = [
    "CampaignIncomplete", "CampaignJournal", "CampaignOptions",
    "CampaignOutcome", "CampaignSpec", "CellOutcome", "JournalError",
    "LoadedJournal", "Orchestrator", "SPEC_VERSION",
    "atomic_write_text", "bench_results", "bench_spec", "cells_csv",
    "chaos_cell", "chaos_spec", "complete_results", "fold_bench",
    "fold_chaos", "fold_json", "fold_records", "namespace_point",
    "report_html", "run_bench_campaign",
    "run_bench_cell", "run_chaos_campaign", "run_chaos_cell",
    "run_sharded", "run_spec_campaign", "run_spec_cell",
    "shrink_and_bundle", "write_report",
]

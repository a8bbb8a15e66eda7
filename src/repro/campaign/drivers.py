"""Campaign drivers: bench and chaos campaigns end to end.

These functions connect the generic orchestrator to the two verb-level
folds the repository already speaks.  Every verb gets a spec's cells
from :func:`run_spec_campaign`, in this process or sharded:

* :func:`run_bench_campaign` — runs seeded benchmark repeats and
  folds them with :func:`fold_bench` into the record `bench` prints,
  then optionally streams the record into the bench history store;
* :func:`run_chaos_campaign` — runs fuzzed schedules, dedupes
  failures by their SHA-256 run fingerprint (a 100k-schedule campaign
  typically rediscovers the same bug thousands of times), and shrinks
  + bundles one representative per distinct fingerprint.

Both return ``(record, outcome)``: ``record`` is the deterministic
fold, ``outcome`` carries the coverage accounting.
"""

from __future__ import annotations

import functools
import os
import tempfile
from dataclasses import replace
from typing import Callable, List, Optional, Tuple

from .cells import CampaignSpec, chaos_cell, run_spec_cell
from .orchestrator import (CampaignOptions, CampaignOutcome,
                           run_in_process, run_sharded)


class CampaignIncomplete(RuntimeError):
    """A campaign whose fold is demanded but whose cells are not all done."""

    def __init__(self, outcome: CampaignOutcome, what: str):
        self.outcome = outcome
        coverage = outcome.coverage
        missing = [o for o in outcome.outcomes if o.status != "done"]
        reasons = "; ".join(
            f"cell {o.index}: {o.reason}" for o in missing[:3])
        super().__init__(
            f"{what}: {coverage['done']}/{coverage['cells']} cells done "
            f"({coverage['abandoned']} abandoned, "
            f"{coverage['not_run']} not run) — {reasons}")


def _spec_header(spec: CampaignSpec) -> dict:
    return {"campaign": spec.to_jsonable(),
            "fingerprint": spec.fingerprint()}


def run_spec_campaign(spec: CampaignSpec,
                      journal_path: Optional[str] = None,
                      options: Optional[CampaignOptions] = None,
                      resume: bool = False,
                      progress: Optional[Callable[[dict], None]] = None
                      ) -> CampaignOutcome:
    """Run (or resume) a JSON-spec campaign: every verb's cells.

    With one worker (``min(options.workers, spec.cells)``), no journal
    and every other option at its default, the cells run in this
    process; otherwise :func:`run_sharded` runs them over the journal,
    a temporary one if none is given, and its workers enforce the
    options.  Cells are pure in (spec, index): both give one fold.
    """
    options = options or CampaignOptions()
    options = replace(options, workers=min(options.workers, spec.cells))
    runner = functools.partial(run_spec_cell, spec.to_jsonable())
    if journal_path is None and options == CampaignOptions(workers=1):
        return run_in_process(runner, spec.cells, progress)
    if journal_path is None:
        with tempfile.TemporaryDirectory(prefix="campaign-") as tmp:
            return run_spec_campaign(
                spec, os.path.join(tmp, "journal.jsonl"), options,
                resume, progress)
    return run_sharded(runner, spec.cells, journal_path,
                       _spec_header(spec), options=options,
                       resume=resume, progress=progress)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench_spec(runs: int, *, drive: str = "ide", partition: int = 1,
               transport: str = "udp", heuristic: str = "default",
               nfsheur: str = "default", readers: int = 4,
               scale: float = 0.125, seed: int = 0,
               workload: Optional[str] = None, pattern: str = "stat",
               files: int = 10_000, tree_depth: int = 0,
               fanout: int = 32, ops: int = 1_000,
               clients: int = 1) -> CampaignSpec:
    """One `bench` point as a campaign of ``runs`` cells; the
    ``pattern`` .. ``clients`` arguments shape a ``namespace``
    ``workload`` and are ignored otherwise."""
    params = {
        "drive": drive, "partition": partition, "transport": transport,
        "server_heuristic": heuristic, "nfsheur": nfsheur,
        "readers": readers, "scale": scale, "seed": seed}
    if workload == "namespace":
        params.update({"workload": "namespace", "pattern": pattern,
                       "files": files, "tree_depth": tree_depth,
                       "fanout": fanout, "ops": ops,
                       "num_clients": clients})
    return CampaignSpec(kind="bench", cells=runs, params=params)


def complete_results(outcome: CampaignOutcome, what: str) -> List[dict]:
    """The per-cell results of a campaign in cell order; raises
    :class:`CampaignIncomplete` if any cell is not done."""
    if not outcome.complete:
        raise CampaignIncomplete(outcome, what)
    return outcome.fold()


def fold_bench(spec: CampaignSpec, results: List[dict]) -> dict:
    """The one `bench` record of a bench spec's per-cell results: the
    same at every ``--jobs``, with or without a journal.

    Namespace-workload specs fold ``ops_per_s`` instead of throughput.
    """
    from ..stats import summarize
    params = spec.params
    namespace = params.get("workload") == "namespace"
    metric = "ops_per_s" if namespace else "throughput_mb_s"
    values = [result[metric] for result in results]
    summary = summarize(values)
    record = {"verb": "bench", "drive": params["drive"],
              "partition": params["partition"],
              "transport": params["transport"],
              "heuristic": params["server_heuristic"],
              "nfsheur": params["nfsheur"],
              "seed": params["seed"], "runs": spec.cells}
    if namespace:
        record.update({
            "workload": "namespace", "pattern": params["pattern"],
            "files": params["files"],
            "tree_depth": params["tree_depth"],
            "fanout": params["fanout"], "ops": params["ops"],
            "clients": params["num_clients"],
            "ops_per_s": values,
            "mean_ops_s": summary.mean, "std_ops_s": summary.std})
    else:
        record.update({
            "readers": params["readers"], "scale": params["scale"],
            "throughputs_mb_s": values,
            "mean_mb_s": summary.mean, "std_mb_s": summary.std})
    return record


def run_bench_campaign(spec: CampaignSpec,
                       journal_path: Optional[str] = None,
                       options: Optional[CampaignOptions] = None,
                       resume: bool = False,
                       progress=None,
                       history: Optional[str] = None
                       ) -> Tuple[dict, CampaignOutcome]:
    outcome = run_spec_campaign(spec, journal_path, options=options,
                                resume=resume, progress=progress)
    record = fold_bench(spec, complete_results(outcome, "bench campaign"))
    if history is not None:
        from ..diagnose import append_history
        append_history(history, record)
    return record, outcome


# ---------------------------------------------------------------------------
# chaos
# ---------------------------------------------------------------------------

def chaos_spec(budget: int, *, transport: str = "udp",
               heuristic: str = "default", nfsheur: str = "default",
               clients: int = 2, horizon: float = 20.0,
               max_events: int = 4, recovery: bool = True,
               seed: int = 0, workload: str = "write",
               metadata_journal: bool = True,
               ack_before_intent: bool = False) -> CampaignSpec:
    """A chaos campaign; ``workload`` is a `chaos fuzz --workload`
    kind: ``write``, ``metadata`` or ``mixed``."""
    params = {"transport": transport, "server_heuristic": heuristic,
              "nfsheur": nfsheur, "num_clients": clients,
              "horizon": horizon, "max_events": max_events,
              "mount_verifier_recovery": recovery, "seed": seed}
    # The write workload stays implicit, so a pre-metadata spec (and
    # its journal fingerprint) is unchanged.
    if workload != "write":
        from ..chaos import MetadataWorkload, MixedWorkload
        kinds = {"metadata": MetadataWorkload, "mixed": MixedWorkload}
        params["workload"] = kinds[workload]().to_jsonable()
    if not metadata_journal:
        params["metadata_journal"] = False
    if ack_before_intent:
        params["meta_ack_before_intent"] = True
    return CampaignSpec(kind="chaos", cells=budget, params=params)


def fold_chaos(spec: CampaignSpec, outcome: CampaignOutcome,
               occurrence_cap: int = 20) -> dict:
    """Fold a chaos campaign: failures deduped by run fingerprint.

    Partial campaigns fold too — coverage accounting says what is
    missing — but only cells that actually ran contribute, so a
    failure can never be silently *invented*; one can only be missed,
    and the accounting says exactly how many cells were not judged.
    """
    params = spec.params
    failures: dict = {}
    judged = 0
    for cell in outcome.outcomes:
        if cell.status != "done":
            continue
        judged += 1
        result = cell.result
        if result["ok"]:
            continue
        entry = failures.setdefault(result["fingerprint"], {
            "fingerprint": result["fingerprint"],
            "failed_oracles": list(result["failed_oracles"]),
            "first_index": cell.index,
            "occurrences": 0,
            "indices": []})
        entry["occurrences"] += 1
        if len(entry["indices"]) < occurrence_cap:
            entry["indices"].append(cell.index)
    distinct = [failures[f] for f in sorted(
        failures, key=lambda f: failures[f]["first_index"])]
    return {"verb": "chaos-campaign", "budget": spec.cells,
            "seed": params["seed"], "transport": params["transport"],
            "heuristic": params["server_heuristic"],
            "nfsheur": params["nfsheur"],
            "clients": params["num_clients"],
            "horizon": params["horizon"],
            "max_events": params["max_events"],
            "recovery": params["mount_verifier_recovery"],
            "workload": params.get("workload", {}).get("kind", "write"),
            "ack_before_intent": params.get("meta_ack_before_intent",
                                            False),
            "runs": judged,
            "failing_cells": sum(f["occurrences"] for f in distinct),
            "distinct_failures": distinct,
            "ok": not distinct}


def shrink_and_bundle(spec: CampaignSpec, record: dict,
                      bundle_dir: str, shrink_runs: int = 48,
                      progress=None) -> None:
    """Shrink + bundle one representative per distinct fingerprint:
    its first cell, to a schedule that still fails its first oracle.

    Mutates ``record``'s failure entries in place with the shrink and
    bundle details (this part is post-fold reporting, not the fold).
    """
    from ..chaos import run_chaos, shrink, write_bundle
    os.makedirs(bundle_dir, exist_ok=True)
    for entry in record["distinct_failures"]:
        index = entry["first_index"]
        config, schedule, workload = chaos_cell(spec, index)
        shrunk = shrink(config, schedule, entry["failed_oracles"][0],
                        workload=workload, max_runs=shrink_runs)
        path = os.path.join(bundle_dir, f"chaos-{index}.json")
        write_bundle(path, config, workload, shrunk.schedule,
                     run_chaos(config, shrunk.schedule, workload))
        entry.update({"shrunk_events": [event.to_jsonable() for event
                                        in shrunk.schedule.events],
                      "shrink_runs": shrunk.runs, "bundle": path})
        if progress is not None:
            progress({"event": "bundle", "cell": index,
                      "bundle": entry["bundle"],
                      "events": len(entry["shrunk_events"])})


def run_chaos_campaign(spec: CampaignSpec,
                       journal_path: Optional[str] = None,
                       options: Optional[CampaignOptions] = None,
                       resume: bool = False, progress=None,
                       bundle_dir: Optional[str] = None,
                       shrink_runs: int = 48
                       ) -> Tuple[dict, CampaignOutcome]:
    outcome = run_spec_campaign(spec, journal_path, options=options,
                                resume=resume, progress=progress)
    record = fold_chaos(spec, outcome)
    if bundle_dir is not None and record["distinct_failures"] \
            and outcome.complete:
        shrink_and_bundle(spec, record, bundle_dir,
                          shrink_runs=shrink_runs, progress=progress)
    return record, outcome

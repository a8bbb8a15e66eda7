"""Command-line entry point: regenerate any paper figure or table.

Examples::

    nfstricks list
    nfstricks fig1
    nfstricks table1 --runs 10 --scale 0.125
    python -m repro fig7 --runs 5 --seed 42
    python -m repro fig4 --trace out.json   # open out.json in Perfetto
    python -m repro fig1 --metrics          # per-layer metrics report
    python -m repro bench --readers 4 --runs 10 --jobs 4 --json \\
        --out BENCH.json --history
    python -m repro replay --capture t.jsonl --replay t.jsonl \\
        --target-transport tcp --target-heuristic cursor \\
        --target-nfsheur improved --clients 4
    python -m repro fig2 --trace t.json --metrics-out m.json
    python -m repro diagnose --trace t.json --metrics m.json

Five extra verbs ride next to the figure ids: ``bench`` (one
benchmark point, optionally parallel and machine-readable), ``replay``
(capture a run's vnode-boundary trace and/or replay a trace file
against an arbitrary testbed; see :mod:`repro.replay`), ``diagnose``
(critical-path attribution, benchmark-trap detection, and the
perf-regression gate over previously recorded artifacts; see
:mod:`repro.diagnose`), ``chaos`` (fault-schedule fuzzing judged
by correctness oracles, with shrinking repro bundles; see
:mod:`repro.chaos`), and ``campaign`` (fleet-scale sharded bench /
chaos campaigns with a checkpointed journal, worker-failure recovery,
``--resume``, and a CSV/HTML report directory; see
:mod:`repro.campaign`)::

    python -m repro chaos fuzz --budget 30 --seed 0 --json
    python -m repro chaos fuzz --budget 10000 --jobs 8 --json
    python -m repro chaos replay bundles/chaos-17.json
    python -m repro campaign chaos --budget 100000 --jobs 8 \\
        --journal campaigns/overnight/journal.jsonl --report reports/o1
    python -m repro campaign chaos --budget 100000 --jobs 8 \\
        --journal campaigns/overnight/journal.jsonl --resume
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from typing import List, Optional

from .experiments import all_experiments, get
from .host.testbed import PARTITIONS
from .obs import observe
from .readahead import HEURISTICS


def _checked(kind, accept, requirement: str):
    """An argparse ``type``: a ``kind`` value that ``accept`` holds for,
    else exit 2 with "must be <requirement>"."""
    def parse(text: str):
        value = kind(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text}")
        return value
    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = kind.__name__
    return parse


_positive_int = _checked(int, lambda value: value > 0, "positive")
_positive_float = _checked(float, lambda value: value > 0, "positive")
_non_negative_int = _checked(int, lambda value: value >= 0,
                             "non-negative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfstricks",
        description=("Reproduce figures and tables from 'NFS Tricks and "
                     "Benchmarking Traps' (USENIX 2003) in simulation."))
    parser.add_argument("experiment",
                        help="experiment id (fig1..fig8, table1, "
                             "xaged, xlossy, xmixed, xfaults, xreplay) "
                             "or 'list' / 'all'")
    parser.add_argument("--scale", type=_positive_float, default=0.125,
                        help="file-size scale factor; 1.0 is the paper's "
                             "256 MB working set (default: 0.125)")
    parser.add_argument("--runs", type=_positive_int, default=3,
                        help="runs per point (paper uses >=10; "
                             "default: 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default: 0)")
    parser.add_argument("--no-std", action="store_true",
                        help="print means only, no standard deviations")
    parser.add_argument("--plot", action="store_true",
                        help="also draw an ASCII chart of the figure")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record spans for every simulated request "
                             "and write Chrome trace_event JSON to FILE "
                             "(open with Perfetto / chrome://tracing)")
    parser.add_argument("--provenance", metavar="FILE", default=None,
                        help="record the causal provenance graph (op "
                             "lineage edges; implies span tracing) and "
                             "write it as JSONL to FILE; feed it to "
                             "'diagnose --slowest/--op'")
    parser.add_argument("--provenance-dot", metavar="FILE", default=None,
                        help="also write the provenance graph as a "
                             "Graphviz digraph to FILE (implies "
                             "--provenance collection)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect the per-layer metrics registry and "
                             "print a report after each experiment")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="also write the per-run metric snapshots "
                             "as JSON to FILE (implies metrics "
                             "collection; feed it to 'diagnose')")
    parser.add_argument("--detail-out", metavar="FILE", default=None,
                        help="write the experiment's per-run records "
                             "(raw counters behind the summarised "
                             "points, e.g. xfaults' retransmit and "
                             "recovery counts) as JSON to FILE")
    return parser


def _list_experiments() -> None:
    for experiment in all_experiments():
        print(f"{experiment.id:8s} {experiment.title}")
        print(f"{'':8s}   paper: {experiment.paper_claim}")


def _run_one(experiment_id: str, args) -> None:
    experiment = get(experiment_id)
    metrics_out = getattr(args, "metrics_out", None)
    provenance_out = getattr(args, "provenance", None)
    provenance_dot = getattr(args, "provenance_dot", None)
    started = time.time()
    with observe(trace=args.trace is not None,
                 metrics=args.metrics or metrics_out is not None,
                 provenance=(provenance_out is not None
                             or provenance_dot is not None)) as session:
        figure = experiment.run(scale=args.scale, runs=args.runs,
                                seed=args.seed)
    elapsed = time.time() - started
    print(figure.render(show_std=not args.no_std))
    if args.plot:
        from .stats import render_plot
        print()
        print(render_plot(figure))
    if args.metrics:
        print()
        print(session.metrics_report())
    if metrics_out is not None:
        with open(metrics_out, "w") as handle:
            handle.write(session.metrics_json())
        print(f"\nmetrics: {len(session.snapshots)} snapshots -> "
              f"{metrics_out}")
    if args.trace is not None:
        with open(args.trace, "w") as handle:
            handle.write(session.trace_json())
        print(f"\ntrace: {len(session.spans)} spans -> {args.trace} "
              f"(load in https://ui.perfetto.dev)")
    if provenance_out is not None:
        with open(provenance_out, "w") as handle:
            handle.write(session.provenance_jsonl())
        print(f"\nprovenance: {len(session.prov_records)} records -> "
              f"{provenance_out}")
    if provenance_dot is not None:
        with open(provenance_dot, "w") as handle:
            handle.write(session.provenance_dot())
        print(f"\nprovenance dot: -> {provenance_dot}")
    detail_out = getattr(args, "detail_out", None)
    if detail_out is not None:
        records = getattr(figure, "detail", [])
        with open(detail_out, "w") as handle:
            json.dump({"experiment": experiment.id,
                       "records": records}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\ndetail: {len(records)} per-run records -> "
              f"{detail_out}")
    print(f"\n[{experiment.id}] scale={args.scale} runs={args.runs} "
          f"seed={args.seed} wall={elapsed:.1f}s")
    print(f"paper claim: {experiment.paper_claim}")


def _add_testbed_flags(parser: argparse.ArgumentParser) -> None:
    """The testbed knobs shared by the ``bench`` and ``replay`` verbs."""
    parser.add_argument("--drive", choices=["ide", "scsi"], default="ide")
    parser.add_argument("--partition", type=int, choices=PARTITIONS,
                        default=1,
                        help="disk partition, 1 (outer) .. 4 (inner)")
    parser.add_argument("--transport", choices=["udp", "tcp"],
                        default="udp")
    parser.add_argument("--heuristic", choices=HEURISTICS,
                        default="default",
                        help="server read-ahead heuristic")
    parser.add_argument("--nfsheur", choices=["default", "improved"],
                        default="default")
    parser.add_argument("--seed", type=int, default=0)


def _build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfstricks bench",
        description="One NFS benchmark point (§4.3), repeated and "
                    "summarised; repeats optionally run in parallel.")
    _add_testbed_flags(parser)
    parser.add_argument("--readers", type=_positive_int, default=4,
                        help="concurrent sequential readers (default: 4)")
    parser.add_argument("--runs", type=_positive_int, default=3)
    parser.add_argument("--scale", type=_positive_float, default=0.125,
                        help="file-size scale factor (default: 0.125)")
    parser.add_argument("--workload", choices=["streaming", "namespace"],
                        default="streaming",
                        help="streaming = the paper's §4.3 read "
                             "benchmark; namespace = metadata-heavy "
                             "directory-tree workload")
    parser.add_argument("--pattern", default="stat",
                        help="namespace access pattern "
                             "(stat/list/grep/untar/edit)")
    parser.add_argument("--files", type=int, default=10_000,
                        help="namespace tree size in files")
    parser.add_argument("--tree-depth", type=int, default=0,
                        help="0 = one flat directory; >0 = nested "
                             "fanout^depth leaf directories")
    parser.add_argument("--fanout", type=int, default=32,
                        help="directories per level when nested")
    parser.add_argument("--ops", type=int, default=1_000,
                        help="namespace operations per run")
    parser.add_argument("--clients", type=_positive_int, default=1,
                        help="client machines sharing the namespace "
                             "workload")
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for the repeats; output "
                             "is byte-identical to --jobs 1")
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON record "
                             "instead of prose")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the JSON record to PATH "
                             "(implies --json), so CI and the history "
                             "store consume it without shell "
                             "redirection")
    parser.add_argument("--history", metavar="PATH", nargs="?",
                        const=True, default=None,
                        help="append the JSON record to the bench "
                             "history store (default: "
                             "benchmarks/results/history.jsonl); "
                             "'diagnose --against' gates future runs "
                             "on it")
    return parser


def _bench_config(args):
    from .host.testbed import TestbedConfig
    return TestbedConfig(drive=args.drive, partition=args.partition,
                         transport=args.transport,
                         server_heuristic=args.heuristic,
                         nfsheur=args.nfsheur, seed=args.seed)


def _main_bench(argv: List[str]) -> int:
    from .bench.runner import collect_metric, run_nfs_once
    from .stats import RunningSummary
    parser = _build_bench_parser()
    args = parser.parse_args(argv)
    config = _bench_config(args)
    if args.workload == "namespace":
        from .workloads import (NamespaceTreeSpec, NamespaceWorkload,
                                run_namespace_once)
        try:
            tree = NamespaceTreeSpec(files=args.files,
                                     depth=args.tree_depth,
                                     fanout=args.fanout)
            workload = NamespaceWorkload(pattern=args.pattern,
                                         ops=args.ops)
        except ValueError as error:
            parser.error(str(error))
        config = dataclasses.replace(config, num_clients=args.clients)
        point = functools.partial(run_namespace_once, tree=tree,
                                  workload=workload)
        metric, unit = "ops_per_s", "ops/s"
    else:
        point = functools.partial(run_nfs_once, nreaders=args.readers,
                                  scale=args.scale)
        metric, unit = "throughput_mb_s", "MB/s"
    values = collect_metric(point, config, args.runs, jobs=args.jobs,
                            metric=metric)
    acc = RunningSummary()
    for value in values:
        acc.add(value)
    summary = acc.freeze()
    record = {"verb": "bench", "drive": args.drive,
              "partition": args.partition, "transport": args.transport,
              "heuristic": args.heuristic, "nfsheur": args.nfsheur,
              "seed": args.seed, "runs": args.runs, "jobs": args.jobs}
    if args.workload == "namespace":
        record.update({"workload": "namespace",
                       "pattern": args.pattern, "files": args.files,
                       "tree_depth": args.tree_depth,
                       "fanout": args.fanout, "ops": args.ops,
                       "clients": args.clients,
                       "ops_per_s": values,
                       "mean_ops_s": summary.mean,
                       "std_ops_s": summary.std})
    else:
        record.update({"readers": args.readers, "scale": args.scale,
                       "throughputs_mb_s": values,
                       "mean_mb_s": summary.mean,
                       "std_mb_s": summary.std})
    record_json = json.dumps(record, sort_keys=True)
    if args.json or args.out is not None:
        print(record_json)
    elif args.workload == "namespace":
        print(f"{args.transport}/{args.heuristic}/{args.nfsheur} "
              f"{args.drive}{args.partition} {args.pattern} "
              f"files={args.files}: "
              f"{summary.mean:.1f} +/- {summary.std:.1f} {unit} "
              f"({args.runs} runs, jobs={args.jobs})")
    else:
        print(f"{args.transport}/{args.heuristic}/{args.nfsheur} "
              f"{args.drive}{args.partition} readers={args.readers}: "
              f"{summary.mean:.2f} +/- {summary.std:.2f} {unit} "
              f"({args.runs} runs, jobs={args.jobs})")
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(record_json + "\n")
    if args.history is not None:
        from .diagnose import DEFAULT_HISTORY_PATH, append_history
        path = (DEFAULT_HISTORY_PATH if args.history is True
                else args.history)
        append_history(path, record)
    return 0


def _build_replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfstricks replay",
        description="Capture the benchmark's vnode-boundary trace "
                    "and/or replay a trace file against any testbed. "
                    "Passing both --capture and --replay with the same "
                    "file does capture-then-replay in one invocation.")
    parser.add_argument("--capture", metavar="FILE", default=None,
                        help="run the benchmark on the source testbed "
                             "(the plain flags) with capture on; write "
                             "the trace to FILE")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="replay the trace in FILE against the "
                             "target testbed (the --target-* flags)")
    parser.add_argument("--mode", choices=["open", "closed"],
                        default="closed",
                        help="closed = dependency-ordered, as fast as "
                             "possible; open = timestamp-faithful")
    parser.add_argument("--scale", type=_positive_float, default=1.0,
                        help="open-loop time-scaling factor; >1 "
                             "compresses the captured schedule "
                             "(default: 1.0)")
    parser.add_argument("--clients", type=_non_negative_int, default=0,
                        help="multiplex the trace to N clients with "
                             "Zipfian file remapping (0 = as captured)")
    parser.add_argument("--zipf", type=float, default=1.1,
                        help="Zipf exponent for the popularity remap")
    _add_testbed_flags(parser)
    parser.add_argument("--readers", type=_positive_int, default=2,
                        help="readers in the captured benchmark run")
    parser.add_argument("--bench-scale", type=_positive_float,
                        default=0.125,
                        help="file-size scale of the captured run")
    parser.add_argument("--capture-clients", type=_positive_int,
                        default=2,
                        help="client machines in the captured run")
    parser.add_argument("--target-transport", choices=["udp", "tcp"],
                        default=None, help="target transport "
                        "(default: same as the source)")
    parser.add_argument("--target-heuristic", choices=HEURISTICS,
                        default=None)
    parser.add_argument("--target-nfsheur",
                        choices=["default", "improved"], default=None)
    parser.add_argument("--target-drive", choices=["ide", "scsi"],
                        default=None)
    parser.add_argument("--target-partition", type=int,
                        choices=PARTITIONS, default=None)
    parser.add_argument("--target-seed", type=int, default=None)
    parser.add_argument("--metrics", action="store_true",
                        help="print the target testbed's metrics "
                             "registry after the replay")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="record spans during the replay and write "
                             "Chrome trace_event JSON to FILE")
    parser.add_argument("--provenance", metavar="FILE", default=None,
                        help="record the replay's causal provenance "
                             "graph (implies span tracing) and write "
                             "it as JSONL to FILE")
    parser.add_argument("--json", action="store_true",
                        help="print the replay summary as JSON")
    return parser


def _main_replay(argv: List[str]) -> int:
    from dataclasses import replace
    from .replay import (capture_nfs_run, read_trace_file, replay_trace,
                         write_trace_file)
    from .replay.format import TraceFormatError
    args = _build_replay_parser().parse_args(argv)
    if args.capture is None and args.replay is None:
        print("replay: need --capture FILE and/or --replay FILE",
              file=sys.stderr)
        return 2
    source = replace(_bench_config(args),
                     num_clients=args.capture_clients)
    if args.capture is not None:
        trace = capture_nfs_run(source, nreaders=args.readers,
                                scale=args.bench_scale)
        write_trace_file(args.capture, trace)
        if not args.json:
            print(f"captured {trace.ops} ops / {trace.header.clients} "
                  f"clients -> {args.capture}")
    if args.replay is None:
        return 0
    try:
        trace = read_trace_file(args.replay)
    except (OSError, TraceFormatError) as error:
        print(f"replay: {error}", file=sys.stderr)
        return 2
    target = replace(
        source,
        drive=args.target_drive or args.drive,
        partition=(args.target_partition
                   if args.target_partition is not None
                   else args.partition),
        transport=args.target_transport or args.transport,
        server_heuristic=args.target_heuristic or args.heuristic,
        nfsheur=args.target_nfsheur or args.nfsheur,
        seed=args.target_seed if args.target_seed is not None
        else args.seed)
    with observe(metrics=args.metrics,
                 trace=args.trace is not None,
                 provenance=args.provenance is not None) as session:
        result = replay_trace(trace, target, mode=args.mode,
                              time_scale=args.scale,
                              clients=args.clients, zipf_s=args.zipf)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"replayed {summary['offered_ops']} offered ops on "
              f"{summary['clients']} clients ({summary['mode']} loop): "
              f"{summary['ops_completed']} completed, "
              f"{summary['errors']} errors, "
              f"{summary['throughput_mb_s']:.2f} MB/s in "
              f"{summary['elapsed']:.2f}s simulated, "
              f"lateness {summary['lateness_s']:.3f}s")
    if args.metrics:
        print()
        print(session.metrics_report())
    if args.trace is not None:
        with open(args.trace, "w") as handle:
            handle.write(session.trace_json())
        if not args.json:
            print(f"trace: {len(session.spans)} spans -> {args.trace}")
    if args.provenance is not None:
        with open(args.provenance, "w") as handle:
            handle.write(session.provenance_jsonl())
        if not args.json:
            print(f"provenance: {len(session.prov_records)} records -> "
                  f"{args.provenance}")
    return 0


def _build_diagnose_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfstricks diagnose",
        description="Diagnose recorded observability artifacts: "
                    "attribute end-to-end latency to request-path "
                    "layers, flag the paper's benchmarking traps with "
                    "evidence, and gate throughput against the bench "
                    "history store.  Exit status 1 means the "
                    "regression gate failed.")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="span export written by '--trace' "
                             "(Chrome trace_event JSON)")
    parser.add_argument("--metrics", metavar="FILE", default=None,
                        help="metrics JSON written by '--metrics-out'")
    parser.add_argument("--provenance", metavar="FILE", default=None,
                        help="provenance JSONL written by "
                             "'--provenance'; detectors cite causal "
                             "chains and --op/--slowest annotate hops "
                             "from it")
    parser.add_argument("--op", metavar="ID", type=int, default=None,
                        help="explain one op: walk span ID's lineage "
                             "and print its evidence chain "
                             "(needs --trace)")
    parser.add_argument("--slowest", metavar="K", type=_positive_int,
                        default=None,
                        help="explain the K slowest ops in the trace "
                             "(needs --trace)")
    parser.add_argument("--bench", metavar="FILE", default=None,
                        help="a 'bench --json' record to gate against "
                             "the history store")
    parser.add_argument("--against", metavar="FILE", default=None,
                        help="history store (JSONL) to gate against; "
                             "without --bench, its newest record is "
                             "gated against its own past")
    parser.add_argument("--floor", type=float, default=None,
                        help="minimum relative regression that gates "
                             "(default: 0.05, the paper's noise "
                             "criterion)")
    parser.add_argument("--json", action="store_true",
                        help="print the DiagnosisReport as JSON")
    return parser


def _main_diagnose(argv: List[str]) -> int:
    from .diagnose import (DEFAULT_FLOOR, build_inputs, diagnose,
                           load_history)
    args = _build_diagnose_parser().parse_args(argv)
    if not (args.trace or args.metrics or args.against):
        print("diagnose: need at least one of --trace/--metrics/"
              "--against", file=sys.stderr)
        return 2
    if args.bench is not None and args.against is None:
        print("diagnose: --bench needs --against HISTORY",
              file=sys.stderr)
        return 2
    if (args.op is not None or args.slowest is not None) \
            and args.trace is None:
        print("diagnose: --op/--slowest need --trace", file=sys.stderr)
        return 2
    try:
        inputs = build_inputs(trace_path=args.trace,
                              metrics_path=args.metrics,
                              bench_path=args.bench,
                              provenance_path=args.provenance)
        history = (load_history(args.against)
                   if args.against is not None else None)
    except (OSError, ValueError, KeyError) as error:
        print(f"diagnose: {error}", file=sys.stderr)
        return 2
    if args.op is not None or args.slowest is not None:
        return _diagnose_rootcause(inputs, args)
    floor = DEFAULT_FLOOR if args.floor is None else args.floor
    report = diagnose(inputs, history=history, floor=floor)
    print(report.to_json() if args.json else report.render())
    if report.gate is not None and not report.gate.ok:
        return 1
    return 0


def _diagnose_rootcause(inputs, args) -> int:
    """`diagnose --op ID` / `--slowest K`: per-op evidence chains."""
    from .diagnose.rootcause import (explain_op, explain_slowest,
                                     find_op, render_chains)
    if args.op is not None:
        located = find_op(inputs.runs, args.op)
        if located is None:
            print(f"diagnose: op {args.op} not in trace",
                  file=sys.stderr)
            return 2
        run_index, span = located
        chains = [explain_op(inputs.runs, run_index, span,
                             inputs.provenance)]
    else:
        chains = explain_slowest(inputs.runs, args.slowest,
                                 inputs.provenance)
    if args.json:
        print(json.dumps([chain.to_jsonable() for chain in chains],
                         sort_keys=True))
    else:
        print(render_chains(chains))
    return 0


def _add_orchestrator_flags(parser: argparse.ArgumentParser,
                            jobs_default: int = 1) -> None:
    """The sharding/robustness knobs shared by `campaign` and
    `chaos fuzz --jobs`."""
    parser.add_argument("--jobs", type=_positive_int, default=jobs_default,
                        help="worker processes to shard cells across")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        help="campaign journal (JSONL); every completed "
                             "cell is committed here before anything "
                             "else happens, making the campaign "
                             "resumable (default: an ephemeral "
                             "temporary journal)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign from "
                             "--journal: cells already journalled are "
                             "not re-run, and the final fold is "
                             "byte-identical to an uninterrupted run")
    parser.add_argument("--report", metavar="DIR", default=None,
                        help="write a per-campaign report directory "
                             "(fold.json, cells.csv, coverage.json, "
                             "report.html)")
    parser.add_argument("--cell-timeout", type=_positive_float,
                        default=300.0,
                        help="wall-clock seconds per cell before its "
                             "worker is killed and the cell retried "
                             "(default: 300)")
    parser.add_argument("--max-attempts", type=_positive_int, default=3,
                        help="attempts per cell before it is abandoned "
                             "(default: 3)")
    parser.add_argument("--wall-budget", type=float, default=None,
                        help="stop dispatching after this many seconds "
                             "and emit a partial, resumable result")


def _campaign_options(args):
    from .campaign import CampaignOptions
    return CampaignOptions(workers=args.jobs,
                           cell_timeout=args.cell_timeout,
                           max_attempts=args.max_attempts,
                           wall_budget=args.wall_budget)


def _campaign_progress(total: int, quiet: bool):
    """Progress reporter: failures and health events go to stderr."""
    step = max(1, total // 20)

    def progress(event: dict) -> None:
        if quiet:
            return
        kind = event["event"]
        if kind == "result":
            done = event["done"]
            result = event.get("result") or {}
            if result.get("ok") is False:
                print(f"  cell {event['cell']}: FAILED "
                      f"{', '.join(result['failed_oracles'])} "
                      f"(fingerprint "
                      f"{result['fingerprint'][:12]}...)",
                      file=sys.stderr)
            if done % step == 0 or done == total:
                print(f"  {done}/{total} cells done", file=sys.stderr)
        elif kind in ("crash", "timeout", "error"):
            print(f"  cell {event['cell']}: attempt "
                  f"{event['attempt']} {kind} "
                  f"({event['detail']})", file=sys.stderr)
        elif kind == "abandoned":
            print(f"  cell {event['cell']}: ABANDONED "
                  f"({event['reason']})", file=sys.stderr)
        elif kind == "straggler":
            print(f"  cell {event['cell']}: straggling "
                  f"({event['elapsed']:.1f}s vs median "
                  f"{event['median']:.1f}s)", file=sys.stderr)
        elif kind == "wall_budget":
            print(f"  wall budget exhausted after "
                  f"{event['elapsed']:.1f}s; emitting partial result",
                  file=sys.stderr)
        elif kind == "bundle":
            print(f"  cell {event['cell']}: shrunk to "
                  f"{event['events']} event(s) -> {event['bundle']}",
                  file=sys.stderr)

    return progress


def _build_campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfstricks campaign",
        description="Fleet-scale sharded campaigns with a checkpointed "
                    "journal, worker-failure recovery, and --resume. "
                    "Exit 0: complete and healthy; 1: complete with "
                    "chaos failures; 3: campaign error; 4: partial "
                    "(resumable with --resume).")
    sub = parser.add_subparsers(dest="kind", required=True)
    bench = sub.add_parser(
        "bench", help="shard seeded benchmark repeats; the fold is "
                      "byte-identical to a serial `bench` run")
    _add_testbed_flags(bench)
    bench.add_argument("--readers", type=_positive_int, default=4)
    bench.add_argument("--runs", type=_positive_int, default=10,
                       help="repeats = cells (default: 10)")
    bench.add_argument("--scale", type=_positive_float, default=0.125)
    bench.add_argument("--history", metavar="PATH", nargs="?",
                       const=True, default=None,
                       help="stream the folded record into the bench "
                            "history store")
    _add_orchestrator_flags(bench, jobs_default=2)
    bench.add_argument("--json", action="store_true")
    chaos = sub.add_parser(
        "chaos", help="shard fuzzed fault schedules; failures are "
                      "deduped by run fingerprint and shrunk once per "
                      "distinct failure")
    chaos.add_argument("--budget", type=_positive_int, default=1000,
                       help="schedules = cells (default: 1000)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--transport", choices=["udp", "tcp"],
                       default="udp")
    chaos.add_argument("--heuristic", choices=HEURISTICS,
                       default="default")
    chaos.add_argument("--nfsheur", choices=["default", "improved"],
                       default="default")
    chaos.add_argument("--clients", type=_positive_int, default=2)
    chaos.add_argument("--horizon", type=_positive_float, default=20.0)
    chaos.add_argument("--max-events", type=_positive_int, default=4)
    chaos.add_argument("--no-recovery", action="store_true")
    chaos.add_argument("--workload",
                       choices=["write", "metadata", "mixed"],
                       default="write",
                       help="campaign kind: block writes (default), "
                            "namespace mutations, or both at once")
    chaos.add_argument("--ack-before-intent", action="store_true")
    chaos.add_argument("--shrink-runs", type=int, default=48)
    chaos.add_argument("--bundle-dir", metavar="DIR", default=None,
                       help="shrink + bundle one repro per distinct "
                            "failure fingerprint into DIR")
    _add_orchestrator_flags(chaos, jobs_default=2)
    chaos.add_argument("--json", action="store_true")
    return parser


def _main_campaign(argv: List[str]) -> int:
    import tempfile
    from .campaign import (CampaignIncomplete, JournalError, bench_spec,
                           chaos_spec, run_bench_campaign,
                           run_chaos_campaign, write_report)
    from .diagnose import DEFAULT_HISTORY_PATH
    args = _build_campaign_parser().parse_args(argv)
    if args.kind == "bench":
        spec = bench_spec(args.runs, drive=args.drive,
                          partition=args.partition,
                          transport=args.transport,
                          heuristic=args.heuristic,
                          nfsheur=args.nfsheur, readers=args.readers,
                          scale=args.scale, seed=args.seed)
        title = (f"bench campaign: {args.runs} repeats of "
                 f"{args.transport}/{args.heuristic}/{args.nfsheur} "
                 f"{args.drive}{args.partition}")
    else:
        spec = chaos_spec(args.budget, transport=args.transport,
                          heuristic=args.heuristic,
                          nfsheur=args.nfsheur, clients=args.clients,
                          horizon=args.horizon,
                          max_events=args.max_events,
                          recovery=not args.no_recovery,
                          seed=args.seed,
                          workload=_chaos_workload_jsonable(
                              args.workload),
                          ack_before_intent=args.ack_before_intent)
        kind_tag = ("" if args.workload == "write"
                    else f"{args.workload} ")
        title = (f"chaos campaign: {args.budget} {kind_tag}schedules "
                 f"on {args.transport}/{args.heuristic}")
    options = _campaign_options(args)
    progress = _campaign_progress(spec.cells, quiet=args.json)
    tmp_dir = None
    journal = args.journal
    if journal is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="campaign-")
        journal = os.path.join(tmp_dir.name, "journal.jsonl")
    try:
        if args.kind == "bench":
            history = None
            if args.history is not None:
                history = (DEFAULT_HISTORY_PATH if args.history is True
                           else args.history)
            record, outcome = run_bench_campaign(
                spec, journal, options=options, resume=args.resume,
                progress=progress, history=history)
        else:
            record, outcome = run_chaos_campaign(
                spec, journal, options=options, resume=args.resume,
                progress=progress, bundle_dir=args.bundle_dir,
                shrink_runs=args.shrink_runs)
    except JournalError as error:
        print(f"campaign: {error}", file=sys.stderr)
        return 3
    except CampaignIncomplete as error:
        outcome = error.outcome
        if args.report is not None:
            write_report(args.report, outcome, title)
        print(f"campaign: {error}", file=sys.stderr)
        if args.journal is not None:
            print(f"campaign: journal kept at {args.journal}; "
                  f"re-run with --resume to continue", file=sys.stderr)
        return 4
    finally:
        if tmp_dir is not None:
            tmp_dir.cleanup()
    payload = {"record": record, "coverage": outcome.coverage}
    if args.report is not None:
        paths = write_report(args.report, outcome, title,
                             extra={"verb": f"campaign-{args.kind}"})
        payload["report"] = paths["html"]
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        coverage = outcome.coverage
        print(f"{title}: {coverage['done']}/{coverage['cells']} cells "
              f"done ({coverage['retried']} retried, "
              f"{coverage['timed_out']} timed out, "
              f"{coverage['abandoned']} abandoned, "
              f"{coverage['worker_crashes']} worker crashes)")
        if args.kind == "bench":
            print(f"  {record['mean_mb_s']:.2f} +/- "
                  f"{record['std_mb_s']:.2f} MB/s over "
                  f"{record['runs']} runs")
        else:
            verdict = ("all oracles green" if record["ok"] else
                       f"{len(record['distinct_failures'])} distinct "
                       f"failure(s) over "
                       f"{record['failing_cells']} cell(s)")
            print(f"  {verdict}")
        if args.report is not None:
            print(f"  report: {payload['report']}")
    if not outcome.complete:
        return 4
    if args.kind == "chaos" and not record["ok"]:
        return 1
    return 0


def _build_chaos_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfstricks chaos",
        description="Chaos-test the NFS stack: fuzz seeded fault "
                    "schedules against the correctness oracles, shrink "
                    "any failure to a minimal schedule, and replay "
                    "repro bundles deterministically.  'fuzz' exits 1 "
                    "if any oracle failed; 'replay' exits 1 if the "
                    "bundle's failure did not reproduce bit-identically "
                    "and 3 if the bundle file is missing, truncated, "
                    "or corrupt.")
    sub = parser.add_subparsers(dest="mode", required=True)
    fuzz = sub.add_parser(
        "fuzz", help="run a fixed-seed campaign of fuzzed schedules")
    fuzz.add_argument("--budget", type=_positive_int, default=30,
                      help="schedules to run (default: 30)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="campaign master seed (default: 0)")
    fuzz.add_argument("--transport", choices=["udp", "tcp"],
                      default="udp")
    fuzz.add_argument("--heuristic", choices=HEURISTICS,
                      default="default",
                      help="server read-ahead heuristic")
    fuzz.add_argument("--nfsheur", choices=["default", "improved"],
                      default="default")
    fuzz.add_argument("--clients", type=_positive_int, default=2,
                      help="client machines (default: 2)")
    fuzz.add_argument("--horizon", type=_positive_float, default=20.0,
                      help="schedule horizon in simulated seconds")
    fuzz.add_argument("--max-events", type=_positive_int, default=4,
                      help="max fault events per schedule (default: 4)")
    fuzz.add_argument("--no-recovery", action="store_true",
                      help="disable the client's write-verifier "
                           "recovery (bug-reintroduction mode: the "
                           "no-lost-acked-data oracle should fail)")
    fuzz.add_argument("--workload",
                      choices=["write", "metadata", "mixed"],
                      default="write",
                      help="campaign kind: block writes (default), "
                           "namespace mutations "
                           "(CREATE/MKDIR/REMOVE/RENAME), or both "
                           "at once")
    fuzz.add_argument("--ack-before-intent", action="store_true",
                      help="acknowledge metadata ops before forcing "
                           "the intent log (bug-reintroduction mode: "
                           "the no-lost-acked-metadata oracle should "
                           "fail)")
    fuzz.add_argument("--shrink-runs", type=int, default=48,
                      help="run budget per failure for the shrinker")
    fuzz.add_argument("--bundle-dir", metavar="DIR", default=None,
                      help="write a shrunk repro bundle per failure "
                           "into DIR")
    fuzz.add_argument("--json", action="store_true",
                      help="print a machine-readable campaign record")
    _add_orchestrator_flags(fuzz)
    replay = sub.add_parser(
        "replay", help="re-execute a repro bundle deterministically")
    replay.add_argument("bundle", help="path to a chaos bundle JSON")
    replay.add_argument("--json", action="store_true",
                        help="print the full replay outcome as JSON")
    return parser


def _chaos_workload(kind: str):
    """The default workload object for a `--workload` choice."""
    from .chaos import ChaosWorkload, MetadataWorkload, MixedWorkload
    if kind == "metadata":
        return MetadataWorkload()
    if kind == "mixed":
        return MixedWorkload()
    return ChaosWorkload()


def _chaos_workload_jsonable(kind: str):
    """Campaign-spec form: None for the default write workload, so a
    pre-metadata spec (and its journal fingerprint) is unchanged."""
    if kind == "write":
        return None
    return _chaos_workload(kind).to_jsonable()


def _main_chaos(argv: List[str]) -> int:
    from .chaos import (BundleError, ScheduleFuzzer,
                        replay_bundle, run_campaign, shrink,
                        write_bundle)
    from .host.testbed import TestbedConfig
    args = _build_chaos_parser().parse_args(argv)

    if args.mode == "replay":
        try:
            outcome = replay_bundle(args.bundle)
        except BundleError as error:
            # A bad bundle file is its own failure class: one line, no
            # traceback, and an exit code distinct from both "did not
            # reproduce" (1) and a usage error (2).
            print(f"chaos replay: {error}", file=sys.stderr)
            return 3
        except (OSError, ValueError, KeyError) as error:
            print(f"chaos replay: {error}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(outcome.to_jsonable(), sort_keys=True))
        else:
            verdict = ("reproduced" if outcome.reproduced
                       else "DID NOT REPRODUCE")
            print(f"{args.bundle}: {verdict} "
                  f"(failed oracles: "
                  f"{', '.join(outcome.result.failed_oracles) or 'none'}"
                  f"; fingerprint {outcome.result.fingerprint[:16]}...)")
        return 0 if outcome.reproduced else 1

    if args.jobs > 1 or args.journal is not None:
        return _main_chaos_sharded(args)

    config = TestbedConfig(
        transport=args.transport, server_heuristic=args.heuristic,
        nfsheur=args.nfsheur, num_clients=args.clients,
        mount_verifier_recovery=not args.no_recovery,
        meta_ack_before_intent=args.ack_before_intent, seed=args.seed)
    fuzzer = ScheduleFuzzer(args.seed, horizon=args.horizon,
                            max_events=args.max_events)
    workload = _chaos_workload(args.workload)
    failures = []

    def report(run):
        if run.result.ok:
            return
        failures.append(run)
        if not args.json:
            print(f"schedule {run.index}: FAILED "
                  f"{', '.join(run.result.failed_oracles)} "
                  f"({len(run.schedule.events)} events)")

    runs = run_campaign(config, fuzzer, args.budget, workload=workload,
                        on_result=report)
    failure_records = []
    for run in failures:
        target = run.result.failed_oracles[0]
        run_config = config.with_seed(config.seed + 1000 * run.index)
        shrunk = shrink(run_config, run.schedule, target,
                        workload=workload, max_runs=args.shrink_runs)
        minimal = shrunk.schedule
        final = None
        bundle_path = None
        if args.bundle_dir is not None:
            from .chaos import run_chaos
            final = run_chaos(run_config, minimal, workload)
            os.makedirs(args.bundle_dir, exist_ok=True)
            bundle_path = os.path.join(args.bundle_dir,
                                       f"chaos-{run.index}.json")
            write_bundle(bundle_path, run_config, workload, minimal,
                         final)
        failure_records.append({
            "index": run.index,
            "failed_oracles": list(run.result.failed_oracles),
            "fingerprint": run.result.fingerprint,
            "shrunk_events": [e.to_jsonable() for e in minimal.events],
            "shrink_runs": shrunk.runs,
            "bundle": bundle_path,
        })
        if not args.json:
            where = f" -> {bundle_path}" if bundle_path else ""
            print(f"  shrunk to {len(minimal.events)} event(s) "
                  f"in {shrunk.runs} runs{where}")

    record = {"verb": "chaos-fuzz", "budget": args.budget,
              "seed": args.seed, "transport": args.transport,
              "heuristic": args.heuristic, "nfsheur": args.nfsheur,
              "clients": args.clients, "horizon": args.horizon,
              "max_events": args.max_events,
              "recovery": not args.no_recovery,
              "workload": args.workload,
              "ack_before_intent": args.ack_before_intent,
              "runs": len(runs),
              "failures": failure_records,
              "ok": not failures}
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        verdict = ("all oracles green" if not failures
                   else f"{len(failures)} failing schedule(s)")
        print(f"chaos fuzz: {len(runs)} schedules on "
              f"{args.transport}/{args.heuristic}: {verdict}")
    return 1 if failures else 0


def _main_chaos_sharded(args) -> int:
    """`chaos fuzz --jobs/--journal`: the campaign-orchestrated path.

    Raises fuzzing from hundreds of schedules to 100k-class campaigns:
    cells are sharded across workers, every verdict is journalled, and
    failures are deduped by run fingerprint before shrinking — a long
    campaign rediscovers the same bug many times, but each distinct
    failure is shrunk and bundled exactly once.
    """
    import tempfile
    from .campaign import (CampaignIncomplete, JournalError, chaos_spec,
                           run_chaos_campaign)
    spec = chaos_spec(args.budget, transport=args.transport,
                      heuristic=args.heuristic, nfsheur=args.nfsheur,
                      clients=args.clients, horizon=args.horizon,
                      max_events=args.max_events,
                      recovery=not args.no_recovery, seed=args.seed,
                      workload=_chaos_workload_jsonable(args.workload),
                      ack_before_intent=args.ack_before_intent)
    options = _campaign_options(args)
    progress = _campaign_progress(spec.cells, quiet=args.json)
    tmp_dir = None
    journal = args.journal
    if journal is None:
        tmp_dir = tempfile.TemporaryDirectory(prefix="chaos-fuzz-")
        journal = os.path.join(tmp_dir.name, "journal.jsonl")
    try:
        record, outcome = run_chaos_campaign(
            spec, journal, options=options, resume=args.resume,
            progress=progress, bundle_dir=args.bundle_dir,
            shrink_runs=args.shrink_runs)
    except (JournalError, CampaignIncomplete) as error:
        print(f"chaos fuzz: {error}", file=sys.stderr)
        return 3 if isinstance(error, JournalError) else 4
    finally:
        if tmp_dir is not None:
            tmp_dir.cleanup()
    if args.report is not None:
        from .campaign import write_report
        write_report(args.report, outcome,
                     f"chaos fuzz: {args.budget} schedules on "
                     f"{args.transport}/{args.heuristic}")
    payload = {"record": record, "coverage": outcome.coverage}
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        coverage = outcome.coverage
        verdict = ("all oracles green" if record["ok"] else
                   f"{len(record['distinct_failures'])} distinct "
                   f"failure(s) over {record['failing_cells']} "
                   f"cell(s)")
        print(f"chaos fuzz: {record['runs']} schedules on "
              f"{args.transport}/{args.heuristic} "
              f"({coverage['done']}/{coverage['cells']} cells, "
              f"{coverage['retried']} retried, "
              f"{coverage['worker_crashes']} worker crashes): "
              f"{verdict}")
    if not outcome.complete:
        return 4
    return 1 if not record["ok"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        return _main_bench(argv[1:])
    if argv and argv[0] == "replay":
        return _main_replay(argv[1:])
    if argv and argv[0] == "diagnose":
        return _main_diagnose(argv[1:])
    if argv and argv[0] == "chaos":
        return _main_chaos(argv[1:])
    if argv and argv[0] == "campaign":
        return _main_campaign(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        _list_experiments()
        return 0
    if args.experiment == "all":
        for experiment in all_experiments():
            _run_one(experiment.id, args)
            print()
        return 0
    try:
        _run_one(args.experiment, args)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

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

Every command is a leaf of one argparse tree and takes its flags after
its name.  Five verbs ride next to the experiment ids, ``list`` and
``all``: ``bench`` (one benchmark point, optionally parallel and
machine-readable), ``replay`` (capture a run's vnode-boundary trace
and/or replay a trace file against an arbitrary testbed; see
:mod:`repro.replay`), ``diagnose`` (critical-path attribution,
benchmark-trap detection, and the perf-regression gate over previously
recorded artifacts; see :mod:`repro.diagnose`), ``chaos fuzz|replay``
(fault-schedule fuzzing judged by correctness oracles, with shrinking
repro bundles; see :mod:`repro.chaos`), and ``campaign bench|chaos``
(fleet-scale sharded bench / chaos campaigns with a checkpointed
journal, worker-failure recovery, ``--resume``, and a CSV/HTML report
directory; see :mod:`repro.campaign`)::

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
import functools
import json
import os
import sys
import time
from typing import List, Optional

from .bench.fileset import READER_COUNTS, files_for_readers
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
_non_negative_float = _checked(float, lambda value: value >= 0,
                               "non-negative")
#: A file-size scale: the paper's working set times a factor in (0, 1].
_scale = _checked(_positive_float, lambda value: value <= 1, "at most 1")
#: The experiments sweep up to 32 readers, and each reads its own file.
_figure_scale = _checked(
    _scale, lambda value: _fileset_error(max(READER_COUNTS), value) is None,
    f"large enough for {max(READER_COUNTS)} readers")
# Output files are written after the run, so a path that cannot be
# opened is refused before the run starts.
_output_file = _checked(
    str, lambda path: (os.path.isdir(os.path.dirname(path) or ".")
                       and not os.path.isdir(path)),
    "a file in an existing directory")


def _makeable_dir(path: str) -> bool:
    """Whether ``path`` is a directory or one can be made there: the
    nearest of it and its ancestors that exists is a directory."""
    path = os.path.abspath(path)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path)


# The journal, history, report and bundle writers make their missing
# directories, but none can make one under a regular file.
_journal_file = _checked(
    str, lambda path: _makeable_dir(os.path.dirname(path)),
    "a file whose directory exists or can be made")
_history_file = _checked(
    _journal_file, lambda path: not os.path.isdir(path),
    "a file, not a directory")
_output_dir = _checked(str, _makeable_dir,
                       "a directory that exists or can be made")


def _fileset_error(readers: int, scale: float) -> Optional[str]:
    """Why ``readers`` readers get no files at ``scale``, or None."""
    try:
        files_for_readers(readers, scale)
    except ValueError as error:
        return str(error)
    return None


def _check_fileset(parser: argparse.ArgumentParser, readers: int,
                   scale: float) -> None:
    """Refuse, before the first run, a scale that leaves a reader
    without a file."""
    error = _fileset_error(readers, scale)
    if error is not None:
        parser.error(f"{readers} readers at scale {scale:g}: {error}")


def _leaf(commands, name: str, handler, help: str,
          description: Optional[str] = None) -> argparse.ArgumentParser:
    """A command that runs ``handler(args)``."""
    parser = commands.add_parser(name, help=help,
                                 description=description or help)
    parser.set_defaults(handler=handler)
    return parser


def _json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="print a machine-readable JSON record "
                             "instead of prose")


def _obs_flags(parser: argparse.ArgumentParser) -> None:
    """The observability flags of the experiments and ``replay``."""
    parser.add_argument("--trace", metavar="FILE", type=_output_file,
                        help="record spans for every simulated request "
                             "and write Chrome trace_event JSON to FILE "
                             "(open with Perfetto / chrome://tracing)")
    parser.add_argument("--provenance", metavar="FILE", type=_output_file,
                        help="record the causal provenance graph (op "
                             "lineage edges; implies span tracing) and "
                             "write it as JSONL to FILE; feed it to "
                             "'diagnose --slowest/--op'")
    parser.add_argument("--metrics", action="store_true",
                        help="collect the per-layer metrics registry and "
                             "print a report after the run")


def _point_flags(parser: argparse.ArgumentParser, runs: int,
                 scale=_scale) -> None:
    """File-size scale and runs per point: the experiments, ``bench``
    and ``campaign bench``."""
    parser.add_argument("--scale", type=scale, default=0.125,
                        help="file-size scale factor; 1.0 is the paper's "
                             "256 MB working set (default: 0.125)")
    parser.add_argument("--runs", type=_positive_int, default=runs,
                        help=f"seeded runs per point (paper uses >=10; "
                             f"default: {runs})")


def _figure_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of every experiment id and of ``all``."""
    _point_flags(parser, runs=3, scale=_figure_scale)
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default: 0)")
    parser.add_argument("--no-std", action="store_true",
                        help="print means only, no standard deviations")
    parser.add_argument("--plot", action="store_true",
                        help="also draw an ASCII chart of the figure")
    _obs_flags(parser)
    parser.add_argument("--provenance-dot", metavar="FILE",
                        type=_output_file,
                        help="also write the provenance graph as a "
                             "Graphviz digraph to FILE (implies "
                             "--provenance collection)")
    parser.add_argument("--metrics-out", metavar="FILE", type=_output_file,
                        help="also write the per-run metric snapshots "
                             "as JSON to FILE (implies metrics "
                             "collection; feed it to 'diagnose')")
    parser.add_argument("--detail-out", metavar="FILE", type=_output_file,
                        help="write the experiment's per-run records "
                             "(raw counters behind the summarised "
                             "points, e.g. xfaults' retransmit and "
                             "recovery counts) as JSON to FILE")


def _protocol_flags(parser: argparse.ArgumentParser) -> None:
    """NFS transport and read-ahead knobs plus the master seed."""
    parser.add_argument("--transport", choices=["udp", "tcp"],
                        default="udp")
    parser.add_argument("--heuristic", choices=HEURISTICS,
                        default="default",
                        help="server read-ahead heuristic")
    parser.add_argument("--nfsheur", choices=["default", "improved"],
                        default="default")
    parser.add_argument("--seed", type=int, default=0,
                        help="master random seed (default: 0)")


def _testbed_flags(parser: argparse.ArgumentParser) -> None:
    """The testbed knobs of ``bench``, ``replay`` and ``campaign
    bench``."""
    parser.add_argument("--drive", choices=["ide", "scsi"], default="ide")
    parser.add_argument("--partition", type=int, choices=PARTITIONS,
                        default=1,
                        help="disk partition, 1 (outer) .. 4 (inner)")
    _protocol_flags(parser)


def _bench_flags(parser: argparse.ArgumentParser, runs: int) -> None:
    """One benchmark point's shape: ``bench`` and ``campaign bench``."""
    _testbed_flags(parser)
    parser.add_argument("--readers", type=_positive_int, default=4,
                        help="concurrent sequential readers (default: 4)")
    _point_flags(parser, runs)
    parser.add_argument("--history", metavar="PATH", nargs="?",
                        const=True, default=None, type=_history_file,
                        help="append the JSON record to the bench "
                             "history store (default: "
                             "benchmarks/results/history.jsonl); "
                             "'diagnose --against' gates future runs "
                             "on it")


def _orchestrator_flags(parser: argparse.ArgumentParser,
                        jobs: int) -> None:
    """The sharding/robustness knobs of `campaign` and `chaos fuzz`,
    their ``--json``, and their one handler."""
    parser.set_defaults(handler=functools.partial(_main_campaign, parser))
    parser.add_argument("--jobs", type=_positive_int, default=jobs,
                        help="worker processes to shard cells across "
                             "(one runs them in this process unless a "
                             "journal or a worker-enforced limit is set)")
    parser.add_argument("--journal", metavar="PATH", default=None,
                        type=_journal_file,
                        help="campaign journal (JSONL); every completed "
                             "cell is committed here before anything "
                             "else happens, making the campaign "
                             "resumable (default: none in process, "
                             "else an ephemeral temporary journal)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign from "
                             "--journal: cells already journalled are "
                             "not re-run, and the final fold is "
                             "byte-identical to an uninterrupted run")
    parser.add_argument("--report", metavar="DIR", default=None,
                        type=_output_dir,
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
    parser.add_argument("--wall-budget", type=_positive_float,
                        default=None,
                        help="stop dispatching after this many seconds "
                             "and emit a partial, resumable result")
    _json_flag(parser)


def _chaos_flags(parser: argparse.ArgumentParser, budget: int,
                 jobs: int) -> None:
    """The fuzzed campaign of `chaos fuzz` and `campaign chaos`."""
    parser.add_argument("--budget", type=_positive_int, default=budget,
                        help=f"schedules to run (default: {budget})")
    _protocol_flags(parser)
    parser.add_argument("--clients", type=_positive_int, default=2,
                        help="client machines (default: 2)")
    parser.add_argument("--horizon", type=_positive_float, default=20.0,
                        help="schedule horizon in simulated seconds")
    parser.add_argument("--max-events", type=_positive_int, default=4,
                        help="max fault events per schedule (default: 4)")
    parser.add_argument("--no-recovery", action="store_true",
                        help="disable the client's write-verifier "
                             "recovery (bug-reintroduction mode: the "
                             "no-lost-acked-data oracle should fail)")
    parser.add_argument("--workload",
                        choices=["write", "metadata", "mixed"],
                        default="write",
                        help="campaign kind: block writes (default), "
                             "namespace mutations "
                             "(CREATE/MKDIR/REMOVE/RENAME), or both "
                             "at once")
    parser.add_argument("--ack-before-intent", action="store_true",
                        help="acknowledge metadata ops before forcing "
                             "the intent log (bug-reintroduction mode: "
                             "the no-lost-acked-metadata oracle should "
                             "fail)")
    parser.add_argument("--shrink-runs", type=_positive_int, default=48,
                        help="run budget per failure for the shrinker")
    parser.add_argument("--bundle-dir", metavar="DIR", default=None,
                        type=_output_dir,
                        help="shrink and bundle one repro per distinct "
                             "failure into DIR")
    _orchestrator_flags(parser, jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfstricks",
        description=("Reproduce figures and tables from 'NFS Tricks and "
                     "Benchmarking Traps' (USENIX 2003) in simulation. "
                     "Flags follow the command."))
    commands = parser.add_subparsers(dest="command", metavar="COMMAND",
                                     required=True)
    for experiment in all_experiments():
        leaf = _leaf(commands, experiment.id, _main_experiment,
                     experiment.title)
        leaf.set_defaults(experiment=experiment.id)
        _figure_flags(leaf)
    _leaf(commands, "list", _main_list,
          "list every experiment and its paper claim")
    _figure_flags(_leaf(commands, "all", _main_all,
                        "run every experiment in turn"))

    bench = _leaf(commands, "bench", None,
                  "one NFS benchmark point (§4.3), repeated and "
                  "summarised; repeats optionally run in parallel")
    # The handler's namespace-spec errors are this leaf's usage errors.
    bench.set_defaults(handler=functools.partial(_main_bench, bench))
    _bench_flags(bench, runs=3)
    bench.add_argument("--workload", choices=["streaming", "namespace"],
                       default="streaming",
                       help="streaming = the paper's §4.3 read "
                            "benchmark; namespace = metadata-heavy "
                            "directory-tree workload")
    bench.add_argument("--pattern", default="stat",
                       help="namespace access pattern "
                            "(stat/list/grep/untar/edit)")
    bench.add_argument("--files", type=int, default=10_000,
                       help="namespace tree size in files")
    bench.add_argument("--tree-depth", type=int, default=0,
                       help="0 = one flat directory; >0 = nested "
                            "fanout^depth leaf directories")
    bench.add_argument("--fanout", type=int, default=32,
                       help="directories per level when nested")
    bench.add_argument("--ops", type=int, default=1_000,
                       help="namespace operations per run")
    bench.add_argument("--clients", type=_positive_int, default=1,
                       help="client machines sharing the namespace "
                            "workload")
    bench.add_argument("--jobs", type=_positive_int, default=1,
                       help="worker processes for the repeats; output "
                            "is byte-identical to --jobs 1")
    bench.add_argument("--out", metavar="PATH", type=_output_file,
                       help="also write the JSON record to PATH "
                            "(implies --json), so CI and the history "
                            "store consume it without shell "
                            "redirection")
    _json_flag(bench)

    replay = _leaf(
        commands, "replay", None,
        "capture the benchmark's vnode-boundary trace and/or replay a "
        "trace file against any testbed",
        "Capture the benchmark's vnode-boundary trace and/or replay a "
        "trace file against any testbed. Passing both --capture and "
        "--replay with the same file does capture-then-replay in one "
        "invocation.")
    replay.set_defaults(handler=functools.partial(_main_replay, replay))
    replay.add_argument("--capture", metavar="FILE", type=_output_file,
                        help="run the benchmark on the source testbed "
                             "(the plain flags) with capture on; write "
                             "the trace to FILE")
    replay.add_argument("--replay", metavar="FILE", default=None,
                        help="replay the trace in FILE against the "
                             "target testbed (the --target-* flags)")
    replay.add_argument("--mode", choices=["open", "closed"],
                        default="closed",
                        help="closed = dependency-ordered, as fast as "
                             "possible; open = timestamp-faithful")
    replay.add_argument("--scale", type=_positive_float, default=1.0,
                        help="open-loop time-scaling factor; >1 "
                             "compresses the captured schedule "
                             "(default: 1.0)")
    replay.add_argument("--clients", type=_non_negative_int, default=0,
                        help="multiplex the trace to N clients with "
                             "Zipfian file remapping (0 = as captured)")
    replay.add_argument("--zipf", type=_non_negative_float, default=1.1,
                        help="Zipf exponent for the popularity remap")
    _testbed_flags(replay)
    replay.add_argument("--readers", type=_positive_int, default=2,
                        help="readers in the captured benchmark run")
    replay.add_argument("--bench-scale", type=_scale,
                        default=0.125,
                        help="file-size scale of the captured run")
    replay.add_argument("--capture-clients", type=_positive_int,
                        default=2,
                        help="client machines in the captured run")
    replay.add_argument("--target-transport", choices=["udp", "tcp"],
                        default=None, help="target transport "
                        "(default: same as the source)")
    replay.add_argument("--target-heuristic", choices=HEURISTICS,
                        default=None)
    replay.add_argument("--target-nfsheur",
                        choices=["default", "improved"], default=None)
    replay.add_argument("--target-drive", choices=["ide", "scsi"],
                        default=None)
    replay.add_argument("--target-partition", type=int,
                        choices=PARTITIONS, default=None)
    replay.add_argument("--target-seed", type=int, default=None)
    _obs_flags(replay)
    _json_flag(replay)

    diagnose = _leaf(
        commands, "diagnose", _main_diagnose,
        "attribute latency, flag benchmarking traps and gate "
        "throughput over recorded artifacts",
        "Diagnose recorded observability artifacts: attribute "
        "end-to-end latency to request-path layers, flag the paper's "
        "benchmarking traps with evidence, and gate throughput against "
        "the bench history store.  Exit status 1 means the regression "
        "gate failed.")
    diagnose.add_argument("--trace", metavar="FILE", default=None,
                          help="span export written by '--trace' "
                               "(Chrome trace_event JSON)")
    diagnose.add_argument("--metrics", metavar="FILE", default=None,
                          help="metrics JSON written by '--metrics-out'")
    diagnose.add_argument("--provenance", metavar="FILE", default=None,
                          help="provenance JSONL written by "
                               "'--provenance'; detectors cite causal "
                               "chains and --op/--slowest annotate hops "
                               "from it")
    diagnose.add_argument("--op", metavar="ID", type=int, default=None,
                          help="explain one op: walk span ID's lineage "
                               "and print its evidence chain "
                               "(needs --trace)")
    diagnose.add_argument("--slowest", metavar="K", type=_positive_int,
                          default=None,
                          help="explain the K slowest ops in the trace "
                               "(needs --trace)")
    diagnose.add_argument("--bench", metavar="FILE", default=None,
                          help="a 'bench --json' record to gate against "
                               "the history store")
    diagnose.add_argument("--against", metavar="FILE", default=None,
                          help="history store (JSONL) to gate against; "
                               "without --bench, its newest record is "
                               "gated against its own past")
    diagnose.add_argument("--floor", type=_non_negative_float,
                          default=None,
                          help="minimum relative regression that gates "
                               "(default: 0.05, the paper's noise "
                               "criterion)")
    _json_flag(diagnose)

    chaos = commands.add_parser(
        "chaos", help="fuzz fault schedules against the correctness "
                      "oracles; replay repro bundles",
        description="Chaos-test the NFS stack: fuzz seeded fault "
                    "schedules against the correctness oracles, shrink "
                    "any failure to a minimal schedule, and replay "
                    "repro bundles deterministically.  'fuzz' exits "
                    "as 'campaign chaos' does (1 if any oracle "
                    "failed); 'replay' exits 1 if the "
                    "bundle's failure did not reproduce bit-identically "
                    "and 3 if the bundle file is missing, truncated, "
                    "or corrupt.")
    modes = chaos.add_subparsers(dest="mode", required=True)
    fuzz = _leaf(modes, "fuzz", None,
                 "run a fixed-seed campaign of fuzzed schedules: "
                 "'campaign chaos' with a smaller budget and one job")
    fuzz.set_defaults(kind="chaos")
    _chaos_flags(fuzz, budget=30, jobs=1)
    bundle = _leaf(modes, "replay", _main_chaos_replay,
                   "re-execute a repro bundle deterministically")
    bundle.add_argument("bundle", help="path to a chaos bundle JSON")
    _json_flag(bundle)

    campaign = commands.add_parser(
        "campaign", help="sharded bench and chaos campaigns with a "
                         "resumable journal",
        description="Fleet-scale sharded campaigns with a checkpointed "
                    "journal, worker-failure recovery, and --resume. "
                    "Exit 0: complete and healthy; 1: complete with "
                    "chaos failures; 3: campaign error; 4: partial "
                    "(resumable with --resume).")
    kinds = campaign.add_subparsers(dest="kind", required=True)
    campaign_bench = _leaf(kinds, "bench", None,
                           "shard seeded benchmark repeats; the fold is "
                           "byte-identical to a serial `bench` run")
    _bench_flags(campaign_bench, runs=10)
    _orchestrator_flags(campaign_bench, jobs=2)
    _chaos_flags(_leaf(kinds, "chaos", None,
                       "shard fuzzed fault schedules; failures are "
                       "deduped by run fingerprint and shrunk once per "
                       "distinct failure"), budget=1000, jobs=2)
    return parser


def _main_list(args) -> int:
    for experiment in all_experiments():
        print(f"{experiment.id:8s} {experiment.title}")
        print(f"{'':8s}   paper: {experiment.paper_claim}")
    return 0


def _main_experiment(args) -> int:
    _run_one(args.experiment, args)
    return 0


def _main_all(args) -> int:
    for experiment in all_experiments():
        _run_one(experiment.id, args)
        print()
    return 0


def _observe(args):
    """The observation session the obs flags ask for."""
    return observe(
        trace=args.trace is not None,
        metrics=(args.metrics
                 or getattr(args, "metrics_out", None) is not None),
        provenance=(args.provenance is not None
                    or getattr(args, "provenance_dot", None) is not None))


def _write_obs(session, args, quiet: bool = False) -> None:
    """Print the metrics report and write the obs files the flags ask
    for; ``quiet`` keeps the file lines off stdout."""
    if args.metrics:
        print()
        print(session.metrics_report())
    metrics_out = getattr(args, "metrics_out", None)
    provenance_dot = getattr(args, "provenance_dot", None)
    for path, render, line in (
            (metrics_out, session.metrics_json,
             f"metrics: {len(session.snapshots)} snapshots -> "
             f"{metrics_out}"),
            (args.trace, session.trace_json,
             f"trace: {len(session.spans)} spans -> {args.trace} "
             f"(load in https://ui.perfetto.dev)"),
            (args.provenance, session.provenance_jsonl,
             f"provenance: {len(session.prov_records)} records -> "
             f"{args.provenance}"),
            (provenance_dot, session.provenance_dot,
             f"provenance dot: -> {provenance_dot}")):
        if path is None:
            continue
        with open(path, "w") as handle:
            handle.write(render())
        if not quiet:
            print(f"\n{line}")


def _run_one(experiment_id: str, args) -> None:
    experiment = get(experiment_id)
    started = time.time()
    with _observe(args) as session:
        figure = experiment.run(scale=args.scale, runs=args.runs,
                                seed=args.seed)
    elapsed = time.time() - started
    print(figure.render(show_std=not args.no_std))
    if args.plot:
        from .stats import render_plot
        print()
        print(render_plot(figure))
    _write_obs(session, args)
    if args.detail_out is not None:
        records = getattr(figure, "detail", [])
        with open(args.detail_out, "w") as handle:
            json.dump({"experiment": experiment.id,
                       "records": records}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\ndetail: {len(records)} per-run records -> "
              f"{args.detail_out}")
    print(f"\n[{experiment.id}] scale={args.scale} runs={args.runs} "
          f"seed={args.seed} wall={elapsed:.1f}s")
    print(f"paper claim: {experiment.paper_claim}")


def _bench_spec(args, **workload):
    """The campaign spec of a `bench` or `campaign bench` point."""
    from .campaign import bench_spec
    return bench_spec(args.runs, drive=args.drive,
                      partition=args.partition, transport=args.transport,
                      heuristic=args.heuristic, nfsheur=args.nfsheur,
                      readers=args.readers, scale=args.scale,
                      seed=args.seed, **workload)


def _main_bench(parser: argparse.ArgumentParser, args) -> int:
    from .campaign import (CampaignIncomplete, bench_results, fold_bench,
                           namespace_point)
    spec = _bench_spec(args, workload=args.workload,
                       pattern=args.pattern, files=args.files,
                       tree_depth=args.tree_depth, fanout=args.fanout,
                       ops=args.ops, clients=args.clients)
    namespace = args.workload == "namespace"
    if namespace:
        try:
            namespace_point(spec.params)
        except ValueError as error:
            parser.error(str(error))
    else:
        _check_fileset(parser, args.readers, args.scale)
    try:
        results = bench_results(spec, args.jobs)
    except CampaignIncomplete as error:
        print(f"bench: {error}", file=sys.stderr)
        return 4
    record = fold_bench(spec, results)
    record["jobs"] = args.jobs
    record_json = json.dumps(record, sort_keys=True)
    if args.json or args.out is not None:
        print(record_json)
    elif namespace:
        print(f"{args.transport}/{args.heuristic}/{args.nfsheur} "
              f"{args.drive}{args.partition} {args.pattern} "
              f"files={args.files}: "
              f"{record['mean_ops_s']:.1f} +/- "
              f"{record['std_ops_s']:.1f} ops/s "
              f"({args.runs} runs, jobs={args.jobs})")
    else:
        print(f"{args.transport}/{args.heuristic}/{args.nfsheur} "
              f"{args.drive}{args.partition} readers={args.readers}: "
              f"{record['mean_mb_s']:.2f} +/- "
              f"{record['std_mb_s']:.2f} MB/s "
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


def _main_replay(parser: argparse.ArgumentParser, args) -> int:
    from dataclasses import replace
    from .host.testbed import TestbedConfig
    from .replay import (capture_nfs_run, read_trace_file, replay_trace,
                         write_trace_file)
    from .replay.format import TraceFormatError
    if args.capture is None and args.replay is None:
        print("replay: need --capture FILE and/or --replay FILE",
              file=sys.stderr)
        return 2
    source = TestbedConfig(drive=args.drive, partition=args.partition,
                           transport=args.transport,
                           server_heuristic=args.heuristic,
                           nfsheur=args.nfsheur, seed=args.seed,
                           num_clients=args.capture_clients)
    if args.capture is not None:
        _check_fileset(parser, args.readers, args.bench_scale)
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
    with _observe(args) as session:
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
    _write_obs(session, args, quiet=args.json)
    return 0


def _main_diagnose(args) -> int:
    from .diagnose import (DEFAULT_FLOOR, build_inputs, diagnose,
                           load_history)
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


def _chaos_spec(args):
    from .campaign import chaos_spec
    return chaos_spec(args.budget, transport=args.transport,
                      heuristic=args.heuristic, nfsheur=args.nfsheur,
                      clients=args.clients, horizon=args.horizon,
                      max_events=args.max_events,
                      recovery=not args.no_recovery, seed=args.seed,
                      workload=args.workload,
                      ack_before_intent=args.ack_before_intent)


def _main_campaign(parser: argparse.ArgumentParser, args) -> int:
    """`campaign bench`, `campaign chaos` and `chaos fuzz`.  ``parser``
    is the leaf, which reports ``--resume`` without ``--journal``, and a
    scale that leaves a reader without a file, as usage errors."""
    from .campaign import (CampaignIncomplete, CampaignOptions,
                           JournalError, run_bench_campaign,
                           run_chaos_campaign, write_report)
    from .diagnose import DEFAULT_HISTORY_PATH
    if args.resume and args.journal is None:
        parser.error("--resume needs --journal")
    if args.kind == "bench":
        _check_fileset(parser, args.readers, args.scale)
        spec = _bench_spec(args)
        title = (f"bench campaign: {args.runs} repeats of "
                 f"{args.transport}/{args.heuristic}/{args.nfsheur} "
                 f"{args.drive}{args.partition}")
    else:
        spec = _chaos_spec(args)
        kind_tag = ("" if args.workload == "write"
                    else f"{args.workload} ")
        title = (f"chaos campaign: {args.budget} {kind_tag}schedules "
                 f"on {args.transport}/{args.heuristic}")
    options = CampaignOptions(workers=args.jobs,
                              cell_timeout=args.cell_timeout,
                              max_attempts=args.max_attempts,
                              wall_budget=args.wall_budget)
    progress = _campaign_progress(spec.cells, quiet=args.json)
    try:
        if args.kind == "bench":
            history = None
            if args.history is not None:
                history = (DEFAULT_HISTORY_PATH if args.history is True
                           else args.history)
            record, outcome = run_bench_campaign(
                spec, args.journal, options=options, resume=args.resume,
                progress=progress, history=history)
        else:
            record, outcome = run_chaos_campaign(
                spec, args.journal, options=options, resume=args.resume,
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


def _main_chaos_replay(args) -> int:
    from .chaos import BundleError, replay_bundle
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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

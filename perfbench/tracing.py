"""Host-time and call-count accounting per simulator layer.

A layer is a package ``src/repro/<layer>``.  Everything here works from
the benchmark's own files by wrapping the simulator's classes for the
duration of one batch; no simulator source is changed.  Wrappers only
count and time, so the wrapped batch must reproduce the untraced
batch's simulated result bit for bit, which the caller checks.  Each
wrapper carries its original's signature (``functools.wraps``), because
the RPC server and the readers inspect the signatures of what they call.

* :class:`SetupClock` times each simulation's set-up: from the
  :class:`~repro.sim.core.Simulator`'s construction (the first thing a
  testbed builds) to its first ``run()``.
* :class:`LayerCounts` counts calls to each layer's entry points and
  collects the objects whose statistics the hit rates need.
* :func:`profile_layers` runs a batch under cProfile and charges each
  function's self time to the layer whose file defines it; time in
  builtins and the standard library goes to the layer that called them.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import os
import pstats
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(os.path.dirname(HERE), "src", "repro") + os.sep

#: Layers whose share of traced self time is reported.
SHARE_LAYERS = ("sim", "net", "host", "nfs", "readahead", "kernel", "disk",
                "ffs", "faults", "chaos", "replay", "workloads", "obs",
                "diagnose")

#: (counter, module, class, method): each call adds one to the counter.
COUNTED = (
    ("sim.processes", "repro.sim.process", "Process", "__init__"),
    ("net.frames", "repro.net.link", "Link", "send"),
    ("net.transport_sends", "repro.net.udp", "UdpEndpoint", "send"),
    ("net.transport_sends", "repro.net.tcp", "TcpConnection", "send"),
    ("net.rpc_calls", "repro.net.rpc", "RpcClient", "call"),
    ("host.cpu_charges", "repro.host.machine", "Machine", "execute"),
    ("nfs.server_requests", "repro.nfs.server", "NfsServer", "handle"),
    ("kernel.cache_reads", "repro.kernel.buffercache", "BufferCache",
     "read"),
    ("ffs.journal_commits", "repro.ffs.metajournal", "MetaJournal",
     "commit"),
    ("ffs.resolves", "repro.ffs.namespace", "Namespace", "resolve"),
)

#: (kind, module, class): every instance built is kept for its stats.
COLLECTED = (
    ("mounts", "repro.nfs.client", "NfsMount"),
    ("servers", "repro.nfs.server", "NfsServer"),
    ("rpc_clients", "repro.net.rpc", "RpcClient"),
    ("caches", "repro.kernel.buffercache", "BufferCache"),
    ("drives", "repro.disk.drive", "DiskDrive"),
)


class Patches:
    """Class attributes replaced for a while, then put back."""

    def __init__(self):
        self._undo: List[Tuple[type, str, object]] = []

    def wrap(self, owner, attr: str, make: Callable) -> bool:
        """Replace ``owner.attr`` by ``make(original)``.

        Only an attribute the class defines itself is wrapped, so that
        restoring it cannot plant a copy on a subclass.  Returns whether
        the attribute was there to wrap.
        """
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            return False
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _class(module: str, name: str):
    return getattr(importlib.import_module(module), name, None)


@contextmanager
def installed(hooks):
    """Install ``hooks`` (anything with ``install(patches)``) for a while."""
    patches = Patches()
    try:
        hooks.install(patches)
        yield hooks
    finally:
        patches.restore()


class SetupClock:
    """Host seconds from each simulator's construction to its first run."""

    def __init__(self):
        self.seconds = 0.0
        self._born: Dict[int, float] = {}

    def reset(self) -> None:
        self.seconds = 0.0
        self._born.clear()

    def install(self, patches: Patches) -> None:
        simulator = _class("repro.sim.core", "Simulator")
        born = self._born

        def make_init(init):
            @functools.wraps(init)
            def __init__(sim, *args, **kwargs):
                born[id(sim)] = time.perf_counter()
                init(sim, *args, **kwargs)
            return __init__

        def make_run(run):
            @functools.wraps(run)
            def run_(sim, *args, **kwargs):
                start = born.pop(id(sim), None)
                if start is not None:
                    self.seconds += time.perf_counter() - start
                return run(sim, *args, **kwargs)
            return run_

        if not (patches.wrap(simulator, "__init__", make_init)
                and patches.wrap(simulator, "run", make_run)):
            raise RuntimeError("repro.sim.core.Simulator has no "
                               "__init__/run to time set-up against")


class LayerCounts:
    """Exact call counts per layer entry point, plus collected objects.

    ``sim.events`` counts every entry a simulator schedules: each
    simulator's ``_push`` is wrapped as it is built.  Entry points that
    no longer exist are listed in :attr:`missing` and count zero.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.objects: Dict[str, list] = defaultdict(list)
        self.missing: List[str] = []

    def install(self, patches: Patches) -> None:
        calls = self.calls
        for key, module, cls, method in COUNTED:
            def make(original, key=key):
                @functools.wraps(original)
                def counted(*args, **kwargs):
                    calls[key] += 1
                    return original(*args, **kwargs)
                return counted
            if not patches.wrap(_class(module, cls), method, make):
                self.missing.append(f"{module}.{cls}.{method}")
        for kind, module, cls in COLLECTED:
            def make_init(init, kind=kind):
                @functools.wraps(init)
                def __init__(obj, *args, **kwargs):
                    init(obj, *args, **kwargs)
                    self.objects[kind].append(obj)
                return __init__
            if not patches.wrap(_class(module, cls), "__init__", make_init):
                self.missing.append(f"{module}.{cls}")

        def make_sim_init(init):
            @functools.wraps(init)
            def __init__(sim, *args, **kwargs):
                init(sim, *args, **kwargs)
                push = sim._push

                def counted_push(when, event):
                    calls["sim.events"] += 1
                    push(when, event)
                sim._push = counted_push
            return __init__
        if not patches.wrap(_class("repro.sim.core", "Simulator"),
                            "__init__", make_sim_init):
            self.missing.append("repro.sim.core.Simulator")

    def total(self, kind: str, attr: str) -> int:
        """Sum of a dotted attribute over the collected ``kind`` objects."""
        total = 0
        for obj in self.objects[kind]:
            for part in attr.split("."):
                obj = getattr(obj, part, 0)
            total += obj
        return total


def layer_of(filename: str):
    """The layer a source file belongs to, or None for stdlib/builtins.

    Modules at the top of ``repro`` (the CLI) form the layer ``repro``;
    the benchmark's own files form ``perfbench``.
    """
    if filename.startswith(REPRO_DIR):
        head = filename[len(REPRO_DIR):].split(os.sep)[0]
        return "repro" if head.endswith(".py") else head
    if filename.startswith(HERE + os.sep):
        return "perfbench"
    return None


def self_seconds_by_layer(stats: dict) -> Dict[str, float]:
    """Charge every profiled function's self time to a layer.

    ``stats`` is :attr:`pstats.Stats.stats`.  A function outside every
    layer (a builtin, the standard library) is charged per caller, with
    the self time cProfile recorded under that caller; a caller outside
    every layer passes its charge on to its own callers in proportion to
    the time each spent in it.
    """
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func) -> Dict[str, float]:
        layer = layer_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        owners[func] = {}  # cycle guard
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[3] for entry in callers.values())
        share: Dict[str, float] = defaultdict(float)
        for caller, entry in callers.items():
            weight = entry[3] / total if total else 1.0 / len(callers)
            for layer, part in owner(caller).items():
                share[layer] += weight * part
        owners[func] = dict(share) or {"other": 1.0}
        return owners[func]

    seconds: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            seconds[layer] += tt
        elif not callers:
            seconds["other"] += tt
        else:
            for caller, entry in callers.items():
                for name, part in owner(caller).items():
                    seconds[name] += entry[2] * part
    return dict(seconds)


def profile_layers(fn: Callable):
    """Run ``fn()`` under cProfile; return its result, wall time, shares."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    seconds = self_seconds_by_layer(pstats.Stats(profiler).stats)
    total = sum(seconds.values()) or 1.0
    return result, wall, {layer: part / total
                          for layer, part in seconds.items()}


#: name -> (unit, better, what it should move); the ``moves`` notes name
#: the end-to-end metric and workload a change to the layer shows up in.
PER_LAYER = {
    "sim.events_per_op": ("count/op", "lower",
                          "ops_per_s on replay-read and chaos-mixed most"),
    "sim.processes_per_op": ("count/op", "lower",
                             "ops_per_s on replay-read and chaos-mixed"),
    "sim.us_per_event": ("us", "lower",
                         "ops_per_s on every workload"),
    "sim.self_share": ("fraction", "lower",
                       "ops_per_s on replay-read most, ns-edit least"),
    "net.frames_per_op": ("count/op", "lower", "ops_per_s on replay-read"),
    "net.transport_sends_per_op": ("count/op", "lower",
                                   "ops_per_s on replay-read"),
    "net.rpc_calls_per_op": ("count/op", "lower",
                             "ops_per_s on replay-read and ns-edit"),
    "net.rpc_retransmits_per_call": ("fraction", "lower",
                                     "ops_per_s on chaos-mixed"),
    "net.self_share": ("fraction", "lower", "ops_per_s on replay-read"),
    "host.cpu_charges_per_op": ("count/op", "lower",
                                "ops_per_s on replay-read"),
    "host.self_share": ("fraction", "lower", "ops_per_s on replay-read"),
    "nfs.server_requests_per_op": ("count/op", "lower",
                                   "ops_per_s on ns-edit"),
    "nfs.client.attr_hit_rate": ("fraction", "higher",
                                 "ops_per_s on ns-edit"),
    "nfs.client.lookup_hit_rate": ("fraction", "higher",
                                   "ops_per_s on ns-edit"),
    "nfs.server.nfsheur_hit_rate": ("fraction", "higher",
                                    "ops_per_s on replay-read"),
    "nfs.self_share": ("fraction", "lower", "ops_per_s on ns-edit"),
    "readahead.self_share": ("fraction", "lower",
                             "ops_per_s on ns-edit; replay-read unchanged"),
    "kernel.cache_reads_per_op": ("count/op", "lower",
                                  "ops_per_s on ns-edit"),
    "kernel.cache_hit_rate": ("fraction", "higher",
                              "ops_per_s on ns-edit"),
    "kernel.self_share": ("fraction", "lower",
                          "ops_per_s on ns-edit; replay-read unchanged"),
    "disk.requests_per_op": ("count/op", "lower", "ops_per_s on ns-edit"),
    "disk.cache_hit_rate": ("fraction", "higher", "ops_per_s on ns-edit"),
    "disk.self_share": ("fraction", "lower",
                        "ops_per_s on ns-edit; replay-read unchanged"),
    "ffs.journal_commits_per_op": ("count/op", "lower",
                                   "ops_per_s on ns-edit"),
    "ffs.resolves_per_op": ("count/op", "lower",
                            "ops_per_s and setup_s on ns-edit"),
    "ffs.self_share": ("fraction", "lower",
                       "ops_per_s and setup_s on ns-edit"),
    "faults.self_share": ("fraction", "lower",
                          "ops_per_s and setup_s on chaos-mixed"),
    "chaos.self_share": ("fraction", "lower",
                         "ops_per_s and setup_s on chaos-mixed"),
    "replay.self_share": ("fraction", "lower",
                          "ops_per_s on replay-read and replay-diagnose"),
    "workloads.self_share": ("fraction", "lower", "ops_per_s on ns-edit"),
    "obs.spans_per_op": ("count/op", "lower",
                         "ops_per_s on replay-diagnose"),
    "obs.prov_records_per_op": ("count/op", "lower",
                                "ops_per_s on replay-diagnose"),
    "obs.export_s": ("s", "lower", "ops_per_s on replay-diagnose"),
    "obs.self_share": ("fraction", "lower",
                       "ops_per_s on replay-diagnose; ~0 elsewhere"),
    "diagnose.load_s": ("s", "lower", "ops_per_s on replay-diagnose"),
    "diagnose.attribute_s": ("s", "lower", "ops_per_s on replay-diagnose"),
    "diagnose.explain_s": ("s", "lower", "ops_per_s on replay-diagnose"),
    "diagnose.self_share": ("fraction", "lower",
                            "ops_per_s on replay-diagnose"),
    "bench.trace_overhead": ("ratio", "lower",
                             "nothing: the cost of this traced run"),
}

#: Per-layer phase timings; a workload without the phase reports the
#: host time of an empty phase.
PHASES = ("obs.export_s", "diagnose.load_s", "diagnose.attribute_s",
          "diagnose.explain_s")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(counts: LayerCounts, ops: int, counts_extra: dict,
                  shares: Dict[str, float], phases: Dict[str, float],
                  op_wall_s: float, overhead: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one counted and one profiled
    batch of ``ops`` operations; ``op_wall_s`` is the untraced batch's
    host time with set-up excluded."""
    calls = counts.calls
    total = counts.total
    events = calls["sim.events"]
    values = {
        "sim.events_per_op": events / ops,
        "sim.processes_per_op": calls["sim.processes"] / ops,
        "sim.us_per_event": _ratio(op_wall_s * 1e6, events),
        "net.frames_per_op": calls["net.frames"] / ops,
        "net.transport_sends_per_op": calls["net.transport_sends"] / ops,
        "net.rpc_calls_per_op": calls["net.rpc_calls"] / ops,
        "net.rpc_retransmits_per_call": _ratio(
            total("rpc_clients", "retransmitted"), calls["net.rpc_calls"]),
        "host.cpu_charges_per_op": calls["host.cpu_charges"] / ops,
        "nfs.server_requests_per_op": calls["nfs.server_requests"] / ops,
        "nfs.client.attr_hit_rate": _ratio(
            total("mounts", "stats.attr_hits"),
            total("mounts", "stats.attr_hits")
            + total("mounts", "stats.attr_misses")),
        "nfs.client.lookup_hit_rate": _ratio(
            total("mounts", "stats.lookup_cache_hits"),
            total("mounts", "stats.lookup_cache_hits")
            + total("mounts", "stats.lookup_rpcs")),
        "nfs.server.nfsheur_hit_rate": _ratio(
            total("servers", "nfsheur.stats.hits"),
            total("servers", "nfsheur.stats.lookups")),
        "kernel.cache_reads_per_op": calls["kernel.cache_reads"] / ops,
        "kernel.cache_hit_rate": _ratio(
            total("caches", "stats.hits"),
            total("caches", "stats.hits") + total("caches", "stats.misses")
            + total("caches", "stats.waits_on_inflight")),
        "disk.requests_per_op": total("drives", "stats.requests") / ops,
        "disk.cache_hit_rate": _ratio(total("drives", "stats.cache_hits"),
                                      total("drives", "stats.requests")),
        "ffs.journal_commits_per_op": calls["ffs.journal_commits"] / ops,
        "ffs.resolves_per_op": calls["ffs.resolves"] / ops,
        "obs.spans_per_op": counts_extra.get("obs.spans", 0) / ops,
        "obs.prov_records_per_op":
            counts_extra.get("obs.prov_records", 0) / ops,
        "bench.trace_overhead": overhead,
    }
    values.update(phases)
    for layer in SHARE_LAYERS:
        values[f"{layer}.self_share"] = shares.get(layer, 0.0)
    return {name: values[name] for name in PER_LAYER}

"""Namespace (metadata) workloads: big directory trees, small I/O.

The paper's benchmark — like most NFS benchmarks it critiques — moves
bulk data through a handful of large files, so LOOKUP and GETATTR are
rounding errors.  Real mail spools, source trees, and home directories
are the opposite: tens of thousands of names, and a request mix
dominated by the namespace procedures.  This module generates that
shape deterministically:

* :class:`NamespaceTreeSpec` — a 10k–50k-file tree, flat (one huge
  directory, the mail-spool trap) or nested (fanout^depth leaf
  directories, the source-tree shape).
* :class:`NamespaceWorkload` — the access pattern driven over it:
  ``stat`` (Zipf-popular attribute probes), ``list`` (READDIR sweeps),
  ``grep`` (list a directory, then read every file's head), ``untar``
  (create a fresh subtree), ``edit`` (the editor save dance:
  write-temp + rename-over).
* :func:`run_namespace_once` — one seeded run on a fresh testbed;
  returns operation throughput and the cache/RPC counters the
  detectors consume.

Everything is a pure function of ``(config, tree, workload)``: file
population, Zipf draws, and interleaving all derive from the config
seed, so runs are byte-identical across processes and kernels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterator, List, Sequence, Tuple

from ..host.testbed import TestbedConfig, build_nfs_testbed
from ..replay.scale import _zipf_pick, zipf_weights
from ..sim.rand import derive_seed

#: Access patterns a workload may name.
PATTERNS = ("stat", "list", "grep", "untar", "edit")
#: Every tree lives under this top directory (``untar`` creates
#: ``<TREE_PREFIX>.untar`` beside it).
TREE_PREFIX = "ns"
#: Size of every file in a tree and of every file ``untar``/``edit``
#: create.
FILE_SIZE = 8 * 1024
#: Files whose heads ``grep`` reads per listed directory.
GREP_FILES = 64
#: Zipf exponent of the file and directory popularity draws.
ZIPF_S = 1.1


@dataclass(frozen=True)
class NamespaceTreeSpec:
    """A deterministic file population.

    ``depth=0`` puts every file in one directory — the flat mail-spool
    shape whose lookups and listings scale with the directory itself.
    ``depth>0`` spreads files round-robin over ``fanout**depth`` leaf
    directories, and needs at least one file per leaf: a leaf with no
    file is never created, so a workload would list or stat a
    directory that does not exist.
    """

    files: int = 10_000
    depth: int = 0
    fanout: int = 32

    def __post_init__(self):
        if self.files < 1:
            raise ValueError("need at least one file")
        if self.depth < 0:
            raise ValueError("depth cannot be negative")
        if self.depth and self.fanout < 2:
            raise ValueError("nested trees need fanout >= 2")
        # Multiply up to the first product above ``files`` rather than
        # evaluate fanout**depth, which deep trees make astronomical.
        leaves = 1
        for _ in range(self.depth):
            leaves *= self.fanout
            if leaves > self.files:
                raise ValueError(
                    f"{self.fanout}**{self.depth} leaf directories need "
                    f"at least as many files, got {self.files}")

    @property
    def leaf_dirs(self) -> int:
        return self.fanout ** self.depth

    def dir_paths(self) -> List[str]:
        """Every leaf directory, in deterministic order."""
        if self.depth == 0:
            return [TREE_PREFIX]
        dirs = []
        for index in range(self.leaf_dirs):
            digits = []
            value = index
            for _ in range(self.depth):
                digits.append(value % self.fanout)
                value //= self.fanout
            dirs.append(TREE_PREFIX + "".join(
                f"/d{digit:02d}" for digit in reversed(digits)))
        return dirs

    def paths(self) -> Iterator[Tuple[str, int]]:
        """Every ``(path, size)``, files round-robin over leaf dirs."""
        dirs = self.dir_paths()
        for index in range(self.files):
            yield f"{dirs[index % len(dirs)]}/f{index:06d}", FILE_SIZE


@dataclass(frozen=True)
class NamespaceWorkload:
    """The access pattern driven over a tree."""

    pattern: str = "stat"
    ops: int = 1_000

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown namespace pattern "
                             f"{self.pattern!r}; pick one of {PATTERNS}")
        if self.ops < 1:
            raise ValueError("need at least one operation")


@dataclass
class NamespaceRunResult:
    """One namespace run's counters."""

    ops: int = 0
    errors: int = 0
    elapsed: float = 0.0
    files: int = 0
    mount_stats: Dict[str, int] = field(default_factory=dict)
    server_stats: Dict[str, int] = field(default_factory=dict)
    metrics: dict = None
    #: Captured vnode-boundary trace (``None`` unless the testbed ran
    #: with ``capture_trace=True``); a :class:`repro.replay.TraceFile`.
    trace: object = None

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.elapsed if self.elapsed > 0 else 0.0

    def summary(self) -> dict:
        """Canonical (JSON-able, key-sorted) run summary."""
        return {
            "ops": self.ops,
            "errors": self.errors,
            "elapsed_s": self.elapsed,
            "ops_per_s": self.ops_per_s,
            "files": self.files,
            "mount": dict(sorted(self.mount_stats.items())),
            "server": dict(sorted(self.server_stats.items())),
        }


class _Zipf:
    """A seeded Zipf sampler over a fixed population."""

    def __init__(self, population: Sequence[str], s: float,
                 rng: random.Random):
        self._population = list(population)
        weights = zipf_weights(len(self._population), s)
        self._total = sum(weights)
        self._cumulative = list(accumulate(weights))
        self._rng = rng

    def pick(self) -> str:
        return self._population[
            _zipf_pick(self._cumulative, self._total, self._rng)]


def _driver(sim, mount, tree: NamespaceTreeSpec,
            workload: NamespaceWorkload, ops: int, rng: random.Random,
            result: NamespaceRunResult, client: int):
    """One client's operation stream (generator process)."""
    files = [path for path, _size in tree.paths()]
    zipf_files = _Zipf(files, ZIPF_S, rng)
    dirs = tree.dir_paths()
    zipf_dirs = _Zipf(dirs, ZIPF_S, rng)
    #: Directory listings, cached per driver like a shell's glob state.
    listings: Dict[str, List[str]] = {}
    #: Directories this driver has already mkdir'd (untar).
    made_dirs: set = set()
    for index in range(ops):
        try:
            if workload.pattern == "stat":
                yield from mount.stat(zipf_files.pick())
            elif workload.pattern == "list":
                yield from mount.readdir(zipf_dirs.pick())
            elif workload.pattern == "grep":
                directory = zipf_dirs.pick()
                names = listings.get(directory)
                if names is None:
                    names = yield from mount.readdir(directory)
                    listings[directory] = names
                for name in names[:GREP_FILES]:
                    nfile = yield from mount.open(f"{directory}/{name}")
                    yield from mount.read(nfile, 0, 1)
            elif workload.pattern == "untar":
                parent = f"{TREE_PREFIX}.untar/c{client}"
                if parent not in made_dirs:
                    yield from mount.mkdir(f"{TREE_PREFIX}.untar")
                    yield from mount.mkdir(parent)
                    made_dirs.add(parent)
                yield from mount.create(f"{parent}/f{index:06d}",
                                        size=FILE_SIZE)
                yield from mount.touch(f"{parent}/f{index:06d}",
                                       mtime=sim.now)
            elif workload.pattern == "edit":
                target = zipf_files.pick()
                yield from mount.stat(target)
                nfile = yield from mount.open(target)
                yield from mount.read(nfile, 0, 1)
                temp = f"{target}.tmp{client}"
                yield from mount.create(temp, size=FILE_SIZE)
                yield from mount.rename(temp, target)
        except OSError:
            result.errors += 1
            continue
        result.ops += 1


_MOUNT_STATS = ("path_walks", "path_components", "lookup_rpcs",
                "lookup_cache_hits", "attr_hits", "attr_misses",
                "attr_checks", "stale_attr_hits", "cto_getattrs",
                "readdir_listings", "readdir_rpcs", "readdir_entries",
                "readdir_restarts")
_SERVER_STATS = ("lookups", "lookup_misses", "getattrs", "setattrs",
                 "readdirs", "readdir_entries", "creates", "mkdirs",
                 "removes", "renames", "stale_handles", "bad_cookies",
                 "reads")


def run_namespace_once(config: TestbedConfig,
                       tree: NamespaceTreeSpec = NamespaceTreeSpec(),
                       workload: NamespaceWorkload = NamespaceWorkload()
                       ) -> NamespaceRunResult:
    """One namespace-workload run on a fresh testbed.

    Operations are split evenly over the testbed's client machines;
    each client's Zipf stream is seeded independently from the config
    seed.
    """
    testbed = build_nfs_testbed(config)
    for path, size in tree.paths():
        testbed.server.export_file(path, size)
    result = NamespaceRunResult(files=tree.files)
    nclients = max(1, config.num_clients)
    share = -(-workload.ops // nclients)
    processes = []
    for client in range(nclients):
        ops = min(share, workload.ops - client * share)
        if ops <= 0:
            break
        rng = random.Random(derive_seed(
            config.seed, f"workload.namespace.{workload.pattern}"
                         f".{client}"))
        mount = testbed.mount_for(client)
        processes.append(testbed.sim.spawn(
            _driver(testbed.sim, mount, tree, workload, ops, rng,
                    result, client),
            name=f"namespace:{workload.pattern}:{client}"))
    result.metrics = testbed.run(processes)
    result.elapsed = testbed.sim.now
    for name in _MOUNT_STATS:
        result.mount_stats[name] = sum(
            getattr(mount.stats, name) for mount in testbed.mounts)
    for name in _SERVER_STATS:
        result.server_stats[name] = getattr(testbed.server.stats, name)
    result.trace = testbed.capture_trace_file()
    return result

"""Mixed read/write/metadata workloads — the paper's §8 future work.

The paper's benchmarks are pure reads; §8 plans "adding a large number
of metadata and write requests to the workload".  This runner does
exactly that: ``nreaders`` sequential readers (the §4.2 benchmark) run
to completion while ``nwriters`` processes overwrite their own files
block by block and ``nstatters`` processes issue a steady GETATTR
stream.  Reported throughput is the *readers'* — the question is how
much the background traffic erodes the read-ahead gains.
"""

from __future__ import annotations

import functools

from ..host.testbed import TestbedConfig, build_nfs_testbed
from .fileset import FileSpec, files_for_readers
from .readers import ReaderResult, sequential_reader
from .runner import MB, RunResult


def run_mixed_once(config: TestbedConfig, nreaders: int,
                   nwriters: int = 0, nstatters: int = 0,
                   scale: float = 1.0,
                   write_file_mb: int = 32) -> RunResult:
    """One run of the mixed workload; returns the readers' RunResult."""
    testbed = build_nfs_testbed(config)
    read_specs = files_for_readers(nreaders, scale)
    for spec in read_specs:
        testbed.server.export_file(spec.name, spec.size)
    write_size = max(testbed.mount.config.read_size,
                     int(write_file_mb * MB * scale))
    write_specs = [FileSpec(name=f"wr{index}", size=write_size)
                   for index in range(nwriters)]
    for spec in write_specs:
        testbed.server.export_file(spec.name, spec.size)

    results = [ReaderResult(spec.name) for spec in read_specs]
    reader_processes = []
    stop_flag = {"done": 0}
    mount = testbed.mount
    for spec, result in zip(read_specs, results):
        process = testbed.sim.spawn(
            sequential_reader(testbed.sim,
                              functools.partial(mount.open, spec.name),
                              mount.read, spec.size, result,
                              tracer=testbed.obs.tracer),
            name=f"reader:{spec.name}")
        process.add_callback(
            lambda _ev: stop_flag.__setitem__(
                "done", stop_flag["done"] + 1))
        reader_processes.append(process)

    def writer(sim, spec):
        nfile = yield from testbed.mount.open(spec.name)
        block = testbed.mount.config.read_size
        offset = 0
        while stop_flag["done"] < nreaders:
            yield from testbed.mount.write(nfile, offset, block)
            offset = (offset + block) % spec.size
            if offset == 0:
                yield from testbed.mount.commit(nfile)
        return None

    def statter(sim, name):
        nfile = yield from testbed.mount.open(name)
        while stop_flag["done"] < nreaders:
            yield from testbed.mount.getattr(nfile)
            yield sim.timeout(0.002)
        return None

    for spec in write_specs:
        testbed.sim.spawn(writer(testbed.sim, spec),
                          name=f"writer:{spec.name}")
    for index in range(nstatters):
        target = read_specs[index % len(read_specs)].name
        testbed.sim.spawn(statter(testbed.sim, target),
                          name=f"statter{index}")

    metrics = testbed.run(reader_processes)
    return RunResult(readers=results,
                     total_bytes=sum(r.bytes_read for r in results),
                     metrics=metrics)

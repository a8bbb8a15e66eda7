"""Model-based property test: the intent log vs its full-scan rules.

:class:`MetaJournal` commits only the volatile suffix past a watermark
and drops durable records a ring behind the log head.  The rules it
must still follow are the plain ones: a commit covers every
non-durable record up to its own LSN, marks them durable only if no
crash interposed, and a crash undoes the applied volatile records
newest first and answers retransmissions from the durable records of
the last ring.  :class:`ReferenceLog` keeps those rules over a log
that is never trimmed.

Hypothesis drives a journal on a real testbed's file system (its
buffer cache and disk, so flushes take simulated time) through random
appends, applies, overlapping commits, crashes that land while
commits are in flight, and intents that are applied but never
committed (what the ack-before-intent hook leaves behind).  After every
step the durable flags, every commit's block list and outcome, and the
retained records must agree with the reference; every crash must undo
the same records in the same order and rebuild the same replay map.
A one- or two-block ring (64 records a block) makes the ring roll
within one example.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ffs.metajournal import MetaJournal
from repro.host.testbed import TestbedConfig, build_nfs_testbed


class ReferenceLog:
    """The journal's rules as full scans over an untrimmed log."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.records = []
        self.next_lsn = 0
        self.generation = 0

    def append(self, lsn, blkno, rpc_key):
        assert lsn == self.next_lsn
        self.next_lsn += 1
        record = SimpleNamespace(lsn=lsn, blkno=blkno, rpc_key=rpc_key,
                                 reply=None, applied=False, durable=False)
        self.records.append(record)
        return record

    def pending(self, lsn):
        return [r for r in self.records if not r.durable and r.lsn <= lsn]

    def crash(self):
        """(LSNs to undo, newest first; the replay map)."""
        self.generation += 1
        undo = [r.lsn for r in reversed(self.records)
                if not r.durable and r.applied]
        self.records = [r for r in self.records if r.durable]
        floor = self.next_lsn - self.capacity
        replay = {r.rpc_key: r.reply for r in self.records
                  if r.lsn >= floor and r.rpc_key is not None
                  and r.reply is not None}
        return undo, replay


def _failing(lsn: int) -> bool:
    """Some undos raise, so crash's failure list is exercised too."""
    return lsn % 5 == 4


steps = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 24)),
        st.tuples(st.just("apply"), st.integers(0, 10_000)),
        st.tuples(st.just("commit"), st.integers(0, 10_000)),
        st.tuples(st.just("edit"), st.integers(1, 40)),
        st.tuples(st.just("run"),
                  st.sampled_from([0.0, 0.002, 0.02, 1.0])),
        st.tuples(st.just("crash"), st.just(0)),
    ),
    min_size=1, max_size=60)


@given(st.integers(1, 2), steps)
# A crash lands while three commits are in flight.
@example(1, [("edit", 3), ("crash", 0), ("edit", 2), ("run", 0.02)])
# A commit starts only after a crash dropped its record.
@example(1, [("append", 1), ("commit", 0), ("append", 1), ("crash", 0),
             ("append", 2)])
# The watermark stops at the first record a finished commit did not
# cover.
@example(1, [("edit", 1), ("append", 1), ("run", 0.02), ("commit", 1),
             ("run", 1.0)])
# The ring rolls: durable records are dropped, then a crash.
@example(1, [("edit", 70), ("run", 1.0), ("append", 3), ("edit", 1),
             ("crash", 0)])
# Intents never committed fall a ring behind the head; a commit of an
# older record must not drop them.
@example(1, [("edit", 1), ("append", 70), ("apply", 5), ("run", 1.0),
             ("crash", 0)])
@settings(max_examples=100, deadline=None)
def test_journal_matches_full_scan_reference(nblocks, ops):
    testbed = build_nfs_testbed(TestbedConfig(seed=5))
    sim = testbed.sim
    journal = MetaJournal(testbed.server.fs, nblocks=nblocks)
    ref = ReferenceLog(journal.capacity)
    cache = journal.fs.cache
    flushed = []    # block list of every sync_blocks call, in order
    real_sync = cache.sync_blocks

    def sync_blocks(blknos):
        flushed.append(list(blknos))
        return real_sync(blknos)

    cache.sync_blocks = sync_blocks
    appended = []   # (journal record, reference record), every boot
    expected_flushes = []   # (index into flushed, expected blocks)
    outcomes = []   # (commit's result, reference's result)
    undo_log = []

    def append():
        real = journal.append("create", (f"d/f{len(appended)}",),
                              ("c0", len(appended)) if len(appended) % 3
                              else None)
        model = ref.append(real.lsn, real.blkno, real.rpc_key)
        appended.append((real, model))
        return real, model

    def apply(real, model):
        def undo(lsn=real.lsn):
            undo_log.append(lsn)
            if _failing(lsn):
                raise RuntimeError(f"cannot undo #{lsn}")

        reply = ("reply", real.lsn)
        journal.mark_applied(real, undo)
        journal.set_reply(real, reply)
        model.applied = True
        model.reply = reply

    def committer(real, model):
        generation = ref.generation
        pending = ref.pending(model.lsn)
        expected_flushes.append(
            (len(flushed), sorted({r.blkno for r in pending})))
        ok = yield from journal.commit(real)
        expected_ok = ref.generation == generation
        if expected_ok:
            for entry in pending:
                entry.durable = True
        outcomes.append((ok, expected_ok))

    def check():
        live = {r.lsn for r in ref.records}
        for real, model in appended:
            if model.lsn in live:
                assert real.durable == model.durable, real
        for index, blocks in expected_flushes:
            assert flushed[index] == blocks
        for ok, expected_ok in outcomes:
            assert ok == expected_ok
        kept = [r.lsn for r in journal._records]
        assert kept == sorted(kept)
        floor = journal._next_lsn - journal.capacity
        needed = {r.lsn for r in ref.records
                  if not r.durable or r.lsn >= floor}
        assert needed <= set(kept) <= live
        volatile = sum(1 for r in ref.records if not r.durable)
        assert len(journal._records) <= journal.capacity + volatile

    for op, arg in ops:
        if op == "append":
            for _ in range(arg):
                append()
        elif op == "apply":
            live = {r.lsn for r in ref.records}
            unapplied = [(real, model) for real, model in appended
                         if model.lsn in live and not model.applied]
            if unapplied:
                apply(*unapplied[arg % len(unapplied)])
        elif op == "commit":
            if appended:
                sim.spawn(committer(*appended[arg % len(appended)]))
        elif op == "edit":
            # The server's order: intent, mutation, then a commit that
            # issues its flush before any simulated time passes.
            for _ in range(arg):
                real, model = append()
                apply(real, model)
                sim.spawn(committer(real, model))
                sim.run(until=sim.now)
        elif op == "run":
            sim.run(until=sim.now + arg)
        else:
            expected_undo, expected_replay = ref.crash()
            undo_log.clear()
            undone, failures = journal.crash()
            cache.crash()
            assert undo_log == expected_undo
            failed = [lsn for lsn in expected_undo if _failing(lsn)]
            assert undone == len(expected_undo) - len(failed)
            assert [f.split()[2] for f in failures] == \
                [f"#{lsn}" for lsn in failed]
            assert journal._replay == expected_replay
        check()
    sim.run()
    check()
    assert len(outcomes) == len(expected_flushes)

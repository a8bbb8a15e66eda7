"""Crash consistency of namespace metadata: the intent log end to end.

Hand-built scenarios (no fuzzing) pinning each obligation of the
metadata journal individually: an acknowledged CREATE/MKDIR/RENAME
survives a crash, an unacknowledged one is rolled back cleanly, the
fsck scanner finds nothing to heal after recovery, the ack-before-
intent bug hook loses exactly what it should, and a retried
non-idempotent op that straddles a reboot is answered from the durable
log instead of silently re-executing (the stable-storage replay cache
the RAM dupreq cache cannot be).
"""

import pytest

from repro.faults import FaultSpec, ServerFaults
from repro.host.testbed import TestbedConfig, build_nfs_testbed
from repro.nfs.errors import NfsNoEntryError
from repro.nfs.protocol import (CreateRequest, RemoveRequest,
                                RenameRequest)

CRASH_AT = 0.3
RESTART = 1.0


def _crash_config(**kwargs) -> TestbedConfig:
    kwargs.setdefault("seed", 5)
    return TestbedConfig(
        faults=FaultSpec(server=ServerFaults(
            crash_times=(CRASH_AT,), restart_delay=RESTART)),
        **kwargs)


def _run(testbed, scenario):
    out = {}
    process = testbed.sim.spawn(scenario(testbed, out), name="scenario")
    testbed.sim.run()
    if process.error is not None:
        raise process.error
    assert process.finished
    return out


def _call(server, request, out, key, rpc_key=None):
    """Drive server.handle directly, capturing the reply (or None)."""
    result = yield from server.handle(request, rpc_key=rpc_key)
    out[key] = result[0] if result is not None else None
    return None


class TestJournalDurability:
    def test_acked_create_survives_crash(self):
        testbed = build_nfs_testbed(_crash_config())
        bs = testbed.mount.config.read_size
        testbed.server.export_file("seed", bs)

        def scenario(tb, out):
            yield from tb.mount.create("newfile", 2 * bs)
            yield tb.sim.timeout(CRASH_AT + RESTART + 0.5)
            out["attrs"] = yield from tb.mount.stat("newfile")

        out = _run(testbed, scenario)
        assert out["attrs"].ftype == "reg"
        stats = testbed.server.stats
        assert stats.meta_intents == 1
        assert stats.meta_commits == 1
        assert stats.meta_undone == 0
        report = testbed.server.recovery_reports[0]
        assert report.consistent
        assert report.orphans_reclaimed == 0
        assert report.dangling_repaired == 0

    def test_acked_rename_survives_crash_atomically(self):
        testbed = build_nfs_testbed(_crash_config())
        bs = testbed.mount.config.read_size
        testbed.server.export_file("d/a", bs)

        def scenario(tb, out):
            yield from tb.mount.rename("d/a", "d/b")
            yield tb.sim.timeout(CRASH_AT + RESTART + 0.5)
            out["dst"] = yield from tb.mount.stat("d/b")
            try:
                yield from tb.mount.stat("d/a")
                out["src_present"] = True
            except NfsNoEntryError:
                out["src_present"] = False

        out = _run(testbed, scenario)
        assert out["dst"].ftype == "reg"
        assert out["src_present"] is False
        assert testbed.server.recovery_reports[0].consistent

    def test_journal_off_reverts_to_implicit_durability(self):
        """Without the journal nothing is undone — the pre-journal
        semantics where namespace RAM was implicitly durable."""
        testbed = build_nfs_testbed(
            _crash_config(metadata_journal=False))
        bs = testbed.mount.config.read_size
        testbed.server.export_file("seed", bs)
        assert testbed.server.metajournal is None

        def scenario(tb, out):
            yield from tb.mount.create("newfile", bs)
            yield tb.sim.timeout(CRASH_AT + RESTART + 0.5)
            out["attrs"] = yield from tb.mount.stat("newfile")

        out = _run(testbed, scenario)
        assert out["attrs"].ftype == "reg"
        assert testbed.server.stats.meta_intents == 0
        assert testbed.server.recovery_reports == []


class TestAckBeforeIntentBug:
    def test_acked_create_lost(self):
        testbed = build_nfs_testbed(
            _crash_config(meta_ack_before_intent=True))
        bs = testbed.mount.config.read_size
        testbed.server.export_file("seed", bs)

        def scenario(tb, out):
            yield from tb.mount.create("newfile", bs)
            yield tb.sim.timeout(CRASH_AT + RESTART + 0.5)
            try:
                yield from tb.mount.stat("newfile")
                out["present"] = True
            except NfsNoEntryError:
                out["present"] = False

        out = _run(testbed, scenario)
        assert out["present"] is False
        stats = testbed.server.stats
        assert stats.meta_undone == 1
        assert stats.meta_commits == 0
        # The rollback itself is clean: fsck found nothing dangling.
        assert testbed.server.recovery_reports[0].consistent

    def test_undo_is_reverse_ordered_and_complete(self):
        """A create + rename chain on the same name unwinds cleanly."""
        testbed = build_nfs_testbed(
            _crash_config(meta_ack_before_intent=True))
        bs = testbed.mount.config.read_size
        testbed.server.export_file("d/seed", bs)

        def scenario(tb, out):
            yield from tb.mount.create("d/x", bs)
            yield from tb.mount.rename("d/x", "d/y")
            yield tb.sim.timeout(CRASH_AT + RESTART + 0.5)
            out["names"] = sorted((yield from tb.mount.readdir("d")))

        out = _run(testbed, scenario)
        assert out["names"] == ["seed"]
        assert testbed.server.stats.meta_undone == 2
        assert testbed.server.recovery_reports[0].consistent


class TestCrossBootReplay:
    """Satellite: the dupreq cache dies with the boot; the intent log
    does not.  A retried REMOVE whose original was acknowledged just
    before the crash must be answered from the recovered journal."""

    def _setup(self, **kwargs):
        config = TestbedConfig(seed=5, **kwargs)
        testbed = build_nfs_testbed(config)
        bs = testbed.mount.config.read_size
        testbed.server.export_file("d/victim", bs)
        return testbed

    def _remove_request(self, testbed):
        return RemoveRequest(dir=testbed.server.fh_of("d"),
                             name="victim")

    def test_journal_replays_retried_remove_across_reboot(self):
        testbed = self._setup()
        server = testbed.server
        request = self._remove_request(testbed)
        out = {}

        def scenario(tb, _out):
            yield from _call(server, request, out, "first",
                             rpc_key=("c0", 7))
            server._crash()
            yield from _call(server, request, out, "retry",
                             rpc_key=("c0", 7))

        _run(testbed, scenario)
        assert out["first"].status == "ok"
        # The retry is served the recorded reply — not re-executed.
        assert out["retry"].status == "ok"
        assert server.stats.meta_replays == 1
        assert server.stats.removes == 1
        assert server.stats.cross_boot_meta_reexecutions == 0

    def test_without_journal_retry_reexecutes_as_noent(self):
        """The trap the stable-storage cache closes: with only the RAM
        dupreq cache, the retried REMOVE re-executes after the reboot
        and answers noent for an op the server already acknowledged."""
        testbed = self._setup(metadata_journal=False)
        server = testbed.server
        request = self._remove_request(testbed)
        out = {}

        def scenario(tb, _out):
            yield from _call(server, request, out, "first",
                             rpc_key=("c0", 7))
            server._crash()
            yield from _call(server, request, out, "retry",
                             rpc_key=("c0", 7))

        _run(testbed, scenario)
        assert out["first"].status == "ok"
        assert out["retry"].status == "noent"
        assert server.stats.cross_boot_meta_reexecutions == 1

    def test_replay_window_is_bounded_by_journal_capacity(self):
        from repro.ffs.metajournal import (DEFAULT_JOURNAL_BLOCKS,
                                           RECORDS_PER_BLOCK)
        testbed = self._setup()
        journal = testbed.server.metajournal
        expected = DEFAULT_JOURNAL_BLOCKS * RECORDS_PER_BLOCK
        assert journal.capacity == expected


class TestDeadEpochRequests:
    """A metadata op suspended across a reboot (nfsd stall bracketing
    a crash) must not execute when its handler resumes: the boot that
    accepted it is gone, and executing anyway would mutate the
    namespace durably while the epoch guard drops the reply — a silent
    mutation whose retransmission then re-executes and answers noent.
    Found by the 200-schedule metadata campaign (seed 0, schedule 119)
    and pinned here as a hand-built scenario."""

    def _stall_crash_config(self, **kwargs):
        kwargs.setdefault("seed", 5)
        return TestbedConfig(
            faults=FaultSpec(server=ServerFaults(
                stall_times=(0.2,), stall_duration=1.0,
                crash_times=(0.5,), restart_delay=0.1)),
            **kwargs)

    def test_stalled_rename_is_dropped_not_silently_executed(self):
        testbed = build_nfs_testbed(self._stall_crash_config())
        bs = testbed.mount.config.read_size
        testbed.server.export_file("d/a", bs)

        def scenario(tb, out):
            # Arrives during the stall; the crash at 0.5 lands while
            # the handler sleeps.  The retransmission must execute the
            # rename exactly once, post-reboot.
            yield tb.sim.timeout(0.25)
            yield from tb.mount.rename("d/a", "d/b")
            out["dst"] = yield from tb.mount.stat("d/b")

        out = _run(testbed, scenario)
        assert out["dst"].ftype == "reg"
        stats = testbed.server.stats
        assert stats.renames == 1
        assert stats.meta_intents == stats.meta_commits == 1
        assert stats.cross_boot_meta_reexecutions == 0


class TestJournalInternals:
    def test_commit_is_prefix_durable(self):
        """Committing record N marks every earlier record durable —
        group commit, so durability is always a prefix of LSN order."""
        testbed = build_nfs_testbed(TestbedConfig(seed=5))
        bs = testbed.mount.config.read_size
        testbed.server.export_file("d/seed", bs)
        server = testbed.server
        journal = server.metajournal

        def scenario(tb, out):
            yield from tb.mount.create("d/a", bs)
            yield from tb.mount.create("d/b", bs)

        _run(testbed, scenario)
        assert [r.durable for r in journal._records] == [True, True]
        assert journal._records[0].lsn < journal._records[1].lsn

    def test_aborted_intent_is_inert_across_crash(self):
        """A rename whose precondition fails after the intent was
        appended stays !applied; crash recovery must skip it."""
        testbed = build_nfs_testbed(TestbedConfig(seed=5))
        bs = testbed.mount.config.read_size
        testbed.server.export_file("d/src", bs)
        testbed.server.export_file("d/sub/seed", bs)
        server = testbed.server
        request = RenameRequest(
            from_dir=server.fh_of("d"), from_name="src",
            to_dir=server.fh_of("d"), to_name="sub")
        out = {}

        def scenario(tb, _out):
            yield from _call(server, request, out, "reply",
                             rpc_key=("c0", 3))
            server._crash()

        _run(testbed, scenario)
        assert out["reply"].status == "isdir"
        assert server.stats.meta_undone == 0
        assert server.recovery_reports[0].consistent

"""Property-based tests for the Namespace tree (hypothesis).

The generator scripts random CREATE/MKDIR/REMOVE/RENAME sequences over
a small name pool — precondition failures included — and checks, after
every script, the invariants the fsck scanner enforces: the tree passes
:func:`verify_namespace` with zero violations, the flat ``files`` view
equals the set of reachable regular files, and a shadow model updated
only from *successful* operations agrees exactly with the tree.  A
second battery corrupts a healthy tree on purpose and proves
:func:`scan_and_heal` repairs it back to a verifiably consistent state.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import Partition, WDC_WD200BB
from repro.ffs.namespace import ENTRIES_PER_BLOCK
from repro.ffs import (FileSystem, SequentialAllocator, scan_and_heal,
                       verify_namespace)
from repro.kernel import BufferCache, DiskIoScheduler
from repro.sim import Simulator

BLOCK = 8 * 1024

#: The deliberately tiny path pool: heavy collision pressure, so the
#: scripts hit exists/noent/isdir/notempty preconditions constantly.
NAMES = ["a", "b", "c", "d0/a", "d0/b", "d1/a", "d0", "d1", "d0/s"]

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("create"), st.sampled_from(NAMES)),
        st.tuples(st.just("mkdir"), st.sampled_from(NAMES)),
        st.tuples(st.just("remove"), st.sampled_from(NAMES)),
        st.tuples(st.just("rename"),
                  st.tuples(st.sampled_from(NAMES),
                            st.sampled_from(NAMES))),
    ),
    max_size=60,
)

#: Everything the namespace's mutation verbs may legitimately raise.
EXPECTED = (FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, OSError, ValueError)


def build_namespace():
    sim = Simulator()
    drive = WDC_WD200BB.build(sim)
    iosched = DiskIoScheduler(sim, drive)
    cache = BufferCache(sim, iosched, capacity_bytes=8 << 20)
    allocator = SequentialAllocator(
        Partition("p1", first_lba=0, sectors=4_000_000))
    return FileSystem(sim, cache, allocator).namespace


class Model:
    """Shadow state: path -> "file" | "dir", fed only acked ops."""

    def __init__(self):
        self.nodes = {}

    def create(self, path):
        self.nodes[path] = "file"

    def mkdir(self, path):
        self.nodes[path] = "dir"

    def remove(self, path):
        del self.nodes[path]

    def rename(self, src, dst):
        moved = {}
        for path in list(self.nodes):
            if path == src:
                moved[dst] = self.nodes.pop(path)
            elif path.startswith(src + "/"):
                moved[dst + path[len(src):]] = self.nodes.pop(path)
        self.nodes.pop(dst, None)  # an empty-dir/file target is replaced
        self.nodes.update(moved)

    @property
    def files(self):
        return {p for p, t in self.nodes.items() if t == "file"}

    @property
    def dirs(self):
        return {p for p, t in self.nodes.items() if t == "dir"}


def apply_script(ns, script):
    """Run the script; return the model of what actually succeeded."""
    model = Model()
    for op, arg in script:
        try:
            if op == "create":
                ns.create(arg, BLOCK)
                model.create(arg)
            elif op == "mkdir":
                ns.mkdir(arg)
                model.mkdir(arg)
            elif op == "remove":
                ns.remove(arg)
                model.remove(arg)
            else:
                src, dst = arg
                if dst == src or dst.startswith(src + "/"):
                    continue  # cycle-making renames are out of scope
                ns.rename(src, dst)
                model.rename(src, dst)
        except EXPECTED:
            pass
    return model


class TestNamespaceInvariants:
    @given(script=OPS)
    @settings(max_examples=60, deadline=None)
    def test_tree_is_always_verifiably_consistent(self, script):
        ns = build_namespace()
        apply_script(ns, script)
        assert verify_namespace(ns) == []

    @given(script=OPS)
    @settings(max_examples=60, deadline=None)
    def test_tree_matches_the_acked_op_model(self, script):
        ns = build_namespace()
        model = apply_script(ns, script)
        assert set(ns.files) == model.files
        dirs = {path for path, _ in ns.walk_dirs() if path}
        assert dirs == model.dirs

    @given(script=OPS)
    @settings(max_examples=40, deadline=None)
    def test_fsck_on_a_healthy_tree_heals_nothing(self, script):
        ns = build_namespace()
        apply_script(ns, script)
        report = scan_and_heal(ns)
        assert report.consistent
        assert report.orphans_reclaimed == 0
        assert report.dangling_repaired == 0
        assert report.duplicates_dropped == 0
        assert report.slot_repairs == 0

    @given(script=OPS)
    @settings(max_examples=40, deadline=None)
    def test_slot_assignments_stay_dense_and_unique(self, script):
        ns = build_namespace()
        apply_script(ns, script)
        for _, directory in ns.walk_dirs():
            values = sorted(directory.slots.values())
            assert len(set(values)) == len(values)
            assert all(v < directory._next_slot for v in values)
            assert not set(values) & set(directory._free)
            assert directory.slot_count <= (
                directory.inode.nblocks * ENTRIES_PER_BLOCK)


class TestFsckRepairs:
    """Deliberate corruption, then proof the scanner heals it."""

    def _seeded(self):
        ns = build_namespace()
        ns.mkdir("d")
        ns.create("d/keep", BLOCK)
        ns.create("top", BLOCK)
        return ns

    def test_orphan_files_entry_is_reclaimed(self):
        ns = self._seeded()
        ns.files["ghost"] = ns.files["top"]
        report = scan_and_heal(ns)
        assert report.orphans_reclaimed == 1
        assert report.unhealed == ()
        assert verify_namespace(ns) == []

    def test_dangling_tree_entry_is_reregistered(self):
        ns = self._seeded()
        del ns.files["d/keep"]
        report = scan_and_heal(ns)
        assert report.dangling_repaired == 1
        assert "d/keep" in ns.files
        assert verify_namespace(ns) == []

    def test_slot_bookkeeping_is_rebuilt(self):
        ns = self._seeded()
        directory = ns.resolve_dir("d")
        directory.slots["keep"] = directory._next_slot + 7
        report = scan_and_heal(ns)
        assert report.slot_repairs == 1
        assert verify_namespace(ns) == []

    @given(script=OPS)
    @settings(max_examples=25, deadline=None)
    def test_healing_random_orphans_always_converges(self, script):
        ns = build_namespace()
        apply_script(ns, script)
        if ns.files:
            first = sorted(ns.files)[0]
            ns.files["ghost/" + first] = ns.files[first]
        report = scan_and_heal(ns)
        assert report.unhealed == ()
        assert verify_namespace(ns) == []

"""Unit tests for the nfsheur table (§6.3)."""

import pytest

from repro.nfs import (DEFAULT_NFSHEUR, IMPROVED_NFSHEUR, FileHandle,
                       NfsHeurParams, NfsHeurTable)
from repro.nfs.nfsheur import INSTALL_SEQCOUNT

BLOCK = 8 * 1024


def fh(identifier):
    return FileHandle(id=identifier)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NfsHeurParams(table_size=0, max_probes=1)
        with pytest.raises(ValueError):
            NfsHeurParams(table_size=4, max_probes=5)

    def test_slots_within_table(self):
        for params in (DEFAULT_NFSHEUR, IMPROVED_NFSHEUR):
            for identifier in range(1000):
                for probe in range(params.max_probes):
                    slot = params.slot_of(fh(identifier), probe)
                    assert 0 <= slot < params.table_size

    def test_probe_window_is_consecutive(self):
        params = IMPROVED_NFSHEUR
        base = params.slot_of(fh(7), 0)
        for probe in range(params.max_probes):
            assert params.slot_of(fh(7), probe) == \
                (base + probe) % params.table_size

    def test_improved_is_larger(self):
        assert IMPROVED_NFSHEUR.table_size > DEFAULT_NFSHEUR.table_size


class TestLookup:
    def test_install_then_hit(self):
        table = NfsHeurTable(DEFAULT_NFSHEUR)
        first = table.lookup(fh(1), 0)
        second = table.lookup(fh(1), BLOCK)
        assert first is second
        assert table.stats.hits == 1
        assert table.stats.installs == 1

    def test_fresh_entry_primed_with_offset_and_install_count(self):
        table = NfsHeurTable(DEFAULT_NFSHEUR)
        state = table.lookup(fh(1), offset=40 * BLOCK)
        assert state.next_offset == 40 * BLOCK
        assert state.seq_count == INSTALL_SEQCOUNT

    def test_states_are_per_handle(self):
        table = NfsHeurTable(IMPROVED_NFSHEUR)
        state_a = table.lookup(fh(1), 0)
        state_b = table.lookup(fh(2), 0)
        assert state_a is not state_b

    def test_resident_probe_has_no_side_effects(self):
        table = NfsHeurTable(DEFAULT_NFSHEUR)
        assert not table.resident(fh(1))
        table.lookup(fh(1), 0)
        lookups = table.stats.lookups
        assert table.resident(fh(1))
        assert table.stats.lookups == lookups

    def test_occupancy_counts_filled_slots(self):
        table = NfsHeurTable(IMPROVED_NFSHEUR)
        for identifier in range(5):
            table.lookup(fh(identifier), 0)
        assert table.occupancy == 5


class TestThrash:
    def test_small_working_set_never_ejects(self):
        table = NfsHeurTable(DEFAULT_NFSHEUR)
        for _round in range(20):
            for identifier in range(3):
                table.lookup(fh(identifier), 0)
        assert table.stats.ejections == 0

    def test_large_working_set_thrashes_default_table(self):
        """§6.3: more active files than the default table can hold."""
        table = NfsHeurTable(DEFAULT_NFSHEUR)
        files = DEFAULT_NFSHEUR.table_size * 4
        for _round in range(20):
            for identifier in range(files):
                table.lookup(fh(identifier), 0)
        assert table.stats.ejections > 0
        assert table.stats.hit_rate < 0.9

    def test_improved_table_fixes_the_same_working_set(self):
        default_table = NfsHeurTable(DEFAULT_NFSHEUR)
        improved_table = NfsHeurTable(IMPROVED_NFSHEUR)
        files = DEFAULT_NFSHEUR.table_size * 4
        for _round in range(20):
            for identifier in range(files):
                default_table.lookup(fh(identifier), 0)
                improved_table.lookup(fh(identifier), 0)
        assert improved_table.stats.hit_rate > \
            default_table.stats.hit_rate
        assert improved_table.stats.ejections == 0

    def test_ejection_loses_sequentiality_state(self):
        """The paper's core failure mode: a correctly maintained
        seqCount is worthless if the entry is ejected before reuse."""
        table = NfsHeurTable(NfsHeurParams(table_size=1, max_probes=1))
        state = table.lookup(fh(1), 0)
        state.seq_count = 100
        table.lookup(fh(2), 0)          # ejects fh(1)
        fresh = table.lookup(fh(1), 0)  # reinstall
        assert fresh.seq_count == INSTALL_SEQCOUNT

    def test_active_streamer_survives_one_off_probes(self):
        """Use-count dynamics: a hot entry outlives drive-by misses."""
        table = NfsHeurTable(NfsHeurParams(table_size=1, max_probes=1))
        for _ in range(50):
            table.lookup(fh(1), 0)       # accumulate heat
        table.lookup(fh(2), 0)           # newcomer, colder than fh(1)
        assert table.resident(fh(1))

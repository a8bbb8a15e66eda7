"""The checkpointed campaign journal: crash-safe JSONL, one record at a time.

A campaign journal is the orchestrator's only durable state.  Every
completed cell, every failed attempt, and every abandonment is one JSON
object on its own line, appended through a write-tmp-then-rename commit
protocol so that an orchestrator killed at *any* instruction boundary
leaves a journal that loads cleanly:

1. the record is first written whole to ``<journal>.wal`` via
   :func:`atomic_write_text` (write to a temp name, fsync, rename —
   the rename is the atomic commit point for the record itself);
2. the same line is appended to the journal proper and fsynced;
3. the WAL file is removed.

On load, a torn final journal line (the append in step 2 interrupted)
is repaired from the WAL when one exists, or dropped when it does not
— in which case the cell simply re-runs on resume.  Either way the
file itself is healed, not just the in-memory view: the torn bytes are
truncated away and a WAL-repaired record is re-appended (fsynced)
*before* the WAL is removed, so a resume session's appends always
start on a fresh line and the repaired record survives a second crash.
Corruption anywhere *before* the final line is a hard error: that is
not a crash signature, it is a damaged file, and silently skipping
records would un-checkpoint work.

The journal's first record is a header naming the campaign spec and its
fingerprint; ``--resume`` refuses a journal whose header does not match
the campaign being resumed, so two different campaigns can never be
folded into one result.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

JOURNAL_VERSION = 1


class JournalError(ValueError):
    """A journal that cannot be trusted (corrupt, or the wrong campaign)."""


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via write-tmp-then-rename.

    The rename is atomic on POSIX, so readers (and a process crashed at
    any point) see either the old content or the complete new content,
    never a prefix.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


@dataclass
class LoadedJournal:
    """What :func:`CampaignJournal.load` recovered from disk."""

    header: dict
    records: List[dict] = field(default_factory=list)
    #: 1 if a torn final line was repaired from the WAL, else 0.
    repaired: int = 0
    #: 1 if a torn final line had to be dropped (cell re-runs), else 0.
    dropped: int = 0


class CampaignJournal:
    """Append-only JSONL journal with per-record atomic commit."""

    def __init__(self, path: str):
        self.path = path
        self._handle = None

    # -- writing -----------------------------------------------------------

    def create(self, header: dict) -> None:
        """Start a fresh journal containing only the header record."""
        header = dict(header)
        header["type"] = "header"
        header["version"] = JOURNAL_VERSION
        atomic_write_text(self.path, _dump_line(header))

    def append(self, record: dict) -> None:
        """Commit one record (see the module docstring for the protocol)."""
        line = _dump_line(record)
        wal = self.path + ".wal"
        atomic_write_text(wal, line)
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(line)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        os.remove(wal)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- loading -----------------------------------------------------------

    @staticmethod
    def load(path: str) -> LoadedJournal:
        """Read a journal back, repairing or dropping a torn final line.

        Recovery edits the file, not just the returned records: torn
        trailing bytes are truncated so later appends start on a fresh
        line, and a record recovered from the WAL is re-appended to the
        journal (fsynced) before the WAL is removed — the journal, not
        the WAL, is where committed records must durably live.
        """
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise JournalError(f"cannot read journal: {error}") from None
        lines = raw.split(b"\n")
        if lines and lines[-1] == b"":
            lines.pop()
            tail_complete = True
        else:
            tail_complete = False

        records: List[dict] = []
        dropped = 0
        #: Bytes of the journal prefix holding only complete records.
        intact = 0
        for number, line in enumerate(lines, 1):
            last = number == len(lines)
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("not an object")
            except ValueError:
                if last:
                    # A torn append: the crash signature, not corruption.
                    dropped = 1
                    break
                raise JournalError(
                    f"{path}:{number}: corrupt journal record") from None
            if last and not tail_complete:
                # Parsed, but the newline never made it out; treat as
                # torn — the WAL (or a re-run) supplies it.
                dropped = 1
                break
            records.append(record)
            intact += len(line) + 1

        if dropped:
            # Heal the file: leave only complete lines, so a resume
            # session's appends never concatenate onto the torn tail.
            with open(path, "r+b") as handle:
                handle.truncate(intact)
                handle.flush()
                os.fsync(handle.fileno())

        repaired = 0
        wal = path + ".wal"
        if os.path.exists(wal):
            try:
                with open(wal) as handle:
                    wal_record = json.loads(handle.read())
            except (OSError, ValueError):
                wal_record = None
            if isinstance(wal_record, dict):
                if records and records[-1] == wal_record:
                    pass  # append completed before the crash
                else:
                    # Re-append durably *before* destroying the WAL —
                    # it holds the only copy of this committed record.
                    with open(path, "a") as handle:
                        handle.write(_dump_line(wal_record))
                        handle.flush()
                        os.fsync(handle.fileno())
                    records.append(wal_record)
                    repaired, dropped = 1, 0
            os.remove(wal)

        if not records:
            raise JournalError(f"{path}: empty journal (no header)")
        header = records[0]
        if header.get("type") != "header":
            raise JournalError(f"{path}: first record is not a header")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{path}: unsupported journal version "
                f"{header.get('version')!r}")
        return LoadedJournal(header=header, records=records[1:],
                             repaired=repaired, dropped=dropped)


def fold_records(records: List[dict]
                 ) -> Tuple[Dict[int, dict], Dict[int, int], dict]:
    """Fold journal records into (results, attempts-seen, counters).

    ``results`` maps cell index to its recorded result dict (first
    completion wins — re-executions of a deterministic cell return the
    same value, so later duplicates are ignored).  ``attempts`` maps
    cell index to the number of attempts the journal has seen.
    ``counters`` accumulates the attempt-level failure statistics that
    the coverage accounting reports.
    """
    results: Dict[int, dict] = {}
    attempts: Dict[int, int] = {}
    counters = {"timeouts": 0, "worker_crashes": 0, "cell_errors": 0,
                "abandoned_seen": 0}
    for record in records:
        kind = record.get("type")
        cell = record.get("cell")
        if kind == "result":
            attempts[cell] = max(attempts.get(cell, 0),
                                 record.get("attempt", 1))
            if cell not in results:
                results[cell] = record.get("result", {})
        elif kind == "attempt":
            attempts[cell] = max(attempts.get(cell, 0),
                                 record.get("attempt", 1))
            status = record.get("status")
            if status == "timeout":
                counters["timeouts"] += 1
            elif status == "crash":
                counters["worker_crashes"] += 1
            elif status == "error":
                counters["cell_errors"] += 1
        elif kind == "abandoned":
            # Informational: resume re-attempts abandoned cells.
            counters["abandoned_seen"] += 1
    return results, attempts, counters

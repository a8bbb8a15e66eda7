"""The campaign worker: a process that executes cells until told to stop.

The orchestrator owns the control flow; a worker is deliberately dumb.
It waits on its private task queue, executes one ``(cell, attempt)``
task at a time through the runner it was born with, and reports each
outcome on the shared result queue tagged with its worker id.  A
``None`` task is the poison pill.  An orchestrator killed outright
sends no pill, so a worker also exits once it has been reparented.

Crash injection for tests and the CI smoke job rides on two
environment variables: when ``REPRO_CAMPAIGN_KILL_CELL`` names a cell
index and the flag file ``REPRO_CAMPAIGN_KILL_FLAG`` does not yet
exist, the worker creates the flag and dies with :data:`KILL_EXIT`
*before* running that cell — a deterministic SIGKILL-grade death
(``os._exit`` skips all cleanup) that fires exactly once per flag
file, so the re-dispatched cell then completes normally.
"""

from __future__ import annotations

import os
import queue
import traceback

#: Exit code of an injected worker death (distinguishable from real
#: crashes in logs; the orchestrator treats any abnormal exit the same).
KILL_EXIT = 42

#: Seconds an idle worker waits for a task before it checks that its
#: orchestrator is still its parent.
ORPHAN_POLL_S = 1.0

KILL_CELL_ENV = "REPRO_CAMPAIGN_KILL_CELL"
KILL_FLAG_ENV = "REPRO_CAMPAIGN_KILL_FLAG"


def should_inject_kill(cell: int) -> bool:
    """True exactly once for the configured cell: creates the flag file."""
    target = os.environ.get(KILL_CELL_ENV)
    flag = os.environ.get(KILL_FLAG_ENV)
    if target is None or not flag:
        return False
    if int(target) != cell or os.path.exists(flag):
        return False
    with open(flag, "w") as handle:
        handle.write(f"killed at cell {cell}\n")
    return True


def worker_main(worker_id: int, runner, task_queue, result_queue) -> None:
    """Process entry point: loop over tasks until the poison pill."""
    orchestrator = os.getppid()
    while True:
        try:
            task = task_queue.get(timeout=ORPHAN_POLL_S)
        except queue.Empty:
            if os.getppid() != orchestrator:
                os._exit(0)
            continue
        if task is None:
            return
        cell, attempt = task
        if should_inject_kill(cell):
            os._exit(KILL_EXIT)
        try:
            result = runner(cell)
        except BaseException as error:  # noqa: BLE001 - reported, not hidden
            result_queue.put(("error", worker_id, cell, attempt,
                              f"{type(error).__name__}: {error}",
                              traceback.format_exc(limit=8)))
        else:
            result_queue.put(("ok", worker_id, cell, attempt, result,
                              None))

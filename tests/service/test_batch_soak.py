"""Soak test: a ~50-task fuzz batch with deterministic low-probability
worker faults (ISSUE satellite).

Asserts the service's global invariants rather than individual paths:
every task reaches exactly one terminal state, the ledger is complete
and replayable, and a resume run recompiles nothing except the tasks
whose failures were worker-level (those deserve another run).
"""

import os

from repro.service.batch import BatchRunner, RetryPolicy
from repro.service.checkpoint import RunLedger, TERMINAL_STATUSES
from repro.service.manifest import fuzz_tasks

N_TASKS = 50


def _is_live_child(pid):
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return int(fields[1]) == os.getpid()


def soak_tasks():
    """50 fuzz programs; every 13th worker crashes, one hangs.

    "Low probability" faults, chosen deterministically so the soak is
    reproducible: 3 crashing tasks (12, 25, 38), 1 hanging task (20),
    46 clean ones.
    """
    tasks = fuzz_tasks(N_TASKS, seed=1993)
    armed = []
    for i, task in enumerate(tasks):
        if i == 20:
            armed.append(task.with_faults((
                {"point": "service.worker", "action": "hang",
                 "seconds": 60.0},
            )))
        elif i % 13 == 12:
            armed.append(task.with_faults((
                {"point": "service.worker", "action": "crash"},
            )))
        else:
            armed.append(task)
    return armed


def test_soak_every_task_terminal_and_ledger_replayable(tmp_path):
    ledger_path = str(tmp_path / "soak.jsonl")
    tasks = soak_tasks()
    summary = BatchRunner(
        max_workers=8,
        task_timeout=1.0,
        retry_policy=RetryPolicy(max_retries=1, base_delay=0.01),
        ledger_path=ledger_path,
    ).run(tasks)

    # Exactly one terminal state per task.
    assert len(summary.records) == N_TASKS
    assert all(rec.terminal for rec in summary.records)
    counts = summary.counts
    assert counts["failed"] == 4  # 3 crashers + 1 hanger
    # The rest succeeded, possibly degraded (some fuzz programs do
    # legitimately exercise the ladder — that still counts as success).
    assert counts["ok"] + counts["degraded"] == N_TASKS - 4
    assert counts["pending"] == 0
    assert summary.exit_code == 3

    # Exactly the faulted tasks failed; they were retried first, and
    # clean tasks never were.
    for i, rec in enumerate(summary.records):
        if i in (12, 25, 38):
            assert rec.kinds == ["crash", "crash"], rec.task_id
        elif i == 20:
            assert rec.kinds == ["timeout", "timeout"], rec.task_id
        else:
            assert rec.status in ("ok", "degraded"), rec.task_id
            assert rec.attempts == 1, rec.task_id
            continue
        assert rec.status == "failed"
        assert rec.attempts == 2

    # The ledger is complete (one terminal record per task), every
    # attempt journaled its worker's pid, and every journaled worker
    # is gone — no orphans survived the batch.  Pool workers serve many
    # attempts, so pids repeat across records.
    entries = RunLedger.load(ledger_path)
    assert set(entries) == {task.task_id for task in tasks}
    for rec in summary.records:
        journaled = entries[rec.task_id]
        assert journaled["status"] == rec.status
        assert journaled["status"] in TERMINAL_STATUSES
        assert journaled["pids"] == rec.pids
    all_pids = [p for e in entries.values() for p in e["pids"]]
    assert len(all_pids) == 46 + 4 * 2
    assert not any(_is_live_child(pid) for pid in all_pids)

    # Resume replays the ledger for every clean task — zero recompiles
    # there — but the 4 failed records carry worker-level kinds
    # (crash/timeout), so each gets another run instead of being
    # skipped forever.  The armed faults re-fire, so every verdict
    # comes out identical to the first run.
    resumed = BatchRunner(
        max_workers=8,
        task_timeout=1.0,
        retry_policy=RetryPolicy(max_retries=1, base_delay=0.01),
        resume_path=ledger_path,
    ).run(tasks)
    assert resumed.counts["resumed"] == N_TASKS - 4
    assert resumed.counts["compiled"] == 4
    assert [rec.status for rec in resumed.records] == \
        [rec.status for rec in summary.records]
    for i, rec in enumerate(resumed.records):
        if i in (12, 20, 25, 38):
            assert rec.resumed is False
            assert rec.pids and not set(rec.pids) & set(all_pids)
            assert any("resume: retrying failed task" in note
                       for note in rec.notes)
        else:
            assert rec.resumed is True
            assert not rec.pids or rec.pids == entries[rec.task_id]["pids"]
    # The re-runs appended fresh records; last-record-wins verdicts
    # still agree with the first run, and the new workers are reaped.
    replay = RunLedger.load(ledger_path)
    assert {t: r["status"] for t, r in replay.items()} == \
        {t: r["status"] for t, r in entries.items()}
    assert not any(
        _is_live_child(pid)
        for entry in replay.values() for pid in entry["pids"]
    )

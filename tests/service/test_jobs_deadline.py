"""A request deadline that expires inside the worker is the client's
timeout, not a compiler failure: the job settles ``deadline-exceeded``
and the circuit breaker's failure count does not move.

The worker attempt runs in process through the same
:func:`~repro.service.worker.execute_payload` a pool worker calls, with
a stalled phase that outlasts both the worker budget and the request
deadline — so the outcome never depends on dispatch timing.
"""

import os
import time
from types import SimpleNamespace

import pytest

from repro.pipeline.driver import DriverConfig
from repro.service.batch import PRIMARY_RUNG
from repro.service.jobs import STATUS_DEADLINE, Job, JobDispatcher
from repro.service.manifest import CompileTask
from repro.service.worker import WorkerOutcome, build_payload, execute_payload
from repro.utils import faults

SOURCE = "input a, b;\nx = a * b + 3;\noutput x;\n"

#: A parse phase stalled far past the 1 ms worker budget below.
STALLED_PARSE = faults.FaultSpec(
    point="phase.parse", action="stall", seconds=0.05
).as_dict()


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def dispatcher():
    jobs = JobDispatcher(pool_size=1)
    yield jobs
    jobs.begin_drain()
    assert jobs.join(30.0)


def _failures(jobs):
    key = jobs._breaker_key(PRIMARY_RUNG)
    return jobs.breaker.snapshot().get(key, {}).get("total_failures", 0)


def _run_attempt(jobs, deadline_s):
    """One budget-aborted attempt for a job whose deadline is
    *deadline_s* from now; returns the absorbed job."""
    task = CompileTask(
        task_id="t", name="t", text=SOURCE, faults=(STALLED_PARSE,)
    )
    job = Job(
        job_id="j", client="c", task=task, key=jobs.job_key(task),
        deadline=time.monotonic() + deadline_s,
    )
    # The dispatcher folds the remaining deadline into the worker's
    # time budget; 1 ms is its floor.
    payload = build_payload(
        task, jobs.machine, jobs.registers, DriverConfig(time_budget=0.001)
    )
    try:
        result = execute_payload(payload)
    finally:
        faults.clear()
    assert result["failure_kind"] == "internal"
    handle = SimpleNamespace(rung=PRIMARY_RUNG, attempt=1, payload=payload)
    outcome = WorkerOutcome(
        kind="result", result=result, pid=os.getpid(), exitcode=0,
        duration_s=0.05,
    )
    jobs._absorb(handle, job, outcome)
    return job


def test_deadline_expiring_mid_compile_settles_deadline_exceeded(dispatcher):
    before = _failures(dispatcher)
    job = _run_attempt(dispatcher, deadline_s=0.001)
    assert job.done
    assert job.status == STATUS_DEADLINE
    assert job.exit_code == 1
    assert dispatcher.stats["deadline_exceeded"] == 1
    assert _failures(dispatcher) == before


def test_budget_abort_before_the_deadline_still_counts(dispatcher):
    # Same abort, but the request still had time: the budget was the
    # server's own, so this is a failed compile and the breaker hears
    # about it.
    before = _failures(dispatcher)
    job = _run_attempt(dispatcher, deadline_s=60.0)
    assert job.status == "failed"
    assert dispatcher.stats["deadline_exceeded"] == 0
    assert _failures(dispatcher) == before + 1

"""Tests for the compile-attempt protocol (repro.service.worker).

Result-producing paths — clean result, input error, in-worker
exception — run in process through :func:`execute_payload`.  Paths
that end the worker process (crash, hang-and-kill) run on a one-worker
:class:`WorkerPool`; every one is driven deterministically through the
``service.worker`` fault point.
"""

import os
import time

import pytest

from repro.service.manifest import CompileTask
from repro.service.pool import WorkerPool
from repro.service.worker import (
    RESULT_VERSION,
    WorkerOutcome,
    build_payload,
    execute_payload,
    validate_result,
)
from repro.pipeline.driver import DriverConfig
from repro.utils import faults
from repro.utils.faults import CRASH_EXIT_CODE

SOURCE = "input a, b; x = a * b + 3; output x;"


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def task(task_id="t0", text=SOURCE, **kwargs):
    return CompileTask(task_id=task_id, name="t", text=text, **kwargs)


def worker_fault(action, seconds=None):
    spec = {"point": "service.worker", "action": action}
    if seconds is not None:
        spec["seconds"] = seconds
    return (spec,)


def payload_for(t, machine="two-unit-superscalar"):
    return build_payload(t, machine, None, DriverConfig())


def in_process(t, machine="two-unit-superscalar"):
    """One attempt run in this process, as a worker would run it."""
    result = execute_payload(payload_for(t, machine))
    assert validate_result(result, t.task_id) is result
    return WorkerOutcome(
        kind="result", result=result, pid=result["pid"], exitcode=None,
        duration_s=0.0,
    )


def pooled(t, timeout):
    """One attempt on a fresh one-worker pool, settled the batch
    loop's way."""
    with WorkerPool(size=1) as pool:
        handle = pool.dispatch(t, payload_for(t), timeout=timeout)
        deadline = time.monotonic() + timeout + 30.0
        while not handle.is_done(time.monotonic()):
            if time.monotonic() > deadline:
                raise AssertionError("pool attempt never became collectable")
            time.sleep(0.005)
        return pool.collect(handle)


class TestCleanAttempt:
    def test_ok_result(self):
        outcome = in_process(task())
        result = outcome.result
        assert result["status"] == "ok"
        assert result["exit_code"] == 0
        assert result["task_id"] == "t0"
        assert result["pid"] == os.getpid()
        assert result["metrics"]["cycles"] > 0

    def test_input_error_is_deterministic_failure(self):
        outcome = in_process(task(text="this is ( not a program"))
        assert outcome.result["status"] == "failed"
        assert outcome.result["exit_code"] == 2
        assert outcome.result["failure_kind"] == "input"

    def test_unknown_machine_is_worker_side_input_error(self):
        outcome = in_process(task(), machine="no-such-machine")
        # BatchRunner validates the machine up front; the worker still
        # refuses rather than KeyError-ing if handed one directly.
        assert outcome.result["status"] == "worker-exception"
        assert "no-such-machine" in outcome.message


class TestContainment:
    """Crash and hang end the worker process, so they run on a pool;
    the poisoned-result path is covered in test_pool.py."""

    def test_crash_fault_is_contained(self):
        outcome = pooled(task(faults=worker_fault("crash")), timeout=30.0)
        assert outcome.kind == "crash"
        assert outcome.exitcode == CRASH_EXIT_CODE
        assert "crash" in outcome.message

    def test_hang_fault_is_killed_at_deadline(self):
        outcome = pooled(
            task(faults=worker_fault("hang", seconds=60.0)), timeout=0.5
        )
        assert outcome.kind == "timeout"
        assert "killed at task timeout" in outcome.message
        # The child is dead and fully reaped: negative exitcode means
        # killed by signal, and /proc has no zombie left behind.
        assert outcome.exitcode is not None and outcome.exitcode < 0
        assert not _is_live_child(outcome.pid)

    def test_raise_fault_becomes_worker_exception(self):
        outcome = in_process(task(faults=worker_fault("raise")))
        assert outcome.result["status"] == "worker-exception"
        assert "FaultInjectedError" in outcome.message

    def test_no_orphan_after_any_outcome(self):
        for action, timeout in (("crash", 30.0), ("hang", 0.5)):
            outcome = pooled(
                task(faults=worker_fault(action, seconds=60.0)),
                timeout=timeout,
            )
            assert not _is_live_child(outcome.pid)


class TestPayload:
    def test_parent_armed_faults_ship_in_payload(self):
        faults.install_from_env({"REPRO_FAULTS": "service.worker:crash"})
        payload = build_payload(task(), "two-unit-superscalar", None,
                                DriverConfig())
        faults.clear()  # parent disarms; the payload already carries it
        assert len(payload["faults"]) == 1
        spec = payload["faults"][0]
        assert spec["point"] == "service.worker"
        assert spec["action"] == "crash"

    def test_task_faults_shadow_parent_faults(self):
        with faults.inject("service.worker", action="stall", seconds=0.0):
            payload = build_payload(
                task(faults=worker_fault("crash")),
                "two-unit-superscalar", None, DriverConfig(),
            )
        actions = [s["action"] for s in payload["faults"]
                   if s["point"] == "service.worker"]
        # Task spec comes last, so its install() wins in the worker.
        assert actions == ["stall", "crash"]

    def test_payload_is_primitive_only(self):
        import json

        payload = build_payload(task(), "rs6000", 4, DriverConfig())
        assert json.loads(json.dumps(payload)) == payload


class TestStartMethodOverride:
    """$REPRO_START_METHOD forces the multiprocessing start method —
    the regression net for platforms where fork is unavailable or
    unsafe (macOS, Windows, threaded embedders)."""

    def test_unknown_method_is_input_error(self, monkeypatch):
        from repro.service.worker import START_METHOD_ENV, _mp_context
        from repro.utils.errors import InputError

        monkeypatch.setenv(START_METHOD_ENV, "bogus")
        with pytest.raises(InputError, match="bogus"):
            _mp_context()

    def test_pool_round_trip_under_spawn(self, monkeypatch):
        from repro.service.worker import START_METHOD_ENV

        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        with WorkerPool(size=1) as pool:
            t = task()
            payload = build_payload(
                t, "two-unit-superscalar", None, DriverConfig()
            )
            handle = pool.dispatch(t, payload, timeout=60.0)
            deadline = time.monotonic() + 60.0
            while not handle.is_done(time.monotonic()):
                if time.monotonic() > deadline:
                    raise AssertionError("spawned pool worker never answered")
                time.sleep(0.01)
            outcome = pool.collect(handle)
        assert outcome.kind == "result"
        assert outcome.result["status"] == "ok"


class TestValidateResult:
    def good(self):
        return {
            "v": RESULT_VERSION, "task_id": "t0", "status": "ok",
            "pid": 1, "exit_code": 0, "report": {},
        }

    def test_accepts_well_formed(self):
        assert validate_result(self.good(), "t0") is not None

    @pytest.mark.parametrize("mutate", [
        lambda r: r.update(v=99),
        lambda r: r.update(task_id="other"),
        lambda r: r.update(status="sideways"),
        lambda r: r.update(pid="1"),
        lambda r: r.update(exit_code=None),
        lambda r: r.update(report=[]),
    ])
    def test_rejects_malformed(self, mutate):
        result = self.good()
        mutate(result)
        assert validate_result(result, "t0") is None

    def test_rejects_non_dict(self):
        assert validate_result("<<poisoned-result>>", "t0") is None
        assert validate_result(None, "t0") is None


def _is_live_child(pid):
    """True when *pid* is still a (possibly zombie) child of this
    process."""
    try:
        with open("/proc/{}/stat".format(pid)) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return False
    # state, ppid are the first two fields after the command name.
    return int(fields[1]) == os.getpid()

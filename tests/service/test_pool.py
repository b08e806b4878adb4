"""Tests for the persistent warm worker pool (repro.service.pool).

The pool is the batch service's only transport: these tests drive the
containment scenarios — clean results, crash, hang, poison — through
long-lived workers, plus the hygiene policies (worker reuse, max-tasks
recycling, idle recycling, shutdown reaping).
"""

import os
import time

import pytest

from repro.service.batch import BatchRunner
from repro.service.manifest import CompileTask, fuzz_tasks
from repro.service.pool import (
    OP_TASK,
    PoolHandle,
    WorkerPool,
    recv_frame,
    send_frame,
)
from repro.service.worker import build_payload, validate_result
from repro.pipeline.driver import DriverConfig
from repro.utils import faults
from repro.utils.errors import InputError

SOURCE = "input a, b; x = a * b + 3; output x;"


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def task(task_id="t0", text=SOURCE, **kwargs):
    return CompileTask(task_id=task_id, name="t", text=text, **kwargs)


def payload_for(t, config=None):
    return build_payload(
        t, "two-unit-superscalar", None, config or DriverConfig()
    )


def worker_fault(action, seconds=None):
    spec = {"point": "service.worker", "action": action}
    if seconds is not None:
        spec["seconds"] = seconds
    return (spec,)


def settle(pool, handle, wait_s=30.0):
    """Busy-wait the batch loop's way until *handle* is done, then
    collect it."""
    deadline = time.monotonic() + wait_s
    while time.monotonic() < deadline:
        if handle.is_done(time.monotonic()):
            return pool.collect(handle)
        time.sleep(0.005)
    raise AssertionError("pool attempt never became collectable")


def pid_is_live(pid):
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


class TestFrames:
    def test_round_trip(self):
        from repro.service.worker import _mp_context

        parent, child = _mp_context().Pipe(duplex=True)
        send_frame(parent, {"op": OP_TASK, "n": 3})
        assert recv_frame(child) == {"op": OP_TASK, "n": 3}
        parent.close()
        assert recv_frame(child) is None  # EOF is None, not a raise

    def test_garbage_frame_is_none(self):
        from repro.service.worker import _mp_context

        parent, child = _mp_context().Pipe(duplex=True)
        parent.send_bytes(b"\xff{not json")
        assert recv_frame(child) is None


class TestPoolRoundTrip:
    def test_clean_result(self):
        with WorkerPool(size=1) as pool:
            t = task()
            handle = pool.dispatch(t, payload_for(t), timeout=30.0)
            outcome = settle(pool, handle)
        assert outcome.kind == "result"
        assert outcome.result["status"] == "ok"
        assert outcome.result["exit_code"] == 0
        assert validate_result(outcome.result, "t0") is not None

    def test_worker_is_reused_across_tasks(self):
        with WorkerPool(size=1) as pool:
            pids = []
            for i in range(3):
                t = task(task_id="t{}".format(i))
                handle = pool.dispatch(t, payload_for(t), timeout=30.0)
                pids.append(handle.pid)
                outcome = settle(pool, handle)
                assert outcome.kind == "result"
            assert pool.stats["spawned"] == 1
            assert pool.stats["dispatched"] == 3
        assert len(set(pids)) == 1

    def test_handle_mirrors_fork_handle_surface(self):
        with WorkerPool(size=1) as pool:
            t = task()
            handle = pool.dispatch(
                t, payload_for(t), timeout=30.0, attempt=2, rung="primary"
            )
            assert isinstance(handle, PoolHandle)
            assert handle.task is t
            assert handle.attempt == 2
            assert handle.rung == "primary"
            assert handle.deadline > handle.started
            settle(pool, handle)


class TestRecycling:
    def test_max_tasks_recycles_the_worker(self):
        with WorkerPool(size=1, max_tasks_per_worker=2) as pool:
            pids = []
            for i in range(3):
                t = task(task_id="t{}".format(i))
                handle = pool.dispatch(t, payload_for(t), timeout=30.0)
                pids.append(handle.pid)
                assert settle(pool, handle).kind == "result"
            assert pool.stats["recycled_max_tasks"] == 1
            assert pool.stats["spawned"] == 2
        # Tasks 0-1 shared a worker; task 2 got the replacement.
        assert pids[0] == pids[1] != pids[2]
        assert not pid_is_live(pids[0])

    def test_idle_timeout_recycles_the_worker(self):
        with WorkerPool(size=1, idle_timeout=0.02) as pool:
            t = task()
            handle = pool.dispatch(t, payload_for(t), timeout=30.0)
            assert settle(pool, handle).kind == "result"
            assert pool.live_workers() == 1
            time.sleep(0.05)
            pool.maintain()
            assert pool.live_workers() == 0
            assert pool.stats["recycled_idle"] == 1

    def test_maintain_never_touches_busy_workers(self):
        with WorkerPool(size=1, idle_timeout=0.01) as pool:
            t = task(faults=worker_fault("stall", seconds=0.2))
            handle = pool.dispatch(t, payload_for(t), timeout=30.0)
            time.sleep(0.05)
            pool.maintain()
            assert pool.live_workers() == 1  # busy: exempt from idle reap
            assert settle(pool, handle).kind == "result"

    def test_shutdown_reaps_every_worker(self):
        pool = WorkerPool(size=2)
        pids = []
        handles = []
        for i in range(2):
            t = task(task_id="t{}".format(i))
            handle = pool.dispatch(t, payload_for(t), timeout=30.0)
            pids.append(handle.pid)
            handles.append(handle)
        for handle in handles:
            assert settle(pool, handle).kind == "result"
        pool.shutdown()
        assert pool.live_workers() == 0
        assert not any(pid_is_live(p) for p in pids)


class TestContainment:
    def test_crash_retires_and_replaces(self):
        with WorkerPool(size=1) as pool:
            bad = task(task_id="bad", faults=worker_fault("crash"))
            handle = pool.dispatch(bad, payload_for(bad), timeout=30.0)
            crashed_pid = handle.pid
            outcome = settle(pool, handle)
            assert outcome.kind == "crash"
            assert pool.live_workers() == 0  # the cadaver was retired
            # The pool recovers transparently: next task compiles on a
            # fresh worker.
            good = task(task_id="good")
            handle = pool.dispatch(good, payload_for(good), timeout=30.0)
            assert handle.pid != crashed_pid
            assert settle(pool, handle).kind == "result"

    def test_hang_is_killed_for_timeout(self):
        with WorkerPool(size=1) as pool:
            t = task(faults=worker_fault("hang", seconds=60.0))
            handle = pool.dispatch(t, payload_for(t), timeout=0.3)
            hung_pid = handle.pid
            outcome = settle(pool, handle, wait_s=10.0)
            assert outcome.kind == "timeout"
            assert pool.stats["killed_timeout"] == 1
        assert not pid_is_live(hung_pid)

    def test_poisoned_result_is_crash_and_retires(self):
        with WorkerPool(size=1) as pool:
            t = task(faults=worker_fault("poison-result"))
            handle = pool.dispatch(t, payload_for(t), timeout=30.0)
            poisoned_pid = handle.pid
            outcome = settle(pool, handle)
            assert outcome.kind == "crash"
            assert outcome.result is None
            # A garbage frame means the stream can't be trusted: the
            # worker must be gone.
            assert pool.live_workers() == 0
        assert not pid_is_live(poisoned_pid)

    def test_faults_do_not_leak_between_tasks(self):
        with WorkerPool(size=1) as pool:
            stalled = task(
                task_id="stalled",
                faults=worker_fault("stall", seconds=0.05),
            )
            handle = pool.dispatch(stalled, payload_for(stalled), 30.0)
            outcome = settle(pool, handle)
            assert outcome.kind == "result"
            # Same worker, no fault spec: must run clean and fast.
            clean = task(task_id="clean")
            handle = pool.dispatch(clean, payload_for(clean), 30.0)
            started = time.monotonic()
            outcome = settle(pool, handle)
            assert outcome.kind == "result"
            assert outcome.result["status"] == "ok"
            assert time.monotonic() - started < 5.0


class TestPoolValidation:
    def test_bad_size(self):
        with pytest.raises(InputError):
            WorkerPool(size=0)

    def test_bad_max_tasks(self):
        with pytest.raises(InputError):
            WorkerPool(size=1, max_tasks_per_worker=0)

    def test_bad_idle_timeout(self):
        with pytest.raises(InputError):
            WorkerPool(size=1, idle_timeout=0.0)

    def test_dispatch_beyond_capacity_refuses(self):
        with WorkerPool(size=1) as pool:
            t = task(faults=worker_fault("stall", seconds=0.3))
            handle = pool.dispatch(t, payload_for(t), timeout=30.0)
            with pytest.raises(InputError):
                other = task(task_id="t1")
                pool.dispatch(other, payload_for(other), timeout=30.0)
            assert settle(pool, handle).kind == "result"


class TestBatchOnPool:
    """BatchRunner on its one transport, the pool."""

    def test_clean_fuzz_batch(self):
        summary = BatchRunner(max_workers=2).run(
            fuzz_tasks(6, seed=3)
        )
        counts = summary.counts
        assert counts["ok"] + counts["degraded"] == 6
        assert counts["compiled"] == 6
        assert summary.exit_code == 0
        # 6 tasks on 2 persistent workers: strictly fewer processes
        # than tasks proves reuse.
        pids = {p for rec in summary.records for p in rec.pids}
        assert 1 <= len(pids) <= 2
        assert not any(pid_is_live(p) for p in pids)

    def test_crash_retry_parity_with_fork(self):
        tasks = [
            task(task_id="crash", faults=worker_fault("crash")),
            task(task_id="fine"),
        ]
        summary = BatchRunner(max_workers=2).run(tasks)
        by_id = {rec.task_id: rec for rec in summary.records}
        assert by_id["fine"].status == "ok"
        crashed = by_id["crash"]
        assert crashed.status == "failed"
        assert crashed.attempts == 3  # 1 + default 2 retries
        assert crashed.kinds == ["crash", "crash", "crash"]
        assert summary.exit_code == 3

    def test_timeout_parity_with_fork(self):
        tasks = [
            task(task_id="hang", faults=worker_fault("hang", seconds=60.0))
        ]
        from repro.service.batch import RetryPolicy

        summary = BatchRunner(
            max_workers=1, task_timeout=0.3,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.01),
        ).run(tasks)
        rec = summary.records[0]
        assert rec.status == "failed"
        assert rec.kinds == ["timeout", "timeout"]
        assert not any(pid_is_live(p) for p in rec.pids)

    def test_pool_workers_recycle_mid_batch(self):
        summary = BatchRunner(
            max_workers=1, max_tasks_per_worker=2,
        ).run(fuzz_tasks(5, seed=9))
        assert summary.counts["ok"] + summary.counts["degraded"] == 5
        pids = {p for rec in summary.records for p in rec.pids}
        assert len(pids) == 3  # ceil(5 / 2) workers served the batch
        assert not any(pid_is_live(p) for p in pids)

    def test_one_task_per_worker_gives_every_attempt_a_fresh_process(self):
        from repro.service.batch import RetryPolicy

        tasks = fuzz_tasks(3, seed=9) + [
            task(task_id="crash", faults=worker_fault("crash")),
        ]
        summary = BatchRunner(
            max_workers=2, max_tasks_per_worker=1,
            retry_policy=RetryPolicy(max_retries=1, base_delay=0.01),
        ).run(tasks)
        by_id = {rec.task_id: rec for rec in summary.records}
        assert by_id["crash"].kinds == ["crash", "crash"]
        pids = [p for rec in summary.records for p in rec.pids]
        assert len(pids) == 3 + 2  # the crash was retried once
        assert len(set(pids)) == len(pids)
        assert not any(pid_is_live(p) for p in pids)

    def test_default_runner_dispatches_through_the_pool(self, monkeypatch):
        dispatched = []
        real_dispatch = WorkerPool.dispatch

        def spy(pool, t, *args, **kwargs):
            dispatched.append(t.task_id)
            return real_dispatch(pool, t, *args, **kwargs)

        monkeypatch.setattr(WorkerPool, "dispatch", spy)
        summary = BatchRunner(max_workers=1).run([task()])
        assert summary.exit_code == 0
        assert dispatched == ["t0"]

    def test_use_pool_false_is_rejected(self):
        with pytest.raises(InputError, match="fork-per-task"):
            BatchRunner(use_pool=False)


class TestInheritedFdHygiene:
    """Forked workers must shed the parent's descriptors (PR 8): a
    SIGKILL'd server whose workers keep its listening socket bound
    blocks every supervised restart with EADDRINUSE."""

    def _worker_fd_targets(self, pid):
        fd_dir = "/proc/{}/fd".format(pid)
        targets = []
        for name in os.listdir(fd_dir):
            try:
                targets.append(os.readlink(os.path.join(fd_dir, name)))
            except OSError:
                continue
        return targets

    def test_registered_fds_are_closed_in_workers(self):
        import socket

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            inode = "socket:[{}]".format(os.fstat(listener.fileno()).st_ino)
            with WorkerPool(size=1) as pool:
                pool.close_in_children([listener.fileno()])
                t = task()
                handle = pool.dispatch(t, payload_for(t), timeout=30.0)
                pid = handle.pid
                # The result frame proves the child is past its entry
                # hook, so the fd table is in its steady state.
                assert settle(pool, handle).kind == "result"
                assert inode not in self._worker_fd_targets(pid)
        finally:
            listener.close()

    def test_sibling_pipe_ends_are_closed_in_workers(self):
        """The second worker must not hold a copy of the first
        worker's parent-side pipe — that copy is what keeps a dead
        parent's cohort alive forever."""
        with WorkerPool(size=2) as pool:
            t0 = task(task_id="a", faults=worker_fault("stall", seconds=0.3))
            h0 = pool.dispatch(t0, payload_for(t0), timeout=30.0)
            first_conn_inode = "socket:[{}]".format(
                os.fstat(h0.worker.conn.fileno()).st_ino
            )
            t1 = task(task_id="b")
            h1 = pool.dispatch(t1, payload_for(t1), timeout=30.0)
            assert settle(pool, h1).kind == "result"
            assert first_conn_inode not in \
                self._worker_fd_targets(h1.pid)
            assert settle(pool, h0).kind == "result"

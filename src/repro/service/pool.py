"""Persistent warm worker pool: the one transport of the batch service.

Compile attempts run in subprocesses so that a crash, hang or poisoned
result takes down one worker, never the caller.  Starting a process,
importing the pipeline and tearing the interpreter down costs several
times a typical fuzz compile, so this module keeps **N long-lived
workers**: each imports the whole pipeline once at spawn (prewarm),
then serves many tasks over a persistent duplex pipe, speaking
**length-prefixed JSON frames** (``Connection.send_bytes`` — a 4-byte
length header plus the UTF-8 JSON body), so the protocol is identical
under ``fork`` and ``spawn`` and a corrupted frame can only ever
poison one attempt.

Parent-side frame protocol per attempt:

1. :meth:`WorkerPool.dispatch` — pick (or spawn) an idle worker and
   send one ``{"op": "task", "payload": {...}}`` frame.
2. Wait on the worker's connection (readable when the result frame
   arrives *or* at EOF when the worker died) up to the task deadline.
3. :meth:`WorkerPool.collect` — read and validate the result frame
   (garbage or EOF is classified as a crash and retires the worker);
   past the deadline the worker is killed (SIGTERM → SIGKILL) and the
   attempt is a timeout.  Either way no zombies, no orphans.

Hygiene policies, applied by :meth:`WorkerPool.maintain` and at
collect time:

* **max-tasks recycling** — a worker that has served
  ``max_tasks_per_worker`` attempts is retired and replaced (bounds
  the blast radius of slow leaks in long-running services);
* **idle-timeout recycling** — a worker idle longer than
  ``idle_timeout`` seconds is retired (frees memory between bursts);
* **crash/poison retirement** — a worker that dies or ships a frame
  the parent cannot validate is killed and replaced; the in-flight
  attempt is classified as a ``crash``, which retry and
  circuit-breaker policy then handle.

An armed ``service.worker`` fault (crash/hang/poison) therefore takes
down one worker and one attempt, never the batch, while the
steady-state cost per task is one frame round-trip.  With
``max_tasks_per_worker=1`` every attempt, retries included, runs in a
fresh process.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import get_metrics, get_tracer
from repro.service.manifest import CompileTask
from repro.service.worker import (
    DEFAULT_KILL_GRACE,
    WorkerOutcome,
    _kill,
    _mp_context,
    detach_worker_process,
    execute_payload,
    validate_result,
    wire_result,
)
from repro.utils.errors import InputError

#: Frame operations the pool worker understands.
OP_TASK = "task"
OP_EXIT = "exit"

#: Default recycle-after-N-tasks bound (leak hygiene).
DEFAULT_MAX_TASKS_PER_WORKER = 256

#: Default idle recycle timeout, seconds (None disables).
DEFAULT_IDLE_TIMEOUT = 300.0


def send_frame(conn, obj: object) -> None:
    """Ship one length-prefixed JSON frame on *conn*."""
    conn.send_bytes(json.dumps(obj).encode("utf-8"))


def recv_frame(conn) -> object:
    """Read one frame; any defect (EOF, torn pipe, bad JSON) returns
    None — the caller treats it as a dead/untrustworthy peer."""
    try:
        raw = conn.recv_bytes()
    except (EOFError, OSError):
        return None
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None


def _prewarm() -> None:
    """Import the pipeline the worker will run, once, at spawn time —
    the whole point of keeping the worker alive."""
    from repro.frontend import lower  # noqa: F401
    from repro.machine import presets  # noqa: F401
    from repro.pipeline import driver  # noqa: F401


def _shed_inherited_fds(close_fds) -> None:
    """Close the listed inherited descriptors (child side of fork).

    A forked worker starts with a copy of the parent's descriptor
    table, and three of those copies are liveness bugs, not mere
    leaks:

    * the serve front end's **listening socket** — a SIGKILL'd server
      whose workers survive it keeps the port bound, so the
      supervisor's restarted child dies with ``EADDRINUSE`` forever;
    * the parent ends of **sibling workers' pipes** — a sibling
      holding a copy of this worker's write end means parent death
      never reads as EOF and the whole cohort lingers;
    * the parent end of the worker's **own pipe**, which would keep
      its read side open against itself.

    The parent enumerates exactly these at spawn time (plus whatever
    the server registered via :meth:`WorkerPool.close_in_children`);
    closing only known descriptors leaves multiprocessing's own
    sentinel/bookkeeping fds intact.
    """
    for fd in close_fds:
        try:
            os.close(int(fd))
        except (OSError, TypeError, ValueError):
            pass


def pool_worker_main(conn, close_fds=()) -> None:
    """Child-process entry: serve task frames until told to exit.

    Each ``task`` frame runs one compile attempt via
    :func:`~repro.service.worker.execute_payload` (fault arming
    included, cleared between tasks), and answers with exactly one result frame.  An ``exit``
    frame, a closed pipe, or an unparseable frame ends the loop — the
    parent owns all retry policy.  Worker lifetime therefore depends
    only on its own pipe: :func:`_shed_inherited_fds` drops every
    other descriptor forked in from the parent, so the death of the
    parent (even by SIGKILL) reads as EOF here and the worker exits
    instead of squatting on the parent's sockets.
    """
    _shed_inherited_fds(close_fds)
    detach_worker_process()
    try:  # pragma: no cover - exercised in subprocesses
        _prewarm()
    except Exception:  # noqa: BLE001 - first task will report it
        pass
    try:
        while True:
            frame = recv_frame(conn)
            if not isinstance(frame, dict) or frame.get("op") != OP_TASK:
                break
            payload = frame.get("payload")
            if not isinstance(payload, dict):
                break
            result = execute_payload(payload)
            try:
                send_frame(conn, wire_result(result))
            except (BrokenPipeError, OSError):  # parent already gone
                break
            finally:
                # Never leak one task's armed faults into the next.
                from repro.utils import faults

                faults.clear()
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


@dataclass
class _PoolWorker:
    """Parent-side state of one persistent worker."""

    process: object
    conn: object
    tasks_done: int = 0
    busy: bool = False
    last_active: float = field(default_factory=time.monotonic)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


@dataclass
class PoolHandle:
    """One in-flight pooled attempt (parent side): the task, its
    attempt number, rung, payload and deadline, plus a
    :attr:`waitable` the batch loop can multiplex on.
    """

    worker: _PoolWorker
    task: CompileTask
    attempt: int
    rung: str
    payload: Dict[str, object]
    started: float = field(default_factory=time.monotonic)
    deadline: float = 0.0

    @property
    def waitable(self):
        """Readable when the result frame arrives — or at EOF when the
        worker died, so a crash wakes the batch loop immediately."""
        return self.worker.conn

    @property
    def pid(self) -> Optional[int]:
        return self.worker.pid

    def is_done(self, now: float) -> bool:
        return (
            self.worker.conn.poll()
            or not self.worker.alive
            or now >= self.deadline
        )


class WorkerPool:
    """N persistent compile workers plus their recycling policy.

    Args:
        size: Maximum simultaneously live workers (= the batch's
            ``max_workers``).  Workers spawn lazily on first dispatch
            and are replaced as hygiene policies retire them.
        kill_grace: SIGTERM→SIGKILL grace for overdue/retired workers.
        max_tasks_per_worker: Recycle a worker after this many served
            attempts (None disables; leak hygiene for long services).
        idle_timeout: Recycle a worker idle this many seconds (None
            disables; applied by :meth:`maintain`).
    """

    def __init__(
        self,
        size: int,
        kill_grace: float = DEFAULT_KILL_GRACE,
        max_tasks_per_worker: Optional[int] = DEFAULT_MAX_TASKS_PER_WORKER,
        idle_timeout: Optional[float] = DEFAULT_IDLE_TIMEOUT,
    ) -> None:
        if size < 1:
            raise InputError("pool size must be >= 1, got {}".format(size))
        if max_tasks_per_worker is not None and max_tasks_per_worker < 1:
            raise InputError(
                "max_tasks_per_worker must be >= 1 or None, got {}".format(
                    max_tasks_per_worker
                )
            )
        if idle_timeout is not None and idle_timeout <= 0:
            raise InputError(
                "idle_timeout must be positive seconds or None, "
                "got {}".format(idle_timeout)
            )
        self.size = size
        self.kill_grace = kill_grace
        self.max_tasks_per_worker = max_tasks_per_worker
        self.idle_timeout = idle_timeout
        self._workers: List[_PoolWorker] = []
        self._child_close_fds: List[int] = []
        self.stats: Dict[str, int] = {
            "spawned": 0,
            "dispatched": 0,
            "recycled_max_tasks": 0,
            "recycled_idle": 0,
            "retired_dead": 0,
            "killed_timeout": 0,
        }

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------

    def close_in_children(self, fds: List[int]) -> None:
        """Register descriptors every *future* worker must close at
        entry — the serve front end passes its listening sockets here
        so a dead server's port is never kept bound by its surviving
        workers."""
        for fd in fds:
            if fd not in self._child_close_fds:
                self._child_close_fds.append(int(fd))

    def _spawn(self) -> _PoolWorker:
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # Everything the child must NOT keep: registered server fds,
        # the parent ends of every sibling's pipe, and the parent end
        # of its own pipe (holding that one open would stop parent
        # death from ever reading as EOF on the child's side).
        close_fds = list(self._child_close_fds)
        for sibling in self._workers:
            try:
                close_fds.append(sibling.conn.fileno())
            except OSError:  # pragma: no cover - already closed
                pass
        close_fds.append(parent_conn.fileno())
        process = ctx.Process(
            target=pool_worker_main,
            args=(child_conn, tuple(close_fds)),
            daemon=True,
            name="repro-pool-worker",
        )
        process.start()
        child_conn.close()
        worker = _PoolWorker(process=process, conn=parent_conn)
        self._workers.append(worker)
        self.stats["spawned"] += 1
        get_tracer().event("pool.spawn", pid=worker.pid)
        get_metrics().counter("pool.spawned").inc()
        return worker

    def _retire(self, worker: _PoolWorker, reason: str) -> None:
        """Remove *worker* from the pool and fully reap it.

        A healthy worker gets a polite ``exit`` frame first; anything
        still alive after the grace is killed.  Every path joins the
        child — no zombies.
        """
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            if worker.alive:
                try:
                    send_frame(worker.conn, {"op": OP_EXIT})
                except (BrokenPipeError, OSError):
                    pass
                worker.process.join(self.kill_grace)
            if worker.alive:
                _kill(worker.process, self.kill_grace)
            else:
                worker.process.join()
        finally:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        get_tracer().event("pool.retire", pid=worker.pid, reason=reason)
        get_metrics().counter("pool.retired.{}".format(reason)).inc()

    def _idle_worker(self) -> _PoolWorker:
        """An idle live worker, spawning a replacement when a cadaver
        or a vacancy is found.  The batch loop bounds in-flight work by
        the pool size, so a slot always exists."""
        for worker in list(self._workers):
            if worker.busy:
                continue
            if not worker.alive:
                self.stats["retired_dead"] += 1
                self._retire(worker, "dead")
                continue
            return worker
        if len(self._workers) >= self.size:
            raise InputError(
                "pool of {} worker(s) has no idle capacity — the "
                "dispatcher must bound in-flight work by the pool "
                "size".format(self.size)
            )
        return self._spawn()

    # ------------------------------------------------------------------
    # Dispatch / collect
    # ------------------------------------------------------------------

    def dispatch(
        self,
        task: CompileTask,
        payload: Dict[str, object],
        timeout: float,
        attempt: int = 1,
        rung: str = "primary",
    ) -> PoolHandle:
        """Send one attempt to an idle (or fresh) worker.

        A worker that died while idle is detected at send time and
        replaced transparently — the attempt is charged nothing.
        """
        while True:
            worker = self._idle_worker()
            try:
                send_frame(
                    worker.conn, {"op": OP_TASK, "payload": payload}
                )
            except (BrokenPipeError, OSError):
                self.stats["retired_dead"] += 1
                self._retire(worker, "dead")
                continue
            break
        worker.busy = True
        worker.last_active = time.monotonic()
        self.stats["dispatched"] += 1
        handle = PoolHandle(
            worker=worker,
            task=task,
            attempt=attempt,
            rung=rung,
            payload=payload,
        )
        handle.deadline = handle.started + timeout
        get_metrics().counter("pool.dispatches").inc()
        return handle

    def collect(self, handle: PoolHandle) -> WorkerOutcome:
        """Resolve a done/overdue attempt into a
        :class:`~repro.service.worker.WorkerOutcome`.

        Ranking: an available result frame wins even at the deadline; then a dead worker is a crash; then
        an overdue worker is killed for a timeout.
        """
        worker = handle.worker
        duration = time.monotonic() - handle.started
        outcome: WorkerOutcome
        if worker.conn.poll():
            frame = recv_frame(worker.conn)
            result = validate_result(frame, handle.task.task_id)
            if result is None:
                # Garbage on a persistent stream: the worker cannot be
                # trusted to stay frame-aligned — kill and replace it.
                exitcode = worker.process.exitcode
                _kill(worker.process, self.kill_grace)
                self._retire(worker, "poisoned")
                outcome = WorkerOutcome(
                    kind="crash", result=None, pid=worker.pid,
                    exitcode=exitcode if exitcode is not None
                    else worker.process.exitcode,
                    duration_s=duration,
                )
            else:
                worker.busy = False
                worker.tasks_done += 1
                worker.last_active = time.monotonic()
                outcome = WorkerOutcome(
                    kind="result", result=result, pid=worker.pid,
                    exitcode=None, duration_s=duration,
                )
                if (
                    self.max_tasks_per_worker is not None
                    and worker.tasks_done >= self.max_tasks_per_worker
                ):
                    self.stats["recycled_max_tasks"] += 1
                    self._retire(worker, "max_tasks")
        elif not worker.alive:
            exitcode = worker.process.exitcode
            self.stats["retired_dead"] += 1
            self._retire(worker, "dead")
            outcome = WorkerOutcome(
                kind="crash", result=None, pid=worker.pid,
                exitcode=exitcode, duration_s=duration,
            )
        else:  # overdue
            self.stats["killed_timeout"] += 1
            _kill(worker.process, self.kill_grace)
            exitcode = worker.process.exitcode
            self._retire(worker, "timeout")
            outcome = WorkerOutcome(
                kind="timeout", result=None, pid=worker.pid,
                exitcode=exitcode, duration_s=duration,
            )
        get_tracer().span_point(
            "pool.attempt",
            duration,
            task_id=handle.task.task_id,
            kind=outcome.kind,
            pid=outcome.pid,
        )
        return outcome

    # ------------------------------------------------------------------
    # Hygiene / shutdown
    # ------------------------------------------------------------------

    def maintain(self, now: Optional[float] = None) -> None:
        """Apply idle-timeout recycling and sweep dead idle workers.
        Call periodically from the dispatch loop; cheap when nothing
        qualifies."""
        now = time.monotonic() if now is None else now
        for worker in list(self._workers):
            if worker.busy:
                continue
            if not worker.alive:
                self.stats["retired_dead"] += 1
                self._retire(worker, "dead")
            elif (
                self.idle_timeout is not None
                and now - worker.last_active > self.idle_timeout
            ):
                self.stats["recycled_idle"] += 1
                self._retire(worker, "idle")

    def live_workers(self) -> int:
        return sum(1 for w in self._workers if w.alive)

    def worker_pids(self) -> List[int]:
        """Pids of currently live workers — the set a clean shutdown
        must leave empty (orphan audits key on this)."""
        return [w.pid for w in self._workers if w.alive and w.pid]

    def shutdown(self) -> None:
        """Retire every worker (graceful exit frame, then force).
        Idempotent; the pool is reusable after — fresh workers spawn
        on the next dispatch."""
        for worker in list(self._workers):
            self._retire(worker, "shutdown")

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

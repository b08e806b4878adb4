"""The compile-attempt protocol shared by every worker process.

A worker process (:mod:`repro.service.pool`) runs compile attempts and
streams one structured result object back per attempt.  The isolation
is the whole point: a crash (``os._exit``, a segfault stand-in), an
OOM kill, an infinite loop, or an armed fault inside the compile can
take down only its own process — the parent observes a dead or
overdue child and applies retry/circuit/ledger policy, never a
traceback.

This module holds the per-attempt half of that contract; the pool
owns the processes and pipes:

1. :func:`build_payload` — reduce the task + driver config to a dict of
   primitives (safe under both ``fork`` and ``spawn`` start methods;
   armed fault specs ship inside it so injection is start-method
   agnostic).
2. :func:`detach_worker_process` — one-time child setup (signal
   dispositions, observability globals).
3. :func:`execute_payload` — run one attempt in the worker and build
   its result dict; :func:`wire_result` is what goes on the pipe.
4. :func:`validate_result` — the parent's schema check (a poisoned or
   missing result is classified as a crash), reported as a
   :class:`WorkerOutcome`.

Worker-level fault actions at the ``service.worker`` trip point
(:mod:`repro.utils.faults`): ``crash`` exits with
:data:`~repro.utils.faults.CRASH_EXIT_CODE` before compiling, ``hang``
sleeps past any reasonable deadline, ``raise`` surfaces as a
``worker-exception`` result, and ``poison-result`` ships a malformed
object in place of the result dict.  Every containment path is
therefore deterministically testable.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
from dataclasses import dataclass
from typing import Dict, Optional

from repro.service.manifest import CompileTask
from repro.utils import faults

#: Result schema version (bumped on shape changes; a mismatch is
#: treated as a malformed result, i.e. a crash).
RESULT_VERSION = 1

#: Statuses a well-formed worker result may carry.  The first three
#: mirror :attr:`repro.pipeline.driver.CompileReport.status`;
#: ``worker-exception`` means the compile infrastructure itself blew
#: up (retryable, like a crash, but with a message attached).
RESULT_STATUSES = ("ok", "degraded", "failed", "worker-exception")

#: The malformed object a ``poison-result`` fault ships instead of a
#: result dict.
POISON_PAYLOAD = "<<poisoned-result>>"

#: Grace between SIGTERM and SIGKILL when collecting an overdue worker.
DEFAULT_KILL_GRACE = 0.5


#: Environment variable forcing a multiprocessing start method
#: (``fork``, ``spawn``, or ``forkserver``) for every worker the
#: service starts.  The payload protocol is primitive-only precisely
#: so that all of them behave identically; the forced-``spawn``
#: regression test pins that down.
START_METHOD_ENV = "REPRO_START_METHOD"


def _mp_context():
    """``fork`` where available (fast, shares the warm interpreter),
    the platform default elsewhere; ``$REPRO_START_METHOD`` overrides
    both.  The payload protocol keeps every method correct."""
    override = os.environ.get(START_METHOD_ENV)
    if override:
        try:
            return multiprocessing.get_context(override)
        except ValueError:
            from repro.utils.errors import InputError

            raise InputError(
                "unknown start method {!r} in ${} (choose from: {})".format(
                    override, START_METHOD_ENV,
                    ", ".join(multiprocessing.get_all_start_methods()),
                )
            ) from None
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def build_payload(
    task: CompileTask,
    machine: str,
    registers: Optional[int],
    config,
) -> Dict[str, object]:
    """Primitive-only attempt description.

    *config* is a :class:`~repro.pipeline.driver.DriverConfig`; armed
    parent-process faults plus the task's own fault specs are folded
    in (task specs win on point collisions, letting a test target one
    task of a batch)."""
    spec_dicts = [spec.as_dict() for spec in faults.active_specs()]
    spec_dicts.extend(dict(d) for d in task.faults)
    return {
        "v": RESULT_VERSION,
        "task_id": task.task_id,
        "name": task.name,
        "text": task.text,
        "is_ir": task.is_ir,
        "machine": machine,
        "registers": registers,
        "config": dataclasses.asdict(config),
        "faults": spec_dicts,
    }


def detach_worker_process() -> None:
    """One-time setup of a worker process.

    Installs the worker's own signal dispositions (the parent's drain
    handler must not leak in under ``fork``): SIGTERM kills (the
    parent's timeout escalation relies on it), SIGINT is ignored so an
    interactive Ctrl-C drains the batch gracefully — in-flight
    compiles finish and reach the ledger.

    Also detaches the inherited observability globals: under ``fork``
    the child holds the parent's installed tracer (and its open
    descriptor) and metrics registry.  The trace is the *parent's*
    journal — a worker writing to it would interleave colliding span
    ids from every child — so both are reset; worker phase timings
    travel home inside the result's ``report.phase_seconds`` and the
    parent folds them into the trace as complete spans.
    """
    try:  # pragma: no cover - exercised in subprocesses
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass

    from repro import obs

    obs.set_tracer(None)
    obs.set_metrics(None)


def execute_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """Run one compile attempt described by *payload* and return the
    result dict (primitive-only, schema-checked by the parent via
    :func:`validate_result`).

    Arms exactly the fault specs the payload carries — previously
    armed points are cleared first, so a pool worker running many
    tasks can never leak one task's faults into the next.  Worker-
    level fault actions fire here: ``crash`` exits the process,
    ``hang`` sleeps until the parent kills it, ``raise`` becomes a
    ``worker-exception`` result.
    """
    faults.clear()
    for spec_dict in payload.get("faults", ()):
        faults.install(faults.FaultSpec.from_dict(spec_dict))

    result: Dict[str, object] = {
        "v": RESULT_VERSION,
        "task_id": payload["task_id"],
        "pid": os.getpid(),
    }
    try:
        # Worker-level fault simulations fire before any compile work:
        # crash exits the process here, hang sleeps until killed.
        faults.trip("service.worker")

        from repro.machine.presets import ALL_PRESETS
        from repro.pipeline.driver import CompilationDriver, DriverConfig
        from repro.utils.errors import InputError

        machine_name = payload["machine"]
        if machine_name not in ALL_PRESETS:
            raise InputError("unknown machine {!r}".format(machine_name))
        driver = CompilationDriver(
            ALL_PRESETS[machine_name](),
            num_registers=payload["registers"],
            config=DriverConfig(**payload["config"]),
        )
        outcome = driver.compile_text(
            payload["text"],
            is_ir=payload["is_ir"],
            name=payload["name"],
        )
        report = outcome.report
        result.update(
            status=report.status,
            exit_code=report.exit_code,
            failure_kind=report.failure_kind,
            report=report.as_dict(),
            metrics=outcome.result.as_row() if outcome.ok else None,
        )
    except BaseException as exc:  # noqa: BLE001 - the pipe IS the report
        result.update(
            status="worker-exception",
            exit_code=1,
            failure_kind="internal",
            report={"error": "{}: {}".format(type(exc).__name__, exc)},
            metrics=None,
        )
    return result


def wire_result(result: Dict[str, object]) -> object:
    """What actually goes on the pipe for *result*: the result itself,
    or the poison object when a ``poison-result`` fault is armed."""
    poison = faults.spec_at("service.worker")
    if poison is not None and poison.action == "poison-result":
        return POISON_PAYLOAD
    return result


@dataclass
class WorkerOutcome:
    """What the parent learned from one worker attempt.

    Attributes:
        kind: ``"result"`` (validated result in :attr:`result`),
            ``"timeout"`` (killed at the deadline), or ``"crash"``
            (died, or returned nothing/garbage).
        result: The validated result dict for ``"result"``, else None.
        pid: Worker process id (always known — ledgered so tests can
            assert no orphans).
        exitcode: Child exit code as observed by ``multiprocessing``
            (negative = killed by that signal), None if unknowable.
        duration_s: Wall time of the attempt as seen by the parent.
    """

    kind: str
    result: Optional[Dict[str, object]]
    pid: Optional[int]
    exitcode: Optional[int]
    duration_s: float

    @property
    def message(self) -> str:
        if self.kind == "timeout":
            return "worker killed at task timeout (pid {})".format(self.pid)
        if self.kind == "crash":
            return "worker crashed or returned a malformed result " \
                "(pid {}, exitcode {})".format(self.pid, self.exitcode)
        if self.result is not None and self.result.get("status") == \
                "worker-exception":
            report = self.result.get("report") or {}
            return str(report.get("error", "worker exception"))
        return ""


def validate_result(obj, task_id: str) -> Optional[Dict[str, object]]:
    """Schema-check a worker result; None means "treat as a crash".

    A compromised or fault-poisoned worker may send anything — the
    parent trusts nothing it cannot type-check."""
    if not isinstance(obj, dict):
        return None
    if obj.get("v") != RESULT_VERSION:
        return None
    if obj.get("task_id") != task_id:
        return None
    if obj.get("status") not in RESULT_STATUSES:
        return None
    if not isinstance(obj.get("pid"), int):
        return None
    if not isinstance(obj.get("exit_code"), int):
        return None
    if not isinstance(obj.get("report"), dict):
        return None
    return obj


def _kill(process, grace: float) -> None:
    """SIGTERM, wait *grace*, SIGKILL, join — never leaves a zombie."""
    process.terminate()
    process.join(grace)
    if process.is_alive():
        process.kill()
        process.join()

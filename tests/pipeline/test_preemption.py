"""Tests for mid-phase deadline preemption.

``--time-budget`` used to be checked only at phase boundaries, so one
long dependence build could blow far past the budget.  The driver now
threads a ``check_deadline`` callback into the bitset kernel's closure
loops; these tests pin the callback plumbing at every layer and the
driver-level behavior (a budget exhausted mid-phase aborts with exit 1
— it never degrades onto a ladder rung).
"""

import pytest

from repro.core.parallel_interference import build_parallel_interference_graph
from repro.deps import block_schedule_graph
from repro.deps.bitset import DependenceBitKernel
from repro.deps.false_dependence import false_dependence_graph
from repro.machine.presets import two_unit_superscalar, wide_issue
from repro.pipeline import driver as driver_module
from repro.pipeline.driver import (
    BUDGET_EXHAUSTED,
    EXIT_INTERNAL,
    CompilationDriver,
    DriverConfig,
    PhaseGuard,
)
from repro.utils import faults
from repro.utils.errors import BudgetExceededError
from repro.workloads import ALL_KERNELS, RandomBlockConfig, example1, random_block
from repro.workloads.generator import diamond_chain


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def machine():
    return two_unit_superscalar()


@pytest.fixture
def sg(machine):
    fn = ALL_KERNELS["dot4"]()
    return block_schedule_graph(fn.entry, machine=machine)


def _expired():
    raise BudgetExceededError("budget exhausted (test)")


class TestKernelCallback:
    def test_callback_is_polled(self, sg, machine):
        calls = []
        kernel = DependenceBitKernel.build(
            sg, machine, check_deadline=lambda: calls.append(1)
        )
        # Both closure loops poll at least their first iteration.
        assert len(calls) >= 2
        assert kernel is not None

    def test_callback_exception_preempts_build(self, sg, machine):
        with pytest.raises(BudgetExceededError):
            DependenceBitKernel.build(sg, machine, check_deadline=_expired)

    def test_no_callback_still_works(self, sg, machine):
        with_cb = DependenceBitKernel.build(
            sg, machine, check_deadline=lambda: None
        )
        without = DependenceBitKernel.build(sg, machine)
        assert with_cb.et_rows == without.et_rows
        assert with_cb.ef_rows == without.ef_rows

    def test_false_dependence_graph_forwards(self, sg, machine):
        with pytest.raises(BudgetExceededError):
            false_dependence_graph(sg, machine, check_deadline=_expired)

    def test_pig_build_forwards(self, machine):
        with pytest.raises(BudgetExceededError):
            build_parallel_interference_graph(
                example1(), machine, check_deadline=_expired
            )


class TestDriverMidPhase:
    def test_stalled_pig_phase_is_preempted(self, machine):
        # The stall fires *inside* the pig phase, after the boundary
        # check passed — only the in-kernel poll can catch it.
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=0.05)
        )
        with faults.inject("phase.pig", action="stall", seconds=0.3):
            outcome = driver.compile_function(example1())
        assert not outcome.ok
        report = outcome.report
        assert report.exit_code == EXIT_INTERNAL
        assert report.failure_kind == "internal"
        assert any("mid-phase" in d.message for d in report.diagnostics)

    def test_budget_never_degrades_to_a_rung(self, machine):
        # Even with the full ladder available (non-strict), a blown
        # budget aborts rather than retrying on a cheaper rung.
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=0.05, strict=False)
        )
        with faults.inject("phase.pig", action="stall", seconds=0.3):
            report = driver.compile_function(example1()).report
        assert report.status == "failed"
        assert not report.degraded
        assert not any(d.recovery for d in report.diagnostics)

    def test_generous_budget_unaffected(self, machine):
        driver = CompilationDriver(
            machine, config=DriverConfig(time_budget=60.0)
        )
        outcome = driver.compile_function(example1())
        assert outcome.ok
        assert outcome.report.status == "ok"


class TestColorPhaseDeadline:
    """Coloring polls the mid-phase checker: a budget that runs out
    inside the combined coloring aborts the compile from the ``color``
    phase instead of finishing the round (or degrading to Chaitin)."""

    @pytest.mark.parametrize("backend", ["compact", "reference"])
    def test_expiry_inside_coloring_aborts(
        self, machine, monkeypatch, backend
    ):
        state = {"coloring": False, "polls": 0}

        def watched(colorer):
            def run(*args, **kwargs):
                state["coloring"] = True
                try:
                    return colorer(*args, **kwargs)
                finally:
                    state["coloring"] = False

            return run

        def checker(guard):
            def check():
                if state["coloring"]:
                    state["polls"] += 1
                    if state["polls"] >= 3:
                        raise BudgetExceededError(
                            BUDGET_EXHAUSTED + " (mid-phase preemption)"
                        )

            return check

        for name in ("pinter_color", "reference_pinter_color"):
            monkeypatch.setattr(
                driver_module, name, watched(getattr(driver_module, name))
            )
        monkeypatch.setattr(PhaseGuard, "mid_phase_checker", checker)
        report = CompilationDriver(
            machine, num_registers=8, config=DriverConfig(backend=backend)
        ).compile_function(
            random_block(RandomBlockConfig(size=128, seed=128))
        ).report
        assert state["polls"] == 3
        assert report.status == "failed"
        assert report.exit_code == EXIT_INTERNAL
        errors = [d for d in report.diagnostics if d.severity == "error"]
        assert [d.phase for d in errors] == ["color"]
        assert "mid-phase" in errors[0].message
        assert not report.degraded
        assert not any(d.recovery for d in report.diagnostics)


class TestTheorem1PhaseDeadline:
    """The Theorem 1 check polls the mid-phase checker once per region
    and inside every kernel build: a budget that runs out inside the
    check fails the compile from the ``theorem1`` phase."""

    def test_expiry_inside_check_aborts(self, monkeypatch):
        state = {"checking": False, "polls": 0}
        check = driver_module.find_false_dependences

        def watched(*args, **kwargs):
            state["checking"] = True
            try:
                return check(*args, **kwargs)
            finally:
                state["checking"] = False

        def checker(guard):
            def poll():
                if state["checking"]:
                    state["polls"] += 1
                    if state["polls"] >= 3:
                        raise BudgetExceededError(
                            BUDGET_EXHAUSTED + " (mid-phase preemption)"
                        )

            return poll

        monkeypatch.setattr(driver_module, "find_false_dependences", watched)
        monkeypatch.setattr(PhaseGuard, "mid_phase_checker", checker)
        report = CompilationDriver(
            wide_issue(), num_registers=32
        ).compile_function(diamond_chain(4, 10, seed=2)).report
        assert state["polls"] == 3
        assert report.status == "failed"
        assert report.exit_code == EXIT_INTERNAL
        errors = [d for d in report.diagnostics if d.severity == "error"]
        assert [d.phase for d in errors] == ["theorem1"]
        assert BUDGET_EXHAUSTED in errors[0].message
        assert "mid-phase" in errors[0].message
        assert not report.degraded
        assert not any(d.recovery for d in report.diagnostics)

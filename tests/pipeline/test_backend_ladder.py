"""Backend degradation ladder tests (compact → reference → list).

The ``backend`` knob is orthogonal to the dependence ``engine``: it
selects the index-based fast paths for interference, coloring, and
scheduling.  Every compact rung must degrade to its reference twin
under injected faults — and the clean compact compile must match the
reference compile bit for bit.
"""

import pytest

from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import CompilationDriver, DriverConfig
from repro.utils import faults
from repro.utils.errors import InputError
from repro.workloads import example1, example2


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def machine():
    return two_unit_superscalar()


def recoveries(report):
    return [d.recovery for d in report.diagnostics if d.recovery]


def _driver(machine, **config):
    return CompilationDriver(
        machine, num_registers=3, config=DriverConfig(**config)
    )


class TestConfig:
    def test_default_is_compact(self, machine):
        assert DriverConfig().backend == "compact"
        assert _driver(machine).config.backend == "compact"

    def test_auto_rejected(self, machine):
        with pytest.raises(InputError, match="auto"):
            _driver(machine, backend="auto")

    def test_caller_config_is_not_modified(self, machine):
        cfg = DriverConfig()
        before = DriverConfig()
        driver = CompilationDriver(
            machine, config=cfg, strict=True, paranoid=True
        )
        assert cfg == before
        assert driver.config is not cfg
        assert driver.config.strict and driver.config.paranoid

    def test_unknown_backend_rejected(self, machine):
        with pytest.raises(InputError):
            _driver(machine, backend="turbo")

    def test_backend_changes_fingerprint(self):
        compact = DriverConfig(backend="compact")
        reference = DriverConfig(backend="reference")
        assert compact.fingerprint() != reference.fingerprint()


class TestLadder:
    def test_clean_compact_compile_not_degraded(self, machine):
        outcome = _driver(machine, backend="compact").compile_function(
            example2()
        )
        assert outcome.ok
        assert not outcome.report.degraded

    def test_sched_compact_fault_degrades_to_reference(self, machine):
        with faults.inject("sched.compact"):
            outcome = _driver(machine, backend="compact").compile_function(
                example2()
            )
        assert outcome.ok
        assert "reference backend" in recoveries(outcome.report)
        clean = _driver(machine, backend="reference").compile_function(
            example2()
        )
        assert outcome.result.cycles == clean.result.cycles

    def test_sched_augmented_fault_exhausts_both_rungs(self, machine):
        # sched.augmented fires inside the compact scheduler too, so
        # both backend rungs fail and the list scheduler takes over.
        with faults.inject("sched.augmented"):
            outcome = _driver(machine, backend="compact").compile_function(
                example2()
            )
        assert outcome.ok
        notes = recoveries(outcome.report)
        assert "reference backend" in notes
        assert "list scheduler" in notes

    def test_compact_allocator_fault_degrades(self, machine):
        # Chaitin fallback path: pinter coloring fails, then the
        # compact allocator faults, landing on the reference allocator.
        with faults.inject("core.pinter_color"), \
                faults.inject("regalloc.compact"):
            outcome = _driver(machine, backend="compact").compile_function(
                example2()
            )
        assert outcome.ok
        notes = recoveries(outcome.report)
        assert "chaitin spill fallback" in notes
        assert "reference backend" in notes

    def test_reference_backend_ignores_compact_faults(self, machine):
        with faults.inject("sched.compact"), \
                faults.inject("regalloc.compact"):
            outcome = _driver(machine, backend="reference").compile_function(
                example2()
            )
        assert outcome.ok
        assert not outcome.report.degraded


class TestParanoid:
    @pytest.mark.parametrize("backend", ["compact", "reference"])
    def test_paranoid_clean(self, machine, backend):
        outcome = _driver(
            machine, backend=backend, paranoid=True
        ).compile_function(example1())
        assert outcome.ok
        assert not outcome.report.degraded

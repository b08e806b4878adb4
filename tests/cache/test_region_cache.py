"""Region-grain cache keys, the machine-fingerprint collision fix, the
determinism of region serialization, and the namespaced store."""

import json
import os
import subprocess
import sys

import pytest

from repro.cache import (
    CACHE_VERSION,
    CompileCache,
    compile_cache_key,
    machine_fingerprint,
    region_cache_key,
    region_digest,
)
from repro.deps.schedule_graph import region_schedule_graph
from repro.ir.opcodes import Opcode, UnitKind
from repro.machine.model import MachineDescription
from repro.machine.presets import two_unit_superscalar
from repro.pipeline.driver import DriverConfig
from repro.utils import faults
from repro.workloads.generator import diamond_chain


def _custom_machine(**overrides):
    base = dict(
        name="custom",
        units={UnitKind.FIXED: 2, UnitKind.MEMORY: 1, UnitKind.BRANCH: 1},
        issue_width=2,
        num_registers=8,
        latencies={Opcode.MUL: 3},
    )
    base.update(overrides)
    return MachineDescription(**base)


# ----------------------------------------------------------------------
# machine_fingerprint: the headline collision fix
# ----------------------------------------------------------------------


class TestMachineFingerprint:
    def test_preset_name_fast_path_unchanged(self):
        assert machine_fingerprint("rs6000", None) == "rs6000/r=default"
        assert machine_fingerprint("rs6000", 16) == "rs6000/r=16"

    def test_latency_difference_distinguishes(self):
        a = _custom_machine(latencies={Opcode.MUL: 3})
        b = _custom_machine(latencies={Opcode.MUL: 5})
        assert machine_fingerprint(a) != machine_fingerprint(b)

    def test_unit_mix_difference_distinguishes(self):
        a = _custom_machine()
        b = _custom_machine(
            units={UnitKind.FIXED: 4, UnitKind.MEMORY: 1, UnitKind.BRANCH: 1}
        )
        assert machine_fingerprint(a) != machine_fingerprint(b)

    def test_issue_width_difference_distinguishes(self):
        assert machine_fingerprint(
            _custom_machine(issue_width=2)
        ) != machine_fingerprint(_custom_machine(issue_width=4))

    def test_equal_machines_agree(self):
        # MachineDescription compares by identity; the fingerprint
        # must see through that to the wire form.
        assert machine_fingerprint(_custom_machine()) == machine_fingerprint(
            _custom_machine()
        )

    def test_registers_override_still_distinguishes(self):
        m = _custom_machine()
        assert machine_fingerprint(m, 4) != machine_fingerprint(m, 8)

    def test_compile_cache_key_no_collision(self):
        # The original bug end to end: two custom machines differing
        # only in latency used to produce identical compile keys.
        cfg = DriverConfig()
        keys = [
            compile_cache_key(
                name="f", text="x", is_ir=True,
                machine=_custom_machine(latencies={Opcode.MUL: lat}),
                registers=None, config=cfg,
            ).digest()
            for lat in (3, 5)
        ]
        assert keys[0] != keys[1]


# ----------------------------------------------------------------------
# Region keys
# ----------------------------------------------------------------------


def _first_region_sg(fn, machine):
    from repro.analysis.regions import schedule_regions

    region = schedule_regions(fn)[0]
    return region_schedule_graph(fn, region.blocks, machine=machine)


class TestRegionKeys:
    def test_machine_identity_in_region_key(self):
        fn = diamond_chain(num_diamonds=2, block_size=6, seed=0)
        digests = set()
        for machine in (
            _custom_machine(latencies={Opcode.MUL: 3}),
            _custom_machine(latencies={Opcode.MUL: 5}),
            _custom_machine(issue_width=4),
        ):
            sg = _first_region_sg(fn, machine)
            digests.add(
                region_cache_key(sg, machine, "bitset", "cfg").digest()
            )
        assert len(digests) == 3

    def test_engine_and_config_in_region_key(self):
        machine = two_unit_superscalar()
        fn = diamond_chain(num_diamonds=2, block_size=6, seed=0)
        sg = _first_region_sg(fn, machine)
        base = region_cache_key(sg, machine, "bitset", "cfg").digest()
        assert base != region_cache_key(sg, machine, "vector", "cfg").digest()
        assert base != region_cache_key(sg, machine, "bitset", "other").digest()

    def test_region_digest_tracks_edit(self):
        machine = two_unit_superscalar()
        before = diamond_chain(num_diamonds=2, block_size=6, seed=0)
        after = diamond_chain(num_diamonds=2, block_size=6, seed=1)
        assert region_digest(
            _first_region_sg(before, machine)
        ) != region_digest(_first_region_sg(after, machine))

    def test_region_digest_repeatable_in_process(self):
        machine = two_unit_superscalar()
        fn = diamond_chain(num_diamonds=3, block_size=8, seed=2)
        sg = _first_region_sg(fn, machine)
        assert region_digest(sg) == region_digest(sg)


_DIGEST_SCRIPT = """
import json, sys
from repro.analysis.regions import schedule_regions
from repro.cache import region_digest
from repro.deps.schedule_graph import region_schedule_graph
from repro.machine.presets import two_unit_superscalar
from repro.workloads.generator import diamond_chain

fn = diamond_chain(num_diamonds=3, block_size=8, seed=5)
machine = two_unit_superscalar()
digests = [
    region_digest(region_schedule_graph(fn, r.blocks, machine=machine))
    for r in schedule_regions(fn)
]
print(json.dumps(digests))
"""


class TestDeterminismAcrossProcesses:
    def test_region_digests_stable_under_hash_randomization(self):
        # The satellite-2 regression: set/dict iteration order differs
        # between processes under hash randomization, and none of it
        # may leak into the canonical region serialization.
        results = []
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (
                    os.path.join(os.path.dirname(__file__), "..", "..", "src"),
                    env.get("PYTHONPATH"),
                ) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                capture_output=True, text=True, env=env, check=True,
            )
            results.append(json.loads(proc.stdout))
        assert results[0] == results[1]
        assert len(results[0]) >= 4  # a real multi-region workload


# ----------------------------------------------------------------------
# Namespaced store
# ----------------------------------------------------------------------


def _entry():
    return {
        "status": "ok", "exit_code": 0, "failure_kind": None,
        "metrics": None, "report": {"kind": "x"},
    }


def _key(tag="a"):
    return compile_cache_key(
        name=tag, text=tag, is_ir=True, machine="preset",
        registers=None, config=DriverConfig(),
    )


class TestStoreNamespace:
    def test_namespace_roots_under_subdirectory(self, tmp_path):
        cache = CompileCache(directory=str(tmp_path), namespace="region")
        assert cache.put(_key(), _entry())
        top = set(os.listdir(str(tmp_path)))
        assert top == {"region"}

    def test_namespaces_do_not_share_entries(self, tmp_path):
        a = CompileCache(directory=str(tmp_path))
        b = CompileCache(directory=str(tmp_path), namespace="region")
        a.put(_key(), _entry())
        assert b.get(_key()) is None

    def test_recovery_ignores_sibling_namespace(self, tmp_path):
        region = CompileCache(
            directory=str(tmp_path), namespace="region",
            )
        region.put(_key("r"), _entry())
        # A default-namespace cache with a tiny disk budget attaches
        # to the same directory: its recovery walk and its eviction
        # must never touch the region namespace's files.
        default = CompileCache(directory=str(tmp_path), max_disk_entries=1)
        assert default.snapshot()["disk_entries"] == 0
        fresh_region = CompileCache(
            directory=str(tmp_path), namespace="region"
        )
        assert fresh_region.get(_key("r")) is not None

    @pytest.mark.parametrize(
        "bad", ["ab", "0f", "", ".hidden", "a/b", "a" + os.sep + "b"]
    )
    def test_invalid_namespace_rejected(self, tmp_path, bad):
        from repro.utils.errors import InputError

        with pytest.raises(InputError):
            CompileCache(directory=str(tmp_path), namespace=bad)

    def test_version_bump_invalidates_stale_entries(self, tmp_path):
        assert CACHE_VERSION >= 3  # bumped with the fingerprint fix
        cache = CompileCache(directory=str(tmp_path))
        key = _key()
        assert cache.put(key, _entry())
        path = cache._entry_path(key.digest())
        with open(path) as handle:
            document = json.load(handle)
        document["v"] = CACHE_VERSION - 1
        with open(path, "w") as handle:
            json.dump(document, handle)
        stale = CompileCache(directory=str(tmp_path))
        assert stale.get(key) is None


# ----------------------------------------------------------------------
# Fault/degraded honesty at region grain
# ----------------------------------------------------------------------


class TestRegionCacheHonesty:
    def test_fault_armed_process_never_reads_or_writes(self):
        from repro.core.parallel_interference import (
            build_parallel_interference_graph,
        )
        from repro.pipeline.incremental import cached_region_fdg

        machine = two_unit_superscalar()
        fn = diamond_chain(num_diamonds=2, block_size=8, seed=0)
        cache = CompileCache(capacity=64)
        # Warm the cache cleanly first.
        build_parallel_interference_graph(fn, machine, region_cache=cache)
        warm = cache.snapshot()
        assert warm["stores"] > 0
        with faults.inject("sched.augmented"):  # armed, never fired
            build_parallel_interference_graph(fn, machine, region_cache=cache)
            sg = _first_region_sg(fn, machine)
            cached_region_fdg(sg, machine, "bitset", cache)
        after = cache.snapshot()
        assert after["stores"] == warm["stores"]
        assert after["hits"] == warm["hits"]
        assert after["misses"] == warm["misses"]

    def test_counters_only_for_engines_the_store_serves(self):
        # The reference engine has no wire rows: a build handed a
        # cache anyway neither touches the store nor counts a lookup
        # or a compose.  The bitset build with the same cache does.
        from repro.core.parallel_interference import (
            build_parallel_interference_graph,
        )
        from repro.obs import collecting_metrics

        machine = two_unit_superscalar()
        fn = diamond_chain(num_diamonds=2, block_size=8, seed=0)
        cache = CompileCache(capacity=64)

        def region_counters(engine):
            with collecting_metrics() as registry:
                build_parallel_interference_graph(
                    fn, machine, engine=engine, region_cache=cache
                )
            return {
                name: value
                for name, value in registry.snapshot()["counters"].items()
                if name.startswith("cache.region.")
            }

        assert region_counters("reference") == {}
        assert cache.snapshot()["stores"] == 0
        counted = region_counters("bitset")
        assert counted["cache.region.compose"] == 1
        assert counted["cache.region.miss"] > 0

    def test_degraded_result_never_stored(self):
        # The driver consults the region cache only for its primary
        # engine: a ladder fallback (or an explicit reference config)
        # gets no cache at all.
        from repro.machine.presets import two_unit_superscalar
        from repro.pipeline.driver import CompilationDriver

        driver = CompilationDriver(
            two_unit_superscalar(),
            config=DriverConfig(engine="bitset", region_cache=True),
        )
        assert driver._region_cache("bitset") is not None
        assert driver._region_cache("reference") is None
        assert driver._region_cache("vector") is None  # not the primary
        with faults.inject("phase.pig"):
            assert driver._region_cache("bitset") is None

    def test_degraded_rung_configs_disable_region_cache(self):
        from repro.service.batch import (
            BatchRunner,
            CIRCUIT_RUNG,
            RECHECK_RUNG,
        )

        runner = BatchRunner(
            machine="two-unit-superscalar",
            driver_config=DriverConfig(engine="bitset", region_cache=True),
        )
        try:
            assert runner.config.region_cache is True
            assert runner._config_for(CIRCUIT_RUNG).region_cache is False
            assert runner._config_for(RECHECK_RUNG).region_cache is False
        finally:
            close = getattr(runner, "close", None)
            if close is not None:
                close()


# ----------------------------------------------------------------------
# Entry codec: hex wire rows and poisoned-entry validation
# ----------------------------------------------------------------------


def _first_region_kernel():
    from repro.deps.false_dependence import false_dependence_graph

    machine = two_unit_superscalar()
    fn = diamond_chain(num_diamonds=2, block_size=8, seed=0)
    sg = _first_region_sg(fn, machine)
    return sg, false_dependence_graph(sg, machine).kernel


class TestEntryCodec:
    def test_hex_rows_round_trip(self):
        from repro.pipeline.incremental import rows_from_hex, rows_to_hex

        rows = [0, 1, (1 << 64) | 5, (1 << 130) - 1]
        assert rows_from_hex(rows_to_hex(rows)) == rows
        # The on-disk form: bare lower-case hex, no prefix.
        assert rows_to_hex([0, 10, 1 << 64]) == [
            "0", "a", "10000000000000000",
        ]

    def test_report_layout(self):
        from repro.pipeline.incremental import kernel_to_report

        sg, kernel = _first_region_kernel()
        report = kernel_to_report(kernel, "bitset")
        n = len(sg.instructions)
        assert report == {
            "kind": "pig_region",
            "engine": "bitset",
            "n": n,
            "reach": [format(r, "x") for r in kernel.reach_rows],
            "contention": [format(r, "x") for r in kernel.contention_rows],
            "et": [format(r, "x") for r in kernel.et_rows],
            "ef": [format(r, "x") for r in kernel.ef_rows],
        }
        # JSON-safe, as the disk tier stores it.
        assert json.loads(json.dumps(report)) == report

    def test_kernel_round_trip(self):
        from repro.pipeline.incremental import (
            _kernel_from_report,
            kernel_to_report,
        )

        sg, kernel = _first_region_kernel()
        rebuilt = _kernel_from_report(
            kernel_to_report(kernel, "bitset"), list(sg.instructions)
        )
        assert rebuilt is not None
        assert rebuilt.index.instructions == kernel.index.instructions
        for family in ("reach_rows", "contention_rows", "et_rows", "ef_rows"):
            assert getattr(rebuilt, family) == getattr(kernel, family)

    @pytest.mark.parametrize("poison", [
        "not-a-dict",
        "wrong-kind",
        "wrong-n",
        "missing-family",
        "short-family",
        "bad-hex",
        "non-string-row",
    ])
    def test_poisoned_report_rejected(self, poison):
        from repro.pipeline.incremental import (
            _kernel_from_report,
            kernel_to_report,
        )

        sg, kernel = _first_region_kernel()
        report = kernel_to_report(kernel, "bitset")
        if poison == "not-a-dict":
            report = "<<poisoned-result>>"
        elif poison == "wrong-kind":
            report["kind"] = "interference_region"
        elif poison == "wrong-n":
            report["n"] += 1
        elif poison == "missing-family":
            del report["et"]
        elif poison == "short-family":
            report["ef"] = report["ef"][:-1]
        elif poison == "bad-hex":
            report["reach"][0] = "zz"
        elif poison == "non-string-row":
            report["contention"][0] = None
        assert _kernel_from_report(report, list(sg.instructions)) is None

    def test_poisoned_entry_degrades_to_rebuild(self):
        from repro.cache.keys import region_cache_key
        from repro.pipeline.incremental import cached_region_fdg

        machine = two_unit_superscalar()
        sg, kernel = _first_region_kernel()
        cache = CompileCache(capacity=8)
        key = region_cache_key(sg, machine, "bitset", "")
        cache.put(key, {
            "status": "ok",
            "exit_code": 0,
            "failure_kind": None,
            "metrics": None,
            "report": {"kind": "pig_region", "n": -1},
        })
        fdg = cached_region_fdg(sg, machine, "bitset", cache)
        assert fdg.kernel.ef_rows == kernel.ef_rows
        assert fdg.kernel.et_rows == kernel.et_rows
        # The poisoned entry was read, rejected, and overwritten by
        # the rebuilt kernel.
        stats = cache.snapshot()
        assert stats["hits"] == 1 and stats["stores"] == 2
        again = cached_region_fdg(sg, machine, "bitset", cache)
        assert again.kernel.ef_rows == kernel.ef_rows

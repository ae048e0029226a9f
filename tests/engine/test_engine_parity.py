"""Bit-identity contract of the batched components, and the rule that
picks them.

The batched kernel (:mod:`repro.core.pac_batched`), the batched cache
hierarchy and the batched devices are only allowed to exist because they
are *indistinguishable* from the scalar reference pipeline: every field
of every :class:`~repro.engine.results.RunResult` (``health`` excluded
from ``==`` by design) must match the oracle (:mod:`tests.oracle`),
across every benchmark, arm and protocol. This suite is the enforcement
point — the perf numbers in ``BENCH_*.json`` are only meaningful while
these tests pass.

The grid here intentionally trades trace length for coverage breadth:
short traces across benchmarks × protocols × fine_grain catch divergence
in per-op dispatch, window partitioning, MSHR merging, and drain
ordering far more reliably than one long trace on one configuration.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cache.batched import BatchedCacheHierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer
from repro.engine.driver import run_benchmark
from repro.engine.system import CoalescerKind, System
from repro.hmc.batched import BatchedHMCDevice
from repro.hmc.device import HMCDevice
from repro.mshr.dmc import MSHRBasedDMC, NullCoalescer
from repro.telemetry import events as ev
from tests.oracle import reference_engines, reference_system

GRID_ACCESSES = 4000
SEED = 1234

BENCHMARKS = ("gs", "stream", "bfs")
DEVICES = ("hmc", "hbm", "ddr")


def _run(bench, device, **kw):
    return run_benchmark(
        bench,
        coalescer=CoalescerKind.PAC,
        n_accesses=GRID_ACCESSES,
        seed=SEED,
        device=device,
        faults=False,
        **kw,
    )


def _oracle(bench, device, fine_grain=False, **kw):
    system = reference_system(
        coalescer=CoalescerKind.PAC, device=device, fine_grain=fine_grain,
        **kw,
    )
    return system.run(bench, GRID_ACCESSES, seed=SEED)


class TestBitIdentity:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_full_runresult_equality(self, bench, device):
        assert _run(bench, device) == _oracle(bench, device)

    def test_fine_grain_equality(self):
        bat = _run("gs", "hmc", fine_grain=True)
        assert bat == _oracle("gs", "hmc", fine_grain=True)

    def test_auto_resolves_to_batched_and_matches(self):
        system = System(coalescer=CoalescerKind.PAC)
        assert type(system.coalescer) is BatchedPagedAdaptiveCoalescer
        assert _run("stream", "hmc") == _oracle("stream", "hmc")

    def test_issued_packets_identical(self):
        """The packet stream itself — not just aggregates — must match.

        req_ids come from a process-global counter, so both pipelines
        must replay the *same* trace object to be comparable.
        """
        base = reference_system(coalescer=CoalescerKind.PAC)
        trace = base.build_trace(["gs"], 3000, seed=7)
        requests = list(trace.requests())
        ref = base.coalescer.process(list(requests), base.device)
        bat_sys = System(coalescer=CoalescerKind.PAC)
        bat = bat_sys.coalescer.process(list(requests), bat_sys.device)
        assert len(ref.issued) == len(bat.issued)
        for a, b in zip(ref.issued, bat.issued):
            assert a == b
        assert (
            base.coalescer.stats.as_dict()
            == bat_sys.coalescer.stats.as_dict()
        )


class TestDispatchRules:
    def test_reference_always_honoured(self):
        """The oracle runs every stage on its scalar component."""
        for kw in ({}, {"telemetry": True}):
            s = reference_system(coalescer=CoalescerKind.PAC, **kw)
            assert type(s.coalescer) is PagedAdaptiveCoalescer
            assert type(s.hierarchy) is CacheHierarchy
            assert type(s.device) is HMCDevice

    @pytest.mark.parametrize("kind", [CoalescerKind.NONE, CoalescerKind.DMC])
    def test_non_pac_auto_is_reference(self, kind):
        # Only the PAC arm has a batched kernel.
        s = System(coalescer=kind)
        assert type(s.coalescer) in (NullCoalescer, MSHRBasedDMC)


class TestGridLevelEngine:
    """Multi-arm entry points run the batched components on every arm
    that has them and match the oracle, whole grids at once."""

    def test_run_comparison_accepts_batched(self):
        from repro.engine.driver import run_comparison

        kw = dict(n_accesses=2000, seed=11, use_artifact_cache=False)
        with reference_engines():
            ref = run_comparison("stream", **kw)
        assert ref == run_comparison("stream", **kw)

    def test_run_suite_parallel_accepts_batched(self):
        from repro.engine.parallel import run_suite_parallel

        kw = dict(n_accesses=1500, seed=9, benchmarks=["gs", "stream"])
        with reference_engines():
            ref = run_suite_parallel(max_workers=1, **kw)
        assert ref == run_suite_parallel(max_workers=2, **kw)


class TestAutoDemotion:
    """An observed run takes the scalar components on its own, silently."""

    def test_telemetry_demotes_and_matches_reference(self):
        observed = _run("gs", "hmc", telemetry=True)
        assert observed == _oracle("gs", "hmc", telemetry=True)

    def test_clean_run_does_not_demote(self):
        log = ev.EventLog()
        with ev.installed(log):
            system = System(coalescer=CoalescerKind.PAC)
            System(coalescer=CoalescerKind.PAC, telemetry=True)
        assert type(system.coalescer) is BatchedPagedAdaptiveCoalescer
        assert not [r for r in log.records if r["kind"] == "demote"]


class TestObservationRule:
    """``observed = telemetry or spans`` picks every component."""

    def test_observed_run_is_scalar_and_equals_unobserved_run(self):
        """An observed system runs the scalar components, and its result
        with the observations removed equals the unobserved run's."""
        for kw in ({"telemetry": True}, {"spans": True}):
            s = System(coalescer=CoalescerKind.PAC, **kw)
            assert s.observed
            assert type(s.coalescer) is PagedAdaptiveCoalescer
            assert type(s.hierarchy) is CacheHierarchy
            assert type(s.device) is HMCDevice
        observed = _run("bfs", "hmc", telemetry=True, spans=True)
        assert observed.telemetry is not None and observed.spans is not None
        stripped = dataclasses.replace(observed, telemetry=None, spans=None)
        assert stripped == _run("bfs", "hmc")

    def test_active_faults_keep_batched_components(self):
        """Every fault site sits outside the simulator, so an active
        plan leaves the run on the batched components — and the result
        still matches the oracle."""
        from repro.faults import FaultInjector, installed, resolve_plan

        spec = "artifact.get:corrupt@0"
        with installed(FaultInjector(resolve_plan(spec))):
            s = System(coalescer=CoalescerKind.PAC)
            assert type(s.coalescer) is BatchedPagedAdaptiveCoalescer
            assert type(s.hierarchy) is BatchedCacheHierarchy
            assert type(s.device) is BatchedHMCDevice
        faulted = run_benchmark(
            "gs", coalescer=CoalescerKind.PAC, n_accesses=GRID_ACCESSES,
            seed=SEED, faults=spec,
        )
        assert faulted == _oracle("gs", "hmc")


class TestBackendEngine:
    """Device selection per protocol."""

    def test_auto_dispatches_batched_device_per_protocol(self):
        from repro.ddr.batched import BatchedDDRDevice
        from repro.hmc.batched import BatchedHBMDevice

        expected = {
            "hmc": BatchedHMCDevice,
            "hbm": BatchedHBMDevice,
            "ddr": BatchedDDRDevice,
        }
        for device, cls in expected.items():
            s = System(coalescer=CoalescerKind.PAC, device=device)
            assert type(s.device) is cls

    def test_reference_pins_scalar_device_classes(self):
        from repro.ddr.device import DDRDevice
        from repro.hmc.hbm import HBMDevice

        expected = {"hmc": HMCDevice, "hbm": HBMDevice, "ddr": DDRDevice}
        for device, cls in expected.items():
            s = reference_system(coalescer=CoalescerKind.PAC, device=device)
            assert type(s.device) is cls
            s = System(coalescer=CoalescerKind.PAC, device=device, spans=True)
            assert type(s.device) is cls

    def test_non_pac_arms_still_get_batched_backend(self):
        # The device is arm-independent: NONE/DMC have no batched
        # coalescer, but they still drive the batched device.
        for kind in (CoalescerKind.NONE, CoalescerKind.DMC):
            s = System(coalescer=kind, device="hmc")
            assert type(s.device) is BatchedHMCDevice

    @pytest.mark.parametrize("blocker_kw", [
        {"telemetry": True}, {"spans": True},
    ])
    def test_blockers_demote_auto_backend(self, blocker_kw):
        s = System(coalescer=CoalescerKind.PAC, **blocker_kw)
        assert type(s.device) is HMCDevice

    def test_run_raw_syncs_batched_device(self):
        # run_trace/run_raw must merge the deferred window before
        # build_result reads the device's stats/energy surfaces — the
        # RunResult equality in TestBitIdentity only holds if it did,
        # but assert the mechanism directly: no residue after a run.
        s = System(coalescer=CoalescerKind.PAC)
        assert type(s.device) is BatchedHMCDevice
        s.run("gs", 2000, seed=SEED)
        assert s.device._w == [0] * len(s.device._w)

"""Bit-identity contract of the batched cache front-end.

:class:`repro.cache.batched.BatchedCacheHierarchy` is only allowed to
exist because it is indistinguishable from the scalar reference: the
same requests (including req_ids) in the same cycle order, the same
eager secondaries and streamer-prefetcher decisions, the same LLC
write-back stream, the same ``StatsRegistry`` counters, and therefore
the same full :class:`~repro.engine.results.RunResult` through every
coalescer arm. This suite is the enforcement point for the front-end
half of the bit-identity contract (the coalescer and device halves live
in ``tests/engine/test_engine_parity.py``).
"""

from __future__ import annotations

import pytest

from repro.cache.batched import BatchedCacheHierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.common.types import reset_request_ids
from repro.config import TABLE1
from repro.engine.driver import run_benchmark
from repro.engine.system import CoalescerKind, System
from tests.oracle import reference_system

#: The CI parity grid: the paper's most coalescable (gs), least
#: coalescable (bfs), stride-friendly (stream), and mixed (hpcg)
#: workloads — together they exercise every emission path (secondaries,
#: prefetches, write-backs, set conflicts).
BENCHMARKS = ("gs", "hpcg", "stream", "bfs")
N = 4000
SEED = 1234


def _trace(bench, n=N, seed=SEED):
    system = reference_system(coalescer=CoalescerKind.NONE)
    return system.build_trace([bench], n, seed=seed)


def _pair(fine_grain=False):
    cfg = TABLE1
    kw = dict(
        n_cores=cfg.n_cores,
        prefetch_enabled=not fine_grain,
    )
    return (
        CacheHierarchy(cfg.cache, **kw),
        BatchedCacheHierarchy(cfg.cache, **kw),
    )


def _streams(trace, fine_grain=False):
    ref, bat = _pair(fine_grain)
    reset_request_ids()
    rs = ref.fine_grain_stream(trace) if fine_grain else ref.process(trace)
    reset_request_ids()
    bs = bat.fine_grain_stream(trace) if fine_grain else bat.process(trace)
    return ref, rs, bat, bs


class TestRawStreamIdentity:
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_requests_and_counters_identical(self, bench):
        trace = _trace(bench)
        ref, rs, bat, bs = _streams(trace)
        assert rs.n_accesses == bs.n_accesses
        assert len(rs.requests) == len(bs.requests)
        # MemoryRequest == covers addr/size/op/core/cycle/req_id, so
        # this pins the whole stream, not aggregates.
        assert rs.requests == bs.requests
        assert rs.stats.as_dict() == bs.stats.as_dict()
        assert ref.summary_metrics(len(rs.requests)) == bat.summary_metrics(
            len(bs.requests)
        )
        for rl1, bl1 in zip(ref.l1s, bat.l1s):
            assert rl1.hit_rate == bl1.hit_rate
        assert ref.llc.hit_rate == bat.llc.hit_rate

    @pytest.mark.parametrize("bench", ("gs", "bfs"))
    def test_fine_grain_stream_identical(self, bench):
        trace = _trace(bench, n=2500)
        _, rs, _, bs = _streams(trace, fine_grain=True)
        assert rs.requests == bs.requests
        assert rs.stats.as_dict() == bs.stats.as_dict()

    def test_multi_process_trace_identical(self):
        """Co-running benchmarks: per-core streams span two page tables."""
        system = reference_system(coalescer=CoalescerKind.NONE)
        trace = system.build_trace(["gs", "bfs"], 3000, seed=9)
        _, rs, _, bs = _streams(trace)
        assert rs.requests == bs.requests
        assert rs.stats.as_dict() == bs.stats.as_dict()

    def test_repeat_process_calls_stay_identical(self):
        """Residual LRU/prefetch state must evolve identically between
        consecutive ``process`` calls on one hierarchy."""
        t1 = _trace("stream", n=1500, seed=3)
        t2 = _trace("gs", n=1500, seed=4)
        ref, bat = _pair()
        reset_request_ids()
        r1 = ref.process(t1)
        r2 = ref.process(t2)
        reset_request_ids()
        b1 = bat.process(t1)
        b2 = bat.process(t2)
        assert r1.requests == b1.requests
        assert r2.requests == b2.requests
        assert ref.stats.as_dict() == bat.stats.as_dict()


class TestRunResultIdentity:
    """Full-``RunResult`` equality against the oracle, every coalescer
    arm — the acceptance gate mirrored by the CI front-end parity step."""

    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize(
        "kind", (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)
    )
    def test_reference_vs_auto(self, bench, kind):
        ref = reference_system(coalescer=kind).run(bench, N, seed=SEED)
        auto = run_benchmark(
            bench, coalescer=kind, n_accesses=N, seed=SEED, faults=False,
        )
        assert ref == auto

    def test_reference_vs_explicit_batched_pac(self):
        """The oracle against a PAC system assembled explicitly with the
        batched front-end and the scalar coalescer and device: the
        front-end alone already matches."""
        ref = reference_system(coalescer=CoalescerKind.PAC)
        mixed = reference_system(coalescer=CoalescerKind.PAC)
        mixed.hierarchy = System(coalescer=CoalescerKind.PAC).hierarchy
        assert isinstance(mixed.hierarchy, BatchedCacheHierarchy)
        assert ref.run("gs", N, seed=SEED) == mixed.run("gs", N, seed=SEED)


class TestFrontendDispatch:
    def test_auto_builds_batched_hierarchy_for_every_arm(self):
        for kind in (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC):
            s = System(coalescer=kind)
            assert isinstance(s.hierarchy, BatchedCacheHierarchy)

    def test_reference_builds_scalar_hierarchy(self):
        s = reference_system(coalescer=CoalescerKind.PAC)
        assert not isinstance(s.hierarchy, BatchedCacheHierarchy)

    def test_probes_demote_frontend(self):
        for kw in ({"telemetry": True}, {"spans": True}):
            s = System(coalescer=CoalescerKind.NONE, **kw)
            assert not isinstance(s.hierarchy, BatchedCacheHierarchy)

    def test_batched_ctor_refuses_enabled_probes(self):
        from repro.telemetry import TelemetryRegistry

        with pytest.raises(ValueError, match="probe"):
            BatchedCacheHierarchy(
                TABLE1.cache, probes=TelemetryRegistry().scope("cache")
            )

    def test_reference_engine_pins_scalar_trace_generators(self, monkeypatch):
        """The oracle must run the retained scalar generators — same
        bits, different code path."""
        from repro.workloads.gather_scatter import GatherScatter

        s_fast = System(coalescer=CoalescerKind.NONE)
        t_fast = s_fast.build_trace(["gs"], 600, seed=2)

        def vectorized(*args, **kwargs):
            raise AssertionError("the oracle ran the vectorized generator")

        monkeypatch.setattr(GatherScatter, "_core_stream", vectorized)
        s_ref = reference_system(coalescer=CoalescerKind.NONE)
        t_ref = s_ref.build_trace(["gs"], 600, seed=2)
        assert (t_ref.addrs == t_fast.addrs).all()
        assert (t_ref.cycles == t_fast.cycles).all()

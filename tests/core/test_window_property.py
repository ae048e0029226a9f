"""Properties of the batched kernel's window partitioning.

``partition_windows`` is the structural foundation of the batched
coalescer engine: it splits the raw stream into fence-delimited
quiescent windows whose stage-1 state is provably empty at every
boundary. Two invariant families are pinned here:

1. **Partition laws** (pure, on arbitrary streams): concatenation
   reproduces the input exactly; fences appear only as window-final
   elements; every window except possibly the last is fence-terminated.
2. **Engine equality on synthetic streams**: the batched kernel and the
   reference pipeline produce identical coalescing outcomes over
   hypothesis-generated request mixes — loads, stores, atomics (bypass)
   and fences (window boundaries) — against the real HMC device model.
   This complements ``tests/engine/test_engine_parity.py`` (workload
   traces) with adversarial op mixes the workloads never emit, e.g.
   fence-only streams and back-to-back fences (empty windows).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES
from repro.core.pac_batched import partition_windows

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def request_streams(draw, with_fences=True):
    """Cycle-ordered streams over a few pages, with all four ops."""
    n = draw(st.integers(min_value=0, max_value=50))
    pages = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 18),
            min_size=1, max_size=4, unique=True,
        )
    )
    ops = [MemOp.LOAD, MemOp.LOAD, MemOp.STORE, MemOp.ATOMIC]
    if with_fences:
        ops.append(MemOp.FENCE)
    reqs = []
    cycle = 0
    for _ in range(n):
        cycle += draw(st.integers(min_value=0, max_value=12))
        reqs.append(
            MemoryRequest(
                addr=draw(st.sampled_from(pages)) * PAGE_BYTES
                + draw(st.integers(min_value=0, max_value=63)) * 64,
                size=64,
                op=draw(st.sampled_from(ops)),
                cycle=cycle,
            )
        )
    return reqs


class TestPartitionLaws:
    @given(reqs=request_streams())
    @settings(**SETTINGS)
    def test_concatenation_is_identity(self, reqs):
        windows = partition_windows(reqs)
        flat = [req for window in windows for req in window]
        assert flat == reqs

    @given(reqs=request_streams())
    @settings(**SETTINGS)
    def test_fences_only_at_window_ends(self, reqs):
        windows = partition_windows(reqs)
        for window in windows:
            assert window, "partition_windows must not emit empty windows"
            for req in window[:-1]:
                assert req.op is not MemOp.FENCE
        # Every window but (possibly) the last is closed by its fence.
        for window in windows[:-1]:
            assert window[-1].op is MemOp.FENCE

    @given(reqs=request_streams(with_fences=False))
    @settings(**SETTINGS)
    def test_fence_free_stream_is_one_window(self, reqs):
        windows = partition_windows(reqs)
        if not reqs:
            assert windows == []
        else:
            assert len(windows) == 1
            assert windows[0] == reqs

    def test_back_to_back_fences_make_singleton_windows(self):
        fences = [
            MemoryRequest(addr=0, op=MemOp.FENCE, cycle=i) for i in range(3)
        ]
        windows = partition_windows(fences)
        assert [len(w) for w in windows] == [1, 1, 1]


class TestEngineEqualityOnSyntheticStreams:
    @given(reqs=request_streams())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batched_matches_reference(self, reqs):
        from repro.engine.system import CoalescerKind, System
        from tests.oracle import reference_system

        ref_sys = reference_system(coalescer=CoalescerKind.PAC)
        bat_sys = System(coalescer=CoalescerKind.PAC)
        ref = ref_sys.coalescer.process(list(reqs), ref_sys.device)
        bat = bat_sys.coalescer.process(list(reqs), bat_sys.device)
        assert ref.n_issued == bat.n_issued
        assert ref.n_merged == bat.n_merged
        assert ref.last_completion_cycle == bat.last_completion_cycle
        assert ref.issued == bat.issued
        assert (
            ref_sys.coalescer.stats.as_dict()
            == bat_sys.coalescer.stats.as_dict()
        )
        assert (
            ref_sys.coalescer.aggregator.stats.as_dict()
            == bat_sys.coalescer.aggregator.stats.as_dict()
        )
        assert (
            ref_sys.coalescer.maq.stats.as_dict()
            == bat_sys.coalescer.maq.stats.as_dict()
        )

"""The microbenchmark harness: warmup, min-of-N repeats, phase splits.

Methodology (pyperf-style):

* every measurement runs ``warmup`` untimed iterations first, then
  ``repeats`` timed iterations; the reported number is the **minimum**
  (the least-noise estimate of the true cost on an otherwise idle
  machine), with all samples retained in the JSON for scrutiny;
* end-to-end measurements drive :func:`repro.engine.driver.run_comparison`
  — the none/dmc/pac arms on one regenerated trace, i.e. exactly what a
  design-space sweep runs per (benchmark, config) point;
* the per-phase split wraps the run in phase timers: **trace-gen**
  (workload generation + page-table translation), **cache** (hierarchy
  walk producing the raw stream), **device** (cycles spent inside
  ``MemoryDevice.submit``), and **coalescer** (everything else in
  ``Coalescer.process``, i.e. stage 1 + network + MAQ + MSHRs);
* per-stage isolation benchmarks re-run a single stage over a
  pre-computed input so stage costs can be compared without upstream
  noise. Every stage is measured on two legs (:func:`stage_legs`): the
  batched component an unobserved run uses (``coalescer``, ``cache``,
  ...) and the scalar reference it must stay bit-identical to
  (``coalescer_reference``, ...). The device legs drive the per-packet
  ``submit`` loop that coalescers drive, followed by ``sync``. So the
  coalescer, front-end and device speedups are first-class harness
  outputs;
* peak RSS comes from ``resource.getrusage`` (kilobytes on Linux).

**Best vs median.** Every :class:`Timing` retains all samples, and
exposes both the **min** (``seconds`` — the least-noise estimate of
the true cost, reported in tables and compared by every regression
gate) and the **median** (``median_seconds`` — the robust
central-tendency estimate, for eyeballing run-to-run noise). The
selection rule is uniform across the harness: *gates and speedup
ratios always use the min; the median is informational only*. Mixing
the two (min numerator over median denominator, or vice versa) biases
ratios and is never done here.

Seeds are fixed, so two runs of the same code measure the same work —
the only variable is the simulator's own speed.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from repro.cache.batched import BatchedCacheHierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.config import TABLE1
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.protocols import HMC2
from repro.engine.driver import run_comparison
from repro.engine.system import CoalescerKind, System
from repro.hmc.batched import BatchedHMCDevice
from repro.hmc.device import HMCDevice
from repro.telemetry import events as ev
from repro.workloads.base import reference_trace_gen

#: Coalescer arms the suite-scale measurement fans out.
SUITE_ARMS = (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)

#: Representative workloads: a page-local burst pattern (gs), a stencil
#: SpMV (hpcg), a unit-stride streamer (stream), and the least-coalescable
#: pointer chaser (bfs) — together they cover the coalescer's behaviour
#: envelope (high/low efficiency, bypass-heavy, prefetch-heavy).
BENCH_BENCHMARKS = ("gs", "hpcg", "stream", "bfs")

#: Seed used for every measurement — results must not depend on it, but
#: the *work* must be identical across harness invocations.
BENCH_SEED = 1234

PHASES = ("trace_gen", "cache", "coalescer", "device")


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process, in KB (None off-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss = usage.ru_maxrss
    # ru_maxrss is KB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover
        rss //= 1024
    return int(rss)


@dataclass
class Timing:
    """Min-of-N measurement of one benchmarked unit."""

    seconds: float  # the min over repeats
    samples: List[float] = field(default_factory=list)
    items: int = 0  # work units per iteration (raw requests, accesses...)

    @property
    def items_per_second(self) -> float:
        return self.items / self.seconds if self.seconds > 0 else 0.0

    @property
    def median_seconds(self) -> float:
        """Median sample — informational; gates always use the min."""
        if not self.samples:
            return self.seconds
        ordered = sorted(self.samples)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def as_dict(self) -> Dict:
        return {
            "seconds": self.seconds,
            "median_seconds": self.median_seconds,
            "samples": self.samples,
            "items": self.items,
            "items_per_second": self.items_per_second,
        }


@dataclass
class PhaseTimes:
    """Per-phase wall-clock split of one end-to-end comparison run."""

    trace_gen: float = 0.0
    cache: float = 0.0
    coalescer: float = 0.0
    device: float = 0.0

    @property
    def total(self) -> float:
        return self.trace_gen + self.cache + self.coalescer + self.device

    def as_dict(self) -> Dict:
        return {p: getattr(self, p) for p in PHASES}


@dataclass
class StageTimes:
    """Single-stage isolation timings for one benchmark.

    Each stage appears twice: under its own name for the batched
    component an unobserved run uses (``coalescer`` is the batched PAC
    kernel) and with a ``_reference`` suffix for the scalar component
    it must stay bit-identical to.
    """

    timings: Dict[str, Timing] = field(default_factory=dict)

    @property
    def coalescer_speedup(self) -> float:
        """Reference-over-batched coalescer-stage ratio (min over min,
        per the harness selection rule); 0.0 when either is absent."""
        bat = self.timings.get("coalescer")
        ref = self.timings.get("coalescer_reference")
        if bat is None or ref is None or bat.seconds <= 0:
            return 0.0
        return ref.seconds / bat.seconds

    @property
    def frontend_speedup(self) -> float:
        """Reference-over-batched front-end ratio: summed trace-gen +
        cache seconds (min-of-N each); 0.0 when any leg is absent."""
        tg = self.timings.get("trace_gen")
        tg_ref = self.timings.get("trace_gen_reference")
        ca = self.timings.get("cache")
        ca_ref = self.timings.get("cache_reference")
        if None in (tg, tg_ref, ca, ca_ref):
            return 0.0
        fast = tg.seconds + ca.seconds
        if fast <= 0:
            return 0.0
        return (tg_ref.seconds + ca_ref.seconds) / fast

    @property
    def device_speedup(self) -> float:
        """Reference-over-batched device-stage ratio (min over min, per
        the harness selection rule); 0.0 when either leg is absent."""
        bat = self.timings.get("device")
        ref = self.timings.get("device_reference")
        if bat is None or ref is None or bat.seconds <= 0:
            return 0.0
        return ref.seconds / bat.seconds

    def as_dict(self) -> Dict:
        doc = {name: t.as_dict() for name, t in self.timings.items()}
        if self.coalescer_speedup:
            doc["coalescer_speedup"] = self.coalescer_speedup
        if self.frontend_speedup:
            doc["frontend_speedup"] = self.frontend_speedup
        if self.device_speedup:
            doc["device_speedup"] = self.device_speedup
        return doc


@dataclass(frozen=True)
class BenchConfig:
    """One harness invocation's knobs."""

    benchmarks: Sequence[str] = BENCH_BENCHMARKS
    n_accesses: int = 20_000
    repeats: int = 3
    warmup: int = 1
    seed: int = BENCH_SEED
    quick: bool = False

    @classmethod
    def quick_config(cls) -> "BenchConfig":
        """Reduced suite for CI smoke runs: fewer accesses, fewer
        repeats, two benchmarks."""
        return cls(
            benchmarks=("gs", "stream"),
            n_accesses=8_000,
            repeats=2,
            warmup=1,
            quick=True,
        )

    def as_dict(self) -> Dict:
        return {
            "benchmarks": list(self.benchmarks),
            "n_accesses": self.n_accesses,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "seed": self.seed,
            "quick": self.quick,
        }


@dataclass
class SuiteBench:
    """Suite-scale measurement: the two-phase artifact pipeline against
    the pre-cache per-job baseline, on the same (benchmark × arm) grid.

    ``legacy`` is the PR 3 execution model (every job end-to-end, no
    artifact reuse); ``cold`` is the first two-phase run against an
    empty cache; ``warm`` is the min over subsequent repeats with the
    cache populated. All three produce bit-identical ``RunResult``
    grids — ``bit_identical`` records that the harness verified it.
    """

    arms: List[str] = field(default_factory=list)
    benchmarks: List[str] = field(default_factory=list)
    jobs: int = 0
    workers: int = 0
    legacy: Optional[Timing] = None
    cold_seconds: float = 0.0
    warm: Optional[Timing] = None
    cold_stats: Dict = field(default_factory=dict)
    warm_stats: Dict = field(default_factory=dict)
    artifact_cache: Dict = field(default_factory=dict)
    bit_identical: bool = False

    @property
    def speedup_cold(self) -> float:
        if self.legacy is None or self.cold_seconds <= 0:
            return 0.0
        return self.legacy.seconds / self.cold_seconds

    @property
    def speedup_warm(self) -> float:
        if self.legacy is None or self.warm is None or self.warm.seconds <= 0:
            return 0.0
        return self.legacy.seconds / self.warm.seconds

    def as_dict(self) -> Dict:
        return {
            "arms": self.arms,
            "benchmarks": self.benchmarks,
            "jobs": self.jobs,
            "workers": self.workers,
            "legacy": self.legacy.as_dict() if self.legacy else None,
            "cold_seconds": self.cold_seconds,
            "warm": self.warm.as_dict() if self.warm else None,
            "speedup_cold": self.speedup_cold,
            "speedup_warm": self.speedup_warm,
            "phase_split": {
                "cold_phase1_seconds": self.cold_stats.get(
                    "phase1_seconds", 0.0
                ),
                "cold_phase2_seconds": self.cold_stats.get(
                    "phase2_seconds", 0.0
                ),
                "warm_phase1_seconds": self.warm_stats.get(
                    "phase1_seconds", 0.0
                ),
                "warm_phase2_seconds": self.warm_stats.get(
                    "phase2_seconds", 0.0
                ),
            },
            "artifact_cache": self.artifact_cache,
            "bit_identical": self.bit_identical,
        }


@dataclass
class BenchReport:
    """Everything one ``repro bench`` invocation measured."""

    name: str
    config: BenchConfig
    end_to_end: Dict[str, Timing] = field(default_factory=dict)
    phases: Dict[str, PhaseTimes] = field(default_factory=dict)
    stages: Dict[str, StageTimes] = field(default_factory=dict)
    suite: Optional[SuiteBench] = None
    rss_peak_kb: Optional[int] = None
    python: str = ""
    platform: str = ""

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.end_to_end.values())

    @property
    def total_requests_per_second(self) -> float:
        """Aggregate end-to-end throughput: total raw requests processed
        per second of simulator wall-clock, summed over the suite. The
        regression gate compares this scalar."""
        items = sum(t.items for t in self.end_to_end.values())
        secs = self.total_seconds
        return items / secs if secs > 0 else 0.0

    @property
    def phase_fractions(self) -> Dict[str, float]:
        """Each phase's share of total instrumented end-to-end time,
        summed over every benchmark (zeroes when no phase split ran)."""
        sums = {p: 0.0 for p in PHASES}
        for split in self.phases.values():
            for p in PHASES:
                sums[p] += getattr(split, p)
        total = sum(sums.values())
        if total <= 0:
            return {p: 0.0 for p in PHASES}
        return {p: sums[p] / total for p in PHASES}

    @property
    def coalescer_stage_speedup(self) -> float:
        """Suite-aggregate batched-engine speedup on the isolated
        coalescer stage: summed reference seconds over summed batched
        seconds (min-of-N each, per the harness selection rule)."""
        ref = bat = 0.0
        for stages in self.stages.values():
            b = stages.timings.get("coalescer")
            r = stages.timings.get("coalescer_reference")
            if b is not None and r is not None:
                bat += b.seconds
                ref += r.seconds
        return ref / bat if bat > 0 else 0.0

    @property
    def frontend_stage_speedup(self) -> float:
        """Suite-aggregate batched front-end speedup on the isolated
        trace-gen + cache stages: summed reference seconds over summed
        batched seconds (min-of-N each). Same-host ratio — the
        machine-relative stage gate compares it across runs."""
        ref = bat = 0.0
        for stages in self.stages.values():
            legs = [
                stages.timings.get(n)
                for n in (
                    "trace_gen", "cache",
                    "trace_gen_reference", "cache_reference",
                )
            ]
            if None in legs:
                continue
            bat += legs[0].seconds + legs[1].seconds
            ref += legs[2].seconds + legs[3].seconds
        return ref / bat if bat > 0 else 0.0

    @property
    def device_stage_speedup(self) -> float:
        """Suite-aggregate batched back-end speedup on the isolated
        device stage: summed reference seconds over summed batched
        seconds (min-of-N each). Same-host ratio — the machine-relative
        stage gate compares it across runs, like the other two."""
        ref = bat = 0.0
        for stages in self.stages.values():
            b = stages.timings.get("device")
            r = stages.timings.get("device_reference")
            if b is not None and r is not None:
                bat += b.seconds
                ref += r.seconds
        return ref / bat if bat > 0 else 0.0

    def as_dict(self) -> Dict:
        return {
            "schema": "repro-bench/3",
            "name": self.name,
            "config": self.config.as_dict(),
            "python": self.python,
            "platform": self.platform,
            "end_to_end": {b: t.as_dict() for b, t in self.end_to_end.items()},
            "phases": {b: p.as_dict() for b, p in self.phases.items()},
            "stages": {b: s.as_dict() for b, s in self.stages.items()},
            "suite": self.suite.as_dict() if self.suite else None,
            "rss_peak_kb": self.rss_peak_kb,
            "totals": {
                "end_to_end_seconds": self.total_seconds,
                "requests_per_second": self.total_requests_per_second,
                "fraction_of_end_to_end": self.phase_fractions,
                "coalescer_stage_speedup": self.coalescer_stage_speedup,
                "frontend_stage_speedup": self.frontend_stage_speedup,
                "device_stage_speedup": self.device_stage_speedup,
            },
        }


class _TimedDevice:
    """Device proxy accumulating wall-clock spent inside ``submit`` so
    the coalescer phase can be reported net of memory-device time."""

    def __init__(self, device) -> None:
        self._device = device
        self.seconds = 0.0

    def submit(self, packet, cycle: int) -> int:
        t0 = time.perf_counter()
        completion = self._device.submit(packet, cycle)
        self.seconds += time.perf_counter() - t0
        return completion

    def __getattr__(self, name):
        return getattr(self._device, name)


def _min_of(
    fn: Callable[[], int], repeats: int, warmup: int,
    label: Optional[str] = None,
) -> Timing:
    """Run ``fn`` (returns its work-item count) warmup+repeats times;
    keep the min wall-clock. ``label`` names the measurement in the
    structured event log (one ``bench.measure`` event per timing)."""
    items = 0
    for _ in range(warmup):
        items = fn()
    samples: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        items = fn()
        samples.append(time.perf_counter() - t0)
    timing = Timing(seconds=min(samples), samples=samples, items=items)
    if label is not None:
        elog = ev.active()
        if elog.enabled:
            elog.emit(ev.BenchMeasured(
                name=label, items=timing.items, seconds=timing.seconds,
            ))
    return timing


def _measure_end_to_end(bench: str, cfg: BenchConfig) -> Timing:
    def once() -> int:
        # The artifact cache would turn warm iterations into pure
        # coalescer runs; the end-to-end gate tracks full-compute
        # throughput across releases, so it opts out.
        results = run_comparison(
            bench, n_accesses=cfg.n_accesses, seed=cfg.seed,
            use_artifact_cache=False,
        )
        return sum(r.n_raw for r in results.values())

    return _min_of(
        once, cfg.repeats, cfg.warmup, label=f"{bench}:end_to_end"
    )


def _measure_suite(cfg: BenchConfig) -> SuiteBench:
    """Suite-scale two-phase pipeline vs the per-job baseline.

    Runs inside a throwaway ``$REPRO_ARTIFACT_DIR`` so the measurement
    is independent of (and does not pollute) the developer's real
    cache: the cold number genuinely starts empty, and the warm number
    reflects a fully-populated cache.
    """
    from repro.engine.parallel import run_suite_parallel

    arms = list(SUITE_ARMS)
    suite = SuiteBench(
        arms=[k.value for k in arms],
        benchmarks=list(cfg.benchmarks),
        jobs=len(arms) * len(cfg.benchmarks),
    )
    kwargs = dict(
        kinds=tuple(arms),
        benchmarks=tuple(cfg.benchmarks),
        n_accesses=cfg.n_accesses,
        seed=cfg.seed,
    )
    old_dir = os.environ.get("REPRO_ARTIFACT_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ["REPRO_ARTIFACT_DIR"] = tmp
        try:
            def legacy() -> int:
                results = run_suite_parallel(
                    pipeline="per-job", use_artifact_cache=False, **kwargs
                )
                legacy.results = results
                return sum(r.n_raw for r in results.values())

            legacy.results = {}
            suite.legacy = _min_of(
                legacy, cfg.repeats, cfg.warmup, label="suite:per-job"
            )

            cold_stats: Dict = {}
            t0 = time.perf_counter()
            cold_results = run_suite_parallel(stats=cold_stats, **kwargs)
            suite.cold_seconds = time.perf_counter() - t0
            suite.cold_stats = cold_stats
            suite.workers = cold_stats.get("workers", 0)

            warm_stats: Dict = {}

            def warm() -> int:
                warm_stats.clear()
                results = run_suite_parallel(stats=warm_stats, **kwargs)
                warm.results = results
                return sum(r.n_raw for r in results.values())

            warm.results = {}
            suite.warm = _min_of(
                warm, cfg.repeats, cfg.warmup, label="suite:two-phase-warm"
            )
            suite.warm_stats = dict(warm_stats)
            suite.artifact_cache = {
                "cold": {
                    "hits": cold_stats.get("artifact_hits", 0),
                    "misses": cold_stats.get("artifact_misses", 0),
                },
                "warm": {
                    "hits": warm_stats.get("artifact_hits", 0),
                    "misses": warm_stats.get("artifact_misses", 0),
                },
            }
            suite.bit_identical = (
                legacy.results == cold_results == warm.results
            )
        finally:
            if old_dir is None:
                os.environ.pop("REPRO_ARTIFACT_DIR", None)
            else:
                os.environ["REPRO_ARTIFACT_DIR"] = old_dir
    return suite


def _measure_phases(bench: str, cfg: BenchConfig) -> PhaseTimes:
    """One instrumented pass over the three comparison arms, split into
    the four phases. Reported once (not min-of-N): the split's *shape*
    is the signal; absolute seconds come from the end-to-end timing."""
    phases = PhaseTimes()
    for kind in (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC):
        system = System(config=TABLE1, coalescer=kind)
        t0 = time.perf_counter()
        trace = system.build_trace([bench], cfg.n_accesses, seed=cfg.seed)
        t1 = time.perf_counter()
        raw = system.hierarchy.process(trace)
        t2 = time.perf_counter()
        timed = _TimedDevice(system.device)
        system.coalescer.process(raw.requests, timed)
        t3 = time.perf_counter()
        phases.trace_gen += t1 - t0
        phases.cache += t2 - t1
        phases.coalescer += (t3 - t2) - timed.seconds
        phases.device += timed.seconds
    return phases


def _trace_gen_leg(bench: str, cfg: BenchConfig, reference: bool):
    system = System(config=TABLE1, coalescer=CoalescerKind.NONE)

    def run():
        with reference_trace_gen() if reference else nullcontext():
            return system.build_trace([bench], cfg.n_accesses, seed=cfg.seed)

    return run


def _cache_leg(trace, reference: bool):
    cls = CacheHierarchy if reference else BatchedCacheHierarchy
    hierarchy = cls(TABLE1.cache, n_cores=TABLE1.n_cores)
    return lambda: hierarchy.process(trace)


def _coalescer_leg(requests, reference: bool):
    # Device submit time is left in: the reference leg drives the
    # scalar device, as the reference pipeline does.
    if reference:
        coalescer = PagedAdaptiveCoalescer(TABLE1.pac, protocol=HMC2)
        device = HMCDevice(TABLE1.hmc)
    else:
        system = System(config=TABLE1, coalescer=CoalescerKind.PAC)
        coalescer, device = system.coalescer, system.device
    return lambda: coalescer.process(requests, device)


def _device_leg(issued, reference: bool):
    # The per-packet ``submit`` loop a coalescer drives, then the
    # ``sync`` that System.run_raw calls (a no-op on the scalar device).
    device = (HMCDevice if reference else BatchedHMCDevice)(TABLE1.hmc)

    def run():
        submit = device.submit
        for packet in issued:
            submit(packet, packet.issue_cycle)
        device.sync()

    return run


def stage_legs(bench: str, cfg: BenchConfig) -> Dict[str, tuple]:
    """Every isolated stage leg of one benchmark: each stage of
    :data:`PHASES` under its own name (the batched leg) and with a
    ``_reference`` suffix (the scalar leg).

    Maps a leg name to ``(make, items)``: ``make()`` builds fresh state
    for one iteration (never timed) and returns the callable that runs
    the stage once over its precomputed input. The batched legs run the
    components an unobserved ``System`` uses; the reference legs build
    the scalar components directly and run the scalar trace generators.
    """
    trace = System(
        config=TABLE1, coalescer=CoalescerKind.NONE
    ).build_trace([bench], cfg.n_accesses, seed=cfg.seed)
    requests = _cache_leg(trace, reference=False)().requests
    issuer = System(config=TABLE1, coalescer=CoalescerKind.PAC)
    issued = issuer.coalescer.process(requests, issuer.device).issued
    legs: Dict[str, tuple] = {}
    for suffix, ref in (("", False), ("_reference", True)):
        legs["trace_gen" + suffix] = (
            partial(_trace_gen_leg, bench, cfg, ref), cfg.n_accesses
        )
        legs["cache" + suffix] = (
            partial(_cache_leg, trace, ref), len(requests)
        )
        legs["coalescer" + suffix] = (
            partial(_coalescer_leg, requests, ref), len(requests)
        )
        legs["device" + suffix] = (
            partial(_device_leg, issued, ref), len(issued)
        )
    return legs


def _measure_stages(bench: str, cfg: BenchConfig) -> StageTimes:
    """Isolation benchmarks: each stage re-runs alone over fixed input,
    once on its batched leg and once on its scalar reference leg.

    The two legs' repeats are interleaved so a machine-load drift hits
    both paths symmetrically instead of biasing whichever ran second.
    """
    out = StageTimes()
    legs = stage_legs(bench, cfg)

    def once(name: str) -> float:
        run = legs[name][0]()
        t0 = time.perf_counter()
        run()
        return time.perf_counter() - t0

    for stage in PHASES:
        pair = (stage, stage + "_reference")
        for _ in range(cfg.warmup):
            for name in pair:
                once(name)
        samples: Dict[str, List[float]] = {name: [] for name in pair}
        for _ in range(cfg.repeats):
            for name in pair:
                samples[name].append(once(name))
        for name in pair:
            out.timings[name] = Timing(
                seconds=min(samples[name]), samples=samples[name],
                items=legs[name][1],
            )
    return out


def run_bench(
    config: Optional[BenchConfig] = None,
    name: str = "bench",
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the full harness and return the report."""
    import platform as _platform

    cfg = config if config is not None else BenchConfig()
    report = BenchReport(
        name=name,
        config=cfg,
        python=sys.version.split()[0],
        platform=_platform.platform(),
    )
    say = progress if progress is not None else (lambda msg: None)
    for bench in cfg.benchmarks:
        say(f"[{bench}] end-to-end ({cfg.repeats} repeats)...")
        report.end_to_end[bench] = _measure_end_to_end(bench, cfg)
        say(f"[{bench}] phase split...")
        report.phases[bench] = _measure_phases(bench, cfg)
        # Quick mode measures stages too: the CI coalescer-stage gate
        # compares stage timings, so the smoke baseline must carry them.
        say(f"[{bench}] stage isolation...")
        report.stages[bench] = _measure_stages(bench, cfg)
    say("[suite] two-phase pipeline vs per-job baseline...")
    report.suite = _measure_suite(cfg)
    report.rss_peak_kb = _peak_rss_kb()
    return report

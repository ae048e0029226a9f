"""Run drivers: one-call benchmark execution and suite sweeps.

This is the primary user-facing API::

    from repro.engine.driver import run_benchmark, run_comparison, CoalescerKind

    result = run_benchmark("gs", coalescer=CoalescerKind.PAC)
    trio = run_comparison("gs")   # none / dmc / pac on the same trace
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.config import SimulationConfig, TABLE1
from repro.core.protocols import MemoryProtocol
from repro.engine.results import RunResult
from repro.engine.system import CoalescerKind, System
from repro.faults import FaultInjector, NullInjector, installed, resolve_plan
from repro.telemetry import SpanRecorder, TelemetryRegistry
from repro.telemetry import events as ev
from repro.workloads import BENCHMARK_NAMES

#: Default trace length: long enough for steady-state coalescing
#: behaviour, short enough for interactive runs.
DEFAULT_ACCESSES = 60_000


def _fault_scope(faults):
    """Resolve a ``faults=`` argument into an installed-injector scope.

    A resolved plan installs a process-scoped
    :class:`~repro.faults.FaultInjector` for the duration of the call;
    no plan installs a *fresh* :class:`~repro.faults.NullInjector`,
    which both disables injection and (by displacing the pristine
    singleton) stops ``$REPRO_FAULTS`` from auto-installing underneath
    an explicit ``faults=False``.
    """
    plan = resolve_plan(faults)
    return installed(
        FaultInjector(plan) if plan is not None else NullInjector()
    )


def per_run(probe):
    """One run's share of a multi-run ``telemetry=``/``spans=`` argument.

    A caller-supplied :class:`~repro.telemetry.TelemetryRegistry` or
    :class:`~repro.telemetry.SpanRecorder` becomes a fresh object with
    the caller's ``window_cycles`` or ``sample_rate``, so runs never
    share one registry or recorder. Flags and sample rates pass through.
    """
    if isinstance(probe, TelemetryRegistry):
        return TelemetryRegistry(window_cycles=probe.window_cycles)
    if isinstance(probe, SpanRecorder):
        return SpanRecorder(sample_rate=probe.sample_rate, seed=probe.seed)
    return probe


def run_benchmark(
    benchmark: str,
    coalescer: CoalescerKind = CoalescerKind.PAC,
    n_accesses: int = DEFAULT_ACCESSES,
    config: SimulationConfig = TABLE1,
    seed: Optional[int] = None,
    protocol: Optional[MemoryProtocol] = None,
    device: str = "hmc",
    fine_grain: bool = False,
    extra_benchmarks: Sequence[str] = (),
    scale=1.0,
    telemetry=False,
    spans=False,
    faults=None,
    events=None,
) -> RunResult:
    """Run one benchmark through one coalescer configuration.

    ``extra_benchmarks`` adds co-running processes (the paper's
    multiprocessing mode); ``fine_grain`` enables the Figure 10b
    data-size coalescing mode; ``device`` selects ``"hmc"`` or ``"hbm"``.
    ``telemetry=True`` (or a :class:`repro.telemetry.TelemetryRegistry`)
    collects the windowed probe timeline onto ``result.telemetry``.
    ``spans=True`` (or an int sample rate, or a
    :class:`repro.telemetry.SpanRecorder`) traces sampled per-request
    lifecycle spans onto ``result.spans``. ``faults`` activates
    deterministic fault injection (:mod:`repro.faults`): a plan, a spec
    string, ``None`` (consult ``$REPRO_FAULTS``), or ``False`` to
    force-disable; a single in-process run has no instrumented sites of
    its own, so plans only matter here through code this call reaches
    (e.g. the artifact store in cached flows). ``events`` selects the
    structured event log (:mod:`repro.telemetry.events`): ``None``
    keeps whatever is active (including a ``$REPRO_EVENTS`` sink), a
    path or :class:`~repro.telemetry.events.EventLog` installs one for
    the call, ``False`` force-disables. Whether the run is observed
    (telemetry or spans on) picks its components: see
    :class:`~repro.engine.system.System`.
    """
    with ev.installed(ev.resolve_events(events)) as log, _fault_scope(faults):
        if log.enabled:
            log.emit(ev.RunStarted(
                benchmark=benchmark, coalescer=coalescer.value,
                n_accesses=n_accesses, seed=seed, device=device,
            ))
        system = System(
            config=config,
            coalescer=coalescer,
            protocol=protocol,
            device=device,
            fine_grain=fine_grain,
            telemetry=telemetry,
            spans=spans,
        )
        result = system.run(
            benchmark, n_accesses, seed=seed,
            extra_benchmarks=extra_benchmarks, scale=scale,
        )
        if log.enabled:
            log.emit(ev.RunCompleted(
                benchmark=benchmark, coalescer=coalescer.value,
                n_raw=result.n_raw, n_issued=result.n_issued,
                runtime_cycles=result.runtime_cycles,
            ))
        return result


def run_comparison(
    benchmark: str,
    kinds: Iterable[CoalescerKind] = (
        CoalescerKind.NONE,
        CoalescerKind.DMC,
        CoalescerKind.PAC,
    ),
    n_accesses: int = DEFAULT_ACCESSES,
    config: SimulationConfig = TABLE1,
    seed: Optional[int] = None,
    device: str = "hmc",
    extra_benchmarks: Sequence[str] = (),
    telemetry=False,
    spans=False,
    use_artifact_cache: bool = True,
    faults=None,
    events=None,
) -> Dict[CoalescerKind, RunResult]:
    """Run the same trace through several coalescer configurations.

    Every arm sees the identical trace and raw request stream. With
    telemetry and spans off (the common sweep configuration) the trace
    and the cache-hierarchy pass — both deterministic in (seed, config)
    and independent of the coalescer arm — are computed once via the
    content-addressed artifact cache (:mod:`repro.artifacts`) and
    shared, which is bit-identical to regenerating them per arm; a
    repeated comparison reloads the prefix from disk instead of
    recomputing it (``use_artifact_cache=False`` opts out). When either
    probe facility is on, each arm runs end-to-end so its registry /
    recorder observes its own cache pass; a caller-supplied registry or
    recorder lends each arm its settings, not the object itself
    (:func:`per_run`). ``faults`` installs a process-scoped fault
    injector for the duration of the comparison (the artifact-store
    sites are live on the cached path).
    """
    out: Dict[CoalescerKind, RunResult] = {}
    with ev.installed(ev.resolve_events(events)) as log, _fault_scope(faults):
        if telemetry or spans:
            for kind in kinds:
                out[kind] = run_benchmark(
                    benchmark,
                    coalescer=kind,
                    n_accesses=n_accesses,
                    config=config,
                    seed=seed,
                    device=device,
                    extra_benchmarks=extra_benchmarks,
                    telemetry=per_run(telemetry),
                    spans=per_run(spans),
                    faults=False,  # the comparison-wide scope is installed
                )
            return out

        from repro.artifacts import load_or_compute_trace_pass

        tp = load_or_compute_trace_pass(
            benchmark,
            n_accesses,
            config=config,
            seed=seed,
            device=device,
            extra_benchmarks=tuple(extra_benchmarks),
            use_cache=use_artifact_cache,
        )
        requests = tp.requests()
        for kind in kinds:
            if log.enabled:
                log.emit(ev.RunStarted(
                    benchmark=benchmark, coalescer=kind.value,
                    n_accesses=n_accesses, seed=seed, device=device,
                ))
            system = System(config=config, coalescer=kind, device=device)
            result = system.run_raw(
                requests,
                benchmark=tp.benchmark,
                n_accesses=tp.n_accesses,
                trace_end_cycle=tp.trace_end_cycle,
                cache_metrics=tp.cache_metrics,
            )
            out[kind] = result
            if log.enabled:
                log.emit(ev.RunCompleted(
                    benchmark=benchmark, coalescer=kind.value,
                    n_raw=result.n_raw, n_issued=result.n_issued,
                    runtime_cycles=result.runtime_cycles,
                ))
        return out


def run_suite(
    coalescer: CoalescerKind = CoalescerKind.PAC,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    n_accesses: int = DEFAULT_ACCESSES,
    config: SimulationConfig = TABLE1,
    seed: Optional[int] = None,
    device: str = "hmc",
    protocol: Optional[MemoryProtocol] = None,
    fine_grain: bool = False,
    extra_benchmarks: Sequence[str] = (),
    scale=1.0,
    telemetry=False,
    spans=False,
    faults=None,
    events=None,
) -> Dict[str, RunResult]:
    """Run every benchmark through one coalescer configuration.

    Every knob of :func:`run_benchmark` forwards (``device``,
    ``protocol``, ``fine_grain``, ``extra_benchmarks``, ``scale``,
    ``telemetry``, ``spans``, ``faults``, ``events``), so a
    whole-suite sweep can target HBM/DDR, the fine-grain mode, or
    co-running mixes without dropping down to per-benchmark calls.
    ``faults`` installs one process-scoped injector spanning the whole
    sweep; ``events`` likewise installs one suite-wide event-log scope.
    A caller-supplied registry or recorder lends each benchmark its
    settings, not the object itself (:func:`per_run`).
    """
    with ev.installed(ev.resolve_events(events)), _fault_scope(faults):
        return {
            name: run_benchmark(
                name,
                coalescer=coalescer,
                n_accesses=n_accesses,
                config=config,
                seed=seed,
                device=device,
                protocol=protocol,
                fine_grain=fine_grain,
                extra_benchmarks=extra_benchmarks,
                scale=scale,
                telemetry=per_run(telemetry),
                spans=per_run(spans),
                faults=False,  # the suite-wide scope is installed
            )
            for name in benchmarks
        }

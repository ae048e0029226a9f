"""One benchmark workload, measured in a fresh process.

``run.py`` starts this script once per run, plus a few ``--probe``
starts that only sample set-up time. It talks to ``run.py`` on stdout:

    ready <CLOCK_MONOTONIC seconds>   imports done, first operation can run
    result <json>                     the run's raw measurements

Diagnostics go to stderr. The script calls only the program's public
entry points (``run_comparison``, ``run_suite_parallel``, the artifact
loader and the telemetry exporters) and times only those calls.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.artifacts import try_load_trace_pass
from repro.engine.driver import run_comparison
from repro.engine.parallel import run_suite_parallel
from repro.telemetry import attribution, export, perfetto
from repro.workloads import BENCHMARK_NAMES

from layers import ARMS, LayerTrace

#: Trace length of ``observed`` (the driver's default).
N_ACCESSES = 60_000
#: Trace length of each ``suite-warm`` benchmark: a third of the default,
#: so that a run holds about a dozen suite operations instead of four.
SUITE_ACCESSES = 20_000
#: Cold artifact fills per ``suite-warm`` run; set-up takes their median.
COLD_FILLS = 3
#: A timed loop runs at least this many operations, however long they take.
MIN_ITERATIONS = 3
#: Traced operations in a ``--trace 1`` run; the median-wall one is reported.
TRACED_ITERATIONS = 3

Results = Dict[Tuple[str, str], object]


@dataclasses.dataclass
class Outcome:
    """What one operation produced, for the correctness checks."""

    results: Results
    stats: Optional[dict] = None


def keyed(trio: dict, bench: str) -> Results:
    """``run_comparison`` output keyed like ``run_suite_parallel``'s."""
    return {(bench, kind.value): r for kind, r in trio.items()}


def conservation_errors(results: Results) -> List[str]:
    errs = []
    by_bench: Dict[str, set] = {}
    for (bench, arm), r in results.items():
        by_bench.setdefault(bench, set()).add(r.n_raw)
        if r.n_issued > r.n_raw:
            errs.append(f"{bench}/{arm}: n_issued {r.n_issued} > n_raw {r.n_raw}")
        if r.runtime_cycles < r.trace_end_cycle:
            errs.append(
                f"{bench}/{arm}: runtime {r.runtime_cycles} < trace end "
                f"{r.trace_end_cycle}"
            )
    for bench, raws in by_bench.items():
        if len(raws) != 1:
            errs.append(f"{bench}: arms disagree on n_raw {sorted(raws)}")
    return errs


# --------------------------------------------------------------------- #
# workloads


class Workload:
    """Set-up, untimed preparation and the timed operation of a workload."""

    #: Run one untimed operation before timing (it becomes the reference
    #: the timed operations must reproduce).
    warmup = True

    def __init__(self, seed: int, tmp: Path) -> None:
        self.seed = seed
        #: Seconds the untimed warm-up spent reading the artifact store.
        self.disk_load_s = 0.0
        #: How many times set-up runs (set-up layer times are per run).
        self.setups = 1

    def setup(self) -> float:
        """Set-up beyond imports; returns the seconds it counts toward
        ``setup_s``."""
        return 0.0

    def prepare(self) -> List[str]:
        """Untimed runs the checks need; returns failures."""
        return []

    def operation(self) -> Outcome:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> List[str]:
        """Workload-specific checks of one operation."""
        return []


class SuiteWarm(Workload):
    """All benchmarks x 3 arms through the two-phase pool, warm store."""

    warmup = False

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self.cold: Results = {}
        self.fill_errors: List[str] = []
        self.setups = COLD_FILLS

    def _suite(self) -> Outcome:
        stats: dict = {}
        out = run_suite_parallel(
            n_accesses=SUITE_ACCESSES, seed=self.seed,
            max_workers=self.workers, stats=stats,
        )
        return Outcome(out, stats=stats)

    def setup(self) -> float:
        # Each cold fill writes a fresh store; only its phase 1 (the
        # store's write path) is set-up. The timed runs read the last
        # store. The fills' results are the reference every warm run
        # must match.
        root = Path(os.environ["REPRO_ARTIFACT_DIR"])
        phase1 = []
        for i in range(COLD_FILLS):
            os.environ["REPRO_ARTIFACT_DIR"] = str(root / f"fill-{i}")
            cold = self._suite()
            phase1.append(cold.stats["phase1_seconds"])
            if i == 0:
                self.cold = cold.results
            elif cold.results != self.cold:
                self.fill_errors.append(f"cold fill {i + 1} differs from the first")
        return statistics.median(phase1)

    def prepare(self) -> List[str]:
        # Pin the read state: load every pass artifact once so that every
        # timed run reads the store's in-process memo, not the npz files.
        t0 = time.perf_counter()
        missing = [
            bench for bench in BENCHMARK_NAMES
            if try_load_trace_pass(bench, SUITE_ACCESSES, seed=self.seed) is None
        ]
        self.disk_load_s = time.perf_counter() - t0
        errs = self.fill_errors + conservation_errors(self.cold)
        return errs + [f"warm-up: no stored pass for {b}" for b in missing]

    def operation(self) -> Outcome:
        return self._suite()

    def verify(self, outcome: Outcome) -> List[str]:
        errs = []
        if outcome.results != self.cold:
            errs.append("warm results differ from the cold-fill results")
        health = outcome.stats["health"]
        if not health["healthy"] or health["retries"] or health["degradations"]:
            errs.append(f"suite health: {health}")
        if outcome.stats["artifact_misses"]:
            errs.append(f"{outcome.stats['artifact_misses']} artifact misses")
        return errs


class Observed(Workload):
    """bfs with probes and spans on, then every export a user reads."""

    def __init__(self, seed: int, tmp: Path) -> None:
        super().__init__(seed, tmp)
        self.export_dir = tmp / "exports"
        self.export_dir.mkdir()
        self.unobserved: Results = {}
        self.first_digest: Optional[str] = None

    def prepare(self) -> List[str]:
        trio = run_comparison(
            "bfs", n_accesses=N_ACCESSES, seed=self.seed,
            use_artifact_cache=False,
        )
        self.unobserved = keyed(trio, "bfs")
        return conservation_errors(self.unobserved)

    def operation(self) -> Outcome:
        trio = run_comparison(
            "bfs", n_accesses=N_ACCESSES, seed=self.seed,
            telemetry=True, spans=True,
        )
        out = self.export_dir
        for kind, r in trio.items():
            arm = kind.value
            export.write_csv(r.telemetry, out / f"{arm}.probes.csv")
            (out / f"{arm}.probes.json").write_text(r.telemetry.to_json())
            rows = attribution.attribution_rows(r.spans)
            (out / f"{arm}.attribution.json").write_text(
                json.dumps(rows, sort_keys=True)
            )
            perfetto.write_perfetto(r.spans, out / f"{arm}.perfetto.json")
        return Outcome(keyed(trio, "bfs"))

    def verify(self, outcome: Outcome) -> List[str]:
        errs = []
        stripped = {
            key: dataclasses.replace(r, telemetry=None, spans=None)
            for key, r in outcome.results.items()
        }
        if stripped != self.unobserved:
            errs.append("observed results differ from the unobserved run")
        digest = hashlib.sha256()
        for path in sorted(self.export_dir.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        if self.first_digest is None:
            self.first_digest = digest.hexdigest()
        elif digest.hexdigest() != self.first_digest:
            errs.append("exports differ from the first iteration's")
        return errs


WORKLOADS = {"suite-warm": SuiteWarm, "observed": Observed}


# --------------------------------------------------------------------- #
# measurement


class Runner:
    """Runs operations, checks each one and keeps the tally."""

    def __init__(self, workload: Workload) -> None:
        self.wl = workload
        self.first: Optional[Results] = None
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, label: str, errs: List[str]) -> None:
        self.attempted += 1
        if errs:
            self.failures.append(f"{label}: " + "; ".join(errs))

    def timed(self) -> Tuple[float, Outcome]:
        gc.collect()
        t0 = time.perf_counter()
        outcome = self.wl.operation()
        return time.perf_counter() - t0, outcome

    def check(self, label: str, outcome: Outcome) -> None:
        errs = conservation_errors(outcome.results)
        if self.first is None:
            self.first = outcome.results
        elif outcome.results != self.first:
            errs.append("results differ from the first iteration's")
        errs += self.wl.verify(outcome)
        self.record(label, errs)

    def run(self, label: str) -> Tuple[float, Outcome]:
        wall, outcome = self.timed()
        self.check(label, outcome)
        return wall, outcome


def layer_metrics(
    tracer: LayerTrace, outcome: Outcome, wall: float, wl: Workload,
    setup_busy: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer figures of one traced operation, reconciled to its wall."""
    parent = dict(tracer.busy)
    counts = dict(tracer.counts)
    worker, worker_counts = tracer.collect()
    busy: Dict[str, float] = dict(parent)
    for name, value in worker.items():
        busy[name] = busy.get(name, 0.0) + value
    for name, value in worker_counts.items():
        counts[name] = counts.get(name, 0) + value
    b = lambda name: busy.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731

    m: Dict[str, float] = {
        "workloads.busy_s": b("workloads"),
        "cache.busy_s": b("cache"),
        "cache.raw_requests": c("cache.raw_requests"),
        "mshr.none.busy_s": b("mshr.none"),
        "mshr.dmc.busy_s": b("mshr.dmc"),
        "core.pac.busy_s": b("core.pac"),
    }
    for arm in ARMS:
        rs = [r for (_, a), r in outcome.results.items() if a == arm]
        packets = sum(r.n_issued for r in rs)
        raw = sum(r.n_raw for r in rs)
        m[f"{arm}.packets"] = packets
        m[f"{arm}.packets_per_raw"] = packets / raw if raw else 0.0
    for arm in ARMS:
        secs = b(f"hmc.{arm}.submit")
        n = c(f"hmc.{arm}.submit.calls")
        m[f"hmc.{arm}.submit_s"] = secs
        m[f"hmc.{arm}.submits"] = n
        m[f"hmc.{arm}.us_per_submit"] = 1e6 * secs / n if n else 0.0
    hits, misses = c("artifacts.hits"), c("artifacts.misses")
    m.update({
        "hmc.sync_s": b("hmc.sync"),
        "engine.results.busy_s": b("engine.results"),
        "engine.system.busy_s": b("engine.system"),
        "artifacts.load_s": b("artifacts.load"),
        "artifacts.disk_load_s": wl.disk_load_s,
        "artifacts.decode_s": b("artifacts.decode"),
        "artifacts.encode_s": b("artifacts.encode"),
        "artifacts.shm_s": b("artifacts.shm"),
        "artifacts.put_s": setup_busy.get("artifacts.put", 0.0) / wl.setups,
        "artifacts.hits": hits,
        "artifacts.misses": misses,
        "artifacts.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "telemetry.export_s": b("telemetry.export"),
    })

    spans = probes = 0
    for r in outcome.results.values():
        if r.spans is not None:
            spans += len(r.spans)
        if r.telemetry is not None:
            lo, hi = r.telemetry.span_windows()
            probes += hi - lo + 1
    m["telemetry.spans_sampled"] = spans
    m["telemetry.probe_windows"] = probes

    # Reconciliation. Pool workers run concurrently, so their busy time
    # enters the wall-clock sum divided by the worker count; the part of
    # phase 2 that no worker layer and no parent layer covers is the
    # pool's own overhead.
    stats = outcome.stats or {}
    workers = stats.get("workers", 0)
    pooled = workers > 1
    worker_share = sum(worker.values()) / workers if pooled else 0.0
    phase2 = stats.get("phase2_seconds", 0.0)
    pool_overhead = (
        phase2 - parent.get("artifacts.shm", 0.0) - worker_share
        if pooled else 0.0
    )
    residual = wall - sum(parent.values()) - worker_share - pool_overhead
    m.update({
        "engine.parallel.phase1_s": stats.get("phase1_seconds", 0.0),
        "engine.parallel.phase2_s": phase2,
        "engine.parallel.pool_overhead_s": pool_overhead,
        "engine.parallel.workers": workers,
        "engine.parallel.retries": stats.get("health", {}).get("retries", 0),
        "traced_wall_s": wall,
        "residual_s": residual,
        "residual_share": residual / wall,
    })
    return m


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--probe", action="store_true",
                    help="report set-up time and exit")
    args = ap.parse_args(argv)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.probe:
        return 0

    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    runner = Runner(wl)
    tracer = LayerTrace(args.tmp / "trace") if args.trace else None

    # Set-up (traced in a trace run, for the store's write path).
    if tracer is not None:
        tracer.install()
    setup_extra = wl.setup()
    setup_busy: Dict[str, float] = {}
    if tracer is not None:
        worker, _ = tracer.collect()
        setup_busy = dict(tracer.busy)
        for name, value in worker.items():
            setup_busy[name] = setup_busy.get(name, 0.0) + value
        tracer.uninstall()
        tracer.reset()
    runner.record("prepare", wl.prepare())
    if wl.warmup:
        runner.run("warm-up")

    # Timed loop, tracing off.
    walls: List[float] = []
    outcome = None
    while sum(walls) < args.seconds or len(walls) < MIN_ITERATIONS:
        wall, outcome = runner.run(f"iteration {len(walls) + 1}")
        walls.append(wall)
    raw = sum(r.n_raw for r in outcome.results.values())
    del outcome
    median = statistics.median(walls)
    print(
        f"{args.workload}: {len(walls)} iterations, median {median:.3f}s, "
        f"min {min(walls):.3f}s, max {max(walls):.3f}s, {raw} raw requests",
        file=sys.stderr,
    )
    result = {
        "iterations": walls,
        "raw_requests": raw,
        "setup_extra_s": setup_extra,
    }

    if tracer is not None:
        traced = []
        tracer.install()
        try:
            for i in range(TRACED_ITERATIONS):
                tracer.reset()
                tracer.collect()
                wall, outcome = runner.timed()
                traced.append(
                    layer_metrics(tracer, outcome, wall, wl, setup_busy)
                )
                runner.check(f"traced {i + 1}", outcome)
                del outcome
        finally:
            tracer.uninstall()
        traced.sort(key=lambda m: m["traced_wall_s"])
        layers = traced[len(traced) // 2]
        layers["trace_overhead"] = layers["traced_wall_s"] / median
        result["layers"] = layers
    else:
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["peak_rss_mb"] = (self_kb + kids_kb) / 1024.0

    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

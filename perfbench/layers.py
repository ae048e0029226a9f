"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps the public functions at each layer boundary of
the simulator (trace generation, cache hierarchy, the three coalescer
arms, the HMC device, result building, the artifact store and the
telemetry exporters) with timing spans. Nothing inside ``src/`` changes:
:meth:`LayerTrace.install` swaps class and module attributes for
wrappers and :meth:`LayerTrace.uninstall` puts the originals back.

Every span records its *self* time: its duration minus the time its
child spans cover. Self times of all layers therefore never overlap, and
within one process they add up to the time spent inside any traced
layer; the rest of an iteration's wall time is the residual.

Device submits are attributed to the coalescer arm whose ``process``
call is on the span stack (``hmc.<arm>.submit``), so the coalescer's
self time excludes the device time it drives.

Pool workers forked while the trace is installed inherit the wrappers.
A worker starts from zero totals after the fork and appends them to
``worker-<pid>.jsonl`` in the trace directory each time its span stack
empties; :meth:`LayerTrace.collect` sums those files in the parent.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ARMS = ("none", "dmc", "pac")
#: Who a device submit can be charged to: an arm, or none of them.
OWNERS = ARMS + ("other",)


class LayerTrace:
    """Self-time spans and counts around the program's layer functions."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.in_worker = False
        self.arm = "other"
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- accumulation ----------------------------------------------------

    def reset(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    def _after_fork(self) -> None:
        # A forked pool worker drops the totals inherited from the
        # parent and reports its own through the trace dir.
        self.pid = os.getpid()
        self.in_worker = True
        self._stack = []
        self.reset()

    def _flush(self) -> None:
        line = json.dumps({"busy": self.busy, "counts": self.counts})
        path = self.trace_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a") as fh:
            fh.write(line + "\n")
        self.reset()

    def collect(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Sum and remove the worker files written since the last call."""
        busy: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        for path in sorted(self.trace_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                for name, value in rec["busy"].items():
                    busy[name] += value
                for name, value in rec["counts"].items():
                    counts[name] += value
            path.unlink()
        return busy, counts

    # -- wrappers --------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        layer,
        arm: Optional[str] = None,
        count: Optional[Callable[[object], Dict[str, int]]] = None,
    ) -> Callable:
        """Wrap ``fn`` in a self-time span.

        ``layer`` is a layer name, or a mapping from arm to layer name
        for layers attributed to the arm whose coalescer is running.
        ``arm`` marks ``fn`` as that arm's coalescer entry point.
        ``count`` maps the return value to counts to add.
        """
        tr = self
        clock = time.perf_counter
        if isinstance(layer, str):
            layer = dict.fromkeys(OWNERS, layer)
        calls = {owner: name + ".calls" for owner, name in layer.items()}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr._stack
            prev_arm = tr.arm
            if arm is not None:
                tr.arm = arm
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                tr.busy[layer[tr.arm]] += dt - child
                tr.counts[calls[tr.arm]] += 1
                tr.arm = prev_arm
                if stack:
                    stack[-1] += dt
            if count is not None:
                for key, value in count(out).items():
                    tr.counts[key] += value
            if not stack and tr.in_worker:
                tr._flush()
            return out

        return wrapper

    def patch(self, owner: object, attr: str, layer, **kw) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]  # the class's own, not inherited
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, layer, **kw))

    # -- the layer map ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced layer function; a no-op when installed."""
        if self._patches:
            return
        from repro.artifacts import pipeline, shm
        from repro.artifacts.store import ArtifactStore
        from repro.cache.batched import BatchedCacheHierarchy
        from repro.cache.hierarchy import CacheHierarchy
        from repro.core.pac import PagedAdaptiveCoalescer
        from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer
        from repro.engine import system
        from repro.hmc.batched import BatchedHMCDevice
        from repro.hmc.device import HMCDevice
        from repro.mshr.dmc import MSHRBasedDMC, NullCoalescer
        from repro.telemetry import attribution, export, perfetto, probe

        self.pid = os.getpid()
        self.in_worker = False
        self.arm = "other"
        patch = self.patch

        # Front end: trace generation and the cache hierarchy.
        patch(system.System, "build_trace", "workloads")
        patch(pipeline, "build_suite_trace", "workloads")

        def raw_count(raw):
            return {"cache.raw_requests": len(raw.requests)}

        for cls in (CacheHierarchy, BatchedCacheHierarchy):
            patch(cls, "process", "cache", count=raw_count)

        # The arms: coalescer self time, then the device they drive.
        patch(NullCoalescer, "process", "mshr.none", arm="none")
        patch(MSHRBasedDMC, "process", "mshr.dmc", arm="dmc")
        for cls in (PagedAdaptiveCoalescer, BatchedPagedAdaptiveCoalescer):
            patch(cls, "process", "core.pac", arm="pac")
        submit = {a: f"hmc.{a}.submit" for a in OWNERS}
        for cls in (HMCDevice, BatchedHMCDevice):
            patch(cls, "submit", submit)
        patch(BatchedHMCDevice, "sync", "hmc.sync")

        # Engine glue and result building.
        for attr in ("run", "run_trace", "run_raw"):
            patch(system.System, attr, "engine.system")
        patch(system, "build_result", "engine.results")

        # Artifact store and the packed-stream codec.
        def get_count(payload):
            return {"artifacts.misses" if payload is None else "artifacts.hits": 1}

        patch(ArtifactStore, "get", "artifacts.load", count=get_count)
        patch(ArtifactStore, "put", "artifacts.put")
        patch(pipeline.TracePass, "requests", "artifacts.decode")
        patch(shm, "decode_requests", "artifacts.decode")
        patch(shm, "encode_requests", "artifacts.encode")
        patch(shm, "publish", "artifacts.shm")
        patch(shm, "release", "artifacts.shm")

        # Observation exports.
        patch(export, "write_csv", "telemetry.export")
        patch(probe.TelemetryRegistry, "to_json", "telemetry.export")
        patch(attribution, "attribution_rows", "telemetry.export")
        patch(perfetto, "write_perfetto", "telemetry.export")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

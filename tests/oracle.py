"""The scalar reference pipeline as a test oracle.

An unobserved :class:`~repro.engine.system.System` runs the batched
components: the vectorized trace generators, the array-backed cache
hierarchy, the batched PAC kernel and the deferred-accounting device.
The scalar components they must stay bit-identical to are not a runtime
mode; tests reach them through this module:

* :func:`reference_system` builds a ``System`` on the scalar
  components and the scalar trace generators;
* :func:`reference_engines` makes every ``System`` built inside it
  (by the drivers, the suite runner, the artifact pipeline and forked
  pool workers) do the same, so whole entry points can be compared.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.cache.hierarchy import CacheHierarchy
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer
from repro.ddr.batched import BatchedDDRDevice
from repro.ddr.device import DDRDevice
from repro.engine.system import System
from repro.hmc.batched import BatchedHBMDevice, BatchedHMCDevice
from repro.hmc.device import HMCDevice
from repro.hmc.hbm import HBMDevice
from repro.workloads.base import reference_trace_gen

#: Each batched device class and the scalar class it twins.
SCALAR_DEVICES = {
    BatchedHMCDevice: HMCDevice,
    BatchedHBMDevice: HBMDevice,
    BatchedDDRDevice: DDRDevice,
}


def to_reference(system: System) -> System:
    """Put ``system`` on the scalar components, in place.

    An observed system already runs them and keeps its probe wiring;
    either way trace generation switches to the scalar generators.
    """
    if not system.observed:
        system.device = SCALAR_DEVICES[type(system.device)](
            system.device.config
        )
        system.hierarchy = CacheHierarchy(
            system.config.cache,
            n_cores=system.config.n_cores,
            prefetch_enabled=not system.fine_grain,
        )
        if isinstance(system.coalescer, BatchedPagedAdaptiveCoalescer):
            system.coalescer = PagedAdaptiveCoalescer(
                system.coalescer.config, protocol=system.protocol
            )
    build_trace = system.build_trace

    def scalar_build_trace(*args, **kwargs):
        with reference_trace_gen():
            return build_trace(*args, **kwargs)

    system.build_trace = scalar_build_trace
    return system


def reference_system(**kwargs) -> System:
    """``System(**kwargs)`` on the scalar components."""
    return to_reference(System(**kwargs))


@contextmanager
def reference_engines():
    """Every ``System`` built inside this context runs the scalar
    components (see :func:`to_reference`)."""
    init = System.__init__

    def reference_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        to_reference(self)

    System.__init__ = reference_init
    try:
        yield
    finally:
        System.__init__ = init

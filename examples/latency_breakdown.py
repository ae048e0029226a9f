#!/usr/bin/env python3
"""Where do the cycles go? HMC latency telemetry under PAC.

Runs GS with and without coalescing on the scalar HMC device with
per-packet telemetry on, then prints the latency component breakdown (link
wait, crossbar route, vault queueing, DRAM, response) and the vault heat
map. Shows *mechanistically* where PAC's latency savings come from:
shorter vault queues and fewer conflicted DRAM activations.

Run:  python examples/latency_breakdown.py [n_accesses]
"""

import sys

from repro.config import TABLE1
from repro.engine.system import CoalescerKind, System
from repro.hmc.device import HMCDevice
from repro.hmc.telemetry import Telemetry


def run(kind, n_accesses):
    system = System(TABLE1, kind)
    # Only the scalar device records per-packet telemetry; the batched
    # device an unobserved System builds defers all its accounting.
    device = HMCDevice(TABLE1.hmc, telemetry=Telemetry())
    trace = system.build_trace(["gs"], n_accesses)
    raw = system.hierarchy.process(trace)
    system.coalescer.process(raw.requests, device)
    return device.telemetry


def main() -> None:
    n_accesses = int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
    base = run(CoalescerKind.NONE, n_accesses)
    pac = run(CoalescerKind.PAC, n_accesses)

    print("HMC latency breakdown on GS (cycles per packet)\n")
    print(f"{'component':12s} {'no coalescing':>14s} {'PAC':>10s}")
    print("-" * 38)
    base_means = base.component_means()
    pac_means = pac.component_means()
    for comp in Telemetry.COMPONENTS:
        print(f"{comp:12s} {base_means[comp]:>14.1f} {pac_means[comp]:>10.1f}")

    print(f"\n{'percentile':12s} {'no coalescing':>14s} {'PAC':>10s}")
    print("-" * 38)
    bp, pp = base.latency_percentiles(), pac.latency_percentiles()
    for q in ("p50", "p95", "p99"):
        print(f"{q:12s} {bp[q]:>14.0f} {pp[q]:>10.0f}")

    print(f"\npackets: {len(base):,} -> {len(pac):,} "
          f"(remote-route fraction {base.remote_fraction():.0%} -> "
          f"{pac.remote_fraction():.0%})")

    heat = sorted(pac.vault_heat().items())
    peak = max(count for _, count in heat)
    print("\nPAC vault heat (packets per vault):")
    for vault, count in heat:
        bar = "#" * max(1, round(count / peak * 30))
        print(f"  vault {vault:2d} {count:>6,} |{bar}")


if __name__ == "__main__":
    main()

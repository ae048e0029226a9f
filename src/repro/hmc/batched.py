"""Array-backed back-end engine: the batched HMC/HBM device twins.

:class:`BatchedHMCDevice` re-implements the :class:`repro.hmc.device.
HMCDevice` ``submit`` path with **deferred accounting**: the queueing
arithmetic (link serialization, crossbar routing, vault admission, bank
busy-until) is unchanged — it is the feedback loop the coalescer's MSHR
release heap depends on, so each packet's completion cycle must be
available immediately — but every observable side effect (StatsRegistry
counters, the latency accumulator, EnergyModel charges) lands in a flat
window accumulator and is merged into the shared registries once per
:meth:`sync`, not once per packet. :meth:`submit` keeps the reference's
timing maths and replaces its per-packet counter/energy/accumulator
writes with indexed increments on one local list.

**Bit-identity.** The merged totals equal the reference's per-packet
accumulation bitwise: six of the seven energy categories carry
integer-valued pJ constants, so summing integer quantities and
multiplying once is exact below 2**53. DRAM-TRANSFER (1.2 pJ/byte is
not exactly representable) is the one category that cannot defer — a
window-merged partial sum rounds differently from the reference's
running total once that total is nonzero — so it alone is charged live
per packet, in packet order, exactly as the reference charges it.
Latency samples are integral floats, covered by the same exactness
argument ``Accumulator.add_repeat`` documents (counts and sums stay
exact integers until the merge). Structural state (link/vault/bank
busy horizons, bank
access counts, the round-robin cursor) is shared live with the parent,
so residual state matches the reference after every packet.

The engine refuses configurations it cannot uphold bit-identity for:
enabled telemetry probes, span tracing, or a per-packet ``Telemetry``
instance raise ``ValueError`` at construction (mirroring
:class:`repro.core.pac_batched.BatchedPagedAdaptiveCoalescer`). An
observed ``System`` builds the scalar device instead.
"""

from __future__ import annotations

from math import inf
from typing import List, Optional

from repro.common.types import HMC_CONTROL_OVERHEAD_BYTES, MemOp
from repro.config import HMCConfig
from repro.hmc.device import (
    LOCAL_ROUTE_CYCLES,
    REMOTE_ROUTE_CYCLES,
    HMCDevice,
)
from repro.hmc.hbm import hbm_config
from repro.hmc.link import CYCLES_PER_FLIT
from repro.hmc.vault import VAULT_CTRL_CYCLES

#: Window-accumulator slots — all integer counts. DRAM-TRANSFER is
#: deliberately absent: its pJ constant (1.2) is not exactly
#: representable, so it charges live per packet (see module docstring).
(
    _W_PACKETS,
    _W_PAYLOAD,
    _W_REQ_FLITS,
    _W_RSP_FLITS,
    _W_LOCAL,
    _W_REMOTE,
    _W_LOCAL_FLITS,
    _W_REMOTE_FLITS,
    _W_ADMITTED,
    _W_QWAIT,
    _W_RQST_SLOT,
    _W_RSP_SLOT,
    _W_CONFLICTS,
    _W_ACTIVATIONS,
    _W_ACT_ROWS,
) = range(15)

_W_SLOTS = 15


def _fresh_window() -> List[int]:
    return [0] * _W_SLOTS


class BatchedHMCDevice(HMCDevice):
    """HMCDevice with deferred window accounting (the back-end engine)."""

    def __init__(
        self,
        config: Optional[HMCConfig] = None,
        telemetry=False,
        probes=None,
        spans=None,
    ) -> None:
        if telemetry is not False and telemetry is not None:
            raise ValueError(
                "BatchedHMCDevice records no per-packet telemetry; "
                "construct HMCDevice for telemetry runs"
            )
        if probes is not None and probes.enabled:
            raise ValueError(
                "BatchedHMCDevice defers all accounting past the probe "
                "windows; construct HMCDevice for probe runs"
            )
        if spans is not None and spans.enabled:
            raise ValueError(
                "BatchedHMCDevice materializes no per-packet segments; "
                "construct HMCDevice for span runs"
            )
        super().__init__(config, telemetry=False, probes=probes, spans=spans)
        self._w = _fresh_window()
        # Deferred latency accumulator: [count, total, min, max, sumsq].
        self._w_lat: List = [0, 0, inf, -inf, 0]

    # -- MemoryDevice protocol --------------------------------------------- #

    def submit(self, packet, cycle: int) -> int:
        """Reference timing maths, deferred accounting.

        The returned completion cycle (and all busy-horizon state) is
        bit-identical to :meth:`HMCDevice.submit`; the counter /
        energy / latency effects sit in the window until :meth:`sync`.
        """
        size = packet.size
        if size > self._max_packet_bytes:
            raise ValueError(
                f"packet of {size}B exceeds device maximum "
                f"{self._max_packet_bytes}B"
            )
        is_store = packet.op == MemOp.STORE
        flit_cache = self._flits_store if is_store else self._flits_load
        flits = flit_cache.get(size)
        if flits is None:
            flits = self._flits_for(size, is_store)
            flit_cache[size] = flits
        req_flits = flits.request
        rsp_flits = flits.response
        addr = packet.addr
        single_row = False
        if self._am_vault_first and addr >= 0:
            row_shift = self._am_row_shift
            row_index = addr >> row_shift
            vault = row_index & self._am_vault_mask
            vb = (
                vault,
                (row_index >> self._am_vault_shift) & self._am_bank_mask,
            )
            single_row = (addr + size - 1) >> row_shift == row_index
        else:
            vb = self._vault_bank(addr)
            vault = vb[0]
        w = self._w

        # 1. Link serialization (request direction).
        if self.route_by_address:
            link = vault % self._n_links
        else:
            links = self.links
            link = links._rr
            links._rr = (link + 1) % self._n_links
        req_busy = self._req_busy
        start = req_busy[link]
        if cycle > start:
            start = cycle
        t = start + req_flits * CYCLES_PER_FLIT
        req_busy[link] = t
        w[_W_REQ_FLITS] += req_flits

        # 2. Crossbar routing (energy deferred as FLIT counts).
        local = vault // self._vaults_per_link == link
        if local:
            t += LOCAL_ROUTE_CYCLES
            w[_W_LOCAL] += 1
            w[_W_LOCAL_FLITS] += req_flits + rsp_flits
        else:
            t += REMOTE_ROUTE_CYCLES
            w[_W_REMOTE] += 1
            w[_W_REMOTE_FLITS] += req_flits + rsp_flits

        # 3. Vault admission (slot cycles deferred as an int sum).
        arrival_at_vault = t
        vault_busy = self._vault_busy
        start = vault_busy[vault]
        if t > start:
            start = t
        t = start + VAULT_CTRL_CYCLES
        vault_busy[vault] = t
        w[_W_ADMITTED] += 1
        wait = start - arrival_at_vault
        if wait > 0:
            w[_W_QWAIT] += wait
        w[_W_RQST_SLOT] += t - arrival_at_vault + 1

        # 4. DRAM access. The multi-row fallback writes its counters
        # straight through BankArray.access — counter addition commutes,
        # so the post-sync totals still match the reference exactly.
        if single_row:
            busy_until = self._bank_busy_until
            busy = busy_until.get(vb, 0)
            if busy > t:
                w[_W_CONFLICTS] += 1
                start = busy
            else:
                start = t
            end = start + self._bank_cycles
            busy_until[vb] = end
            counts = self._bank_counts
            counts[vb] = counts.get(vb, 0) + 1
            w[_W_ACTIVATIONS] += 1
            t = end
            n_rows = 1
        else:
            t, n_rows = self.banks.access(addr, size, t, vb0=vb)
        w[_W_ACT_ROWS] += n_rows
        # Charged live, in packet order: see the module docstring.
        self._pj_store["DRAM-TRANSFER"] += size * self._pj_dram_transfer

        # 5. Response route + serialization.
        route_back = LOCAL_ROUTE_CYCLES if local else REMOTE_ROUTE_CYCLES
        response_ready = t + route_back
        rsp_busy = self._rsp_busy
        start = rsp_busy[link]
        if response_ready > start:
            start = response_ready
        completion = start + rsp_flits * CYCLES_PER_FLIT
        rsp_busy[link] = completion
        w[_W_RSP_FLITS] += rsp_flits
        w[_W_RSP_SLOT] += completion - t + 1

        # Accounting, deferred.
        w[_W_PACKETS] += 1
        w[_W_PAYLOAD] += size
        latency = completion - cycle
        lat = self._w_lat
        lat[0] += 1
        lat[1] += latency
        lat[4] += latency * latency
        if latency < lat[2]:
            lat[2] = latency
        if latency > lat[3]:
            lat[3] = latency
        return completion

    # -- merge point -------------------------------------------------------- #

    def sync(self) -> None:
        """Merge the window accumulator into the shared registries.

        Counter merges are integer sums (order-free, exact); integer-pJ
        energy categories multiply their deferred quantity once (exact
        below 2**53); the latency accumulator merges exact-integer
        window sums. DRAM-TRANSFER never appears here — it charged
        live, per packet (see module docstring). Idempotent when the
        window is empty.
        """
        w = self._w
        self._c_packets.value += w[_W_PACKETS]
        self._c_payload.value += w[_W_PAYLOAD]
        self._c_txbytes.value += (
            w[_W_PAYLOAD] + HMC_CONTROL_OVERHEAD_BYTES * w[_W_PACKETS]
        )
        self._c_local_routes.value += w[_W_LOCAL]
        self._c_remote_routes.value += w[_W_REMOTE]
        self._lc_req_flits.value += w[_W_REQ_FLITS]
        self._lc_rsp_flits.value += w[_W_RSP_FLITS]
        self._vc_admitted.value += w[_W_ADMITTED]
        self._vc_queue_wait.value += w[_W_QWAIT]
        self._bc_conflicts.value += w[_W_CONFLICTS]
        self._bc_activations.value += w[_W_ACTIVATIONS]
        pj_store = self._pj_store
        pj_store["VAULT-RQST-SLOT"] += w[_W_RQST_SLOT] * self._pj_rqst_slot
        pj_store["VAULT-RSP-SLOT"] += w[_W_RSP_SLOT] * self._pj_rsp_slot
        pj_store["VAULT-CTRL"] += w[_W_PACKETS] * self._pj_vault_ctrl
        pj_store["LINK-LOCAL-ROUTE"] += (
            w[_W_LOCAL_FLITS] * self._pj_link_local
        )
        pj_store["LINK-REMOTE-ROUTE"] += (
            w[_W_REMOTE_FLITS] * self._pj_link_remote
        )
        pj_store["DRAM-ACTIVATE"] += w[_W_ACT_ROWS] * self._pj_dram_activate
        lat = self._w_lat
        if lat[0]:
            acc = self._acc_latency
            acc.count += lat[0]
            acc.total += lat[1]
            acc._sumsq += lat[4]
            if lat[2] < acc.min:
                acc.min = lat[2]
            if lat[3] > acc.max:
                acc.max = lat[3]
        self._w = _fresh_window()
        self._w_lat = [0, 0, inf, -inf, 0]


class BatchedHBMDevice(BatchedHMCDevice):
    """HBM twin: batched engine on the HBM-shaped geometry, with the
    address-routed (per-channel) link selection of
    :class:`repro.hmc.hbm.HBMDevice`."""

    def __init__(
        self,
        config: Optional[HMCConfig] = None,
        probes=None,
        spans=None,
    ) -> None:
        super().__init__(
            config if config is not None else hbm_config(),
            probes=probes,
            spans=spans,
        )
        self.route_by_address = True

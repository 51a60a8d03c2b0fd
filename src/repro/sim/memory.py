"""External-memory timing model.

The generated accelerator reaches the board DRAM through AXI switches
(paper §4.1).  The model is a bandwidth/latency pipe: a burst of ``n``
bytes costs the fixed first-beat latency plus ``n / bytes_per_cycle``
transfer cycles; independent bursts within one fold phase are assumed
pipelined, so only distinct patterns re-pay the latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.device import Device
from repro.errors import SimulationError


@dataclass(frozen=True)
class DRAMModel:
    """Cycle cost model of the off-chip memory port."""

    bytes_per_cycle: float
    latency_cycles: int

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise SimulationError("DRAM bandwidth must be positive")
        if self.latency_cycles < 0:
            raise SimulationError("DRAM latency cannot be negative")

    @staticmethod
    def for_device(device: Device) -> "DRAMModel":
        return DRAMModel(
            bytes_per_cycle=device.dram_bandwidth / device.clock_hz,
            latency_cycles=device.dram_latency_cycles,
        )

    def burst_cycles(self, n_bytes, bursts=1) -> np.ndarray:
        """Cycles to move ``n_bytes`` split over ``bursts`` bursts (at
        least one), elementwise over integer arrays; moving no bytes
        costs nothing."""
        n_bytes = np.asarray(n_bytes, dtype=np.int64)
        bursts = np.asarray(bursts, dtype=np.int64)
        if n_bytes.min(initial=0) < 0 or bursts.min(initial=0) < 0:
            raise SimulationError("negative transfer size")
        transfer = -(-n_bytes // self.bytes_per_cycle)
        cycles = self.latency_cycles * np.maximum(1, bursts) + transfer
        return np.where(n_bytes == 0, 0, cycles.astype(np.int64))

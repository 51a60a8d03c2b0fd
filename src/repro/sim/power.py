"""Activity-based energy accounting.

Energy of one forward propagation = static power x runtime + per-event
dynamic energies (MACs, on-chip buffer bytes, DRAM bytes).  The per-event
coefficients live on the :class:`~repro.devices.device.Device`; the
design's occupied LUTs add clock-tree/control power proportional to
area, which is why the large-budget DB-L draws more watts than DB (paper
Fig. 9 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.device import Device
from repro.errors import SimulationError


@dataclass
class EnergyReport:
    """Energy breakdown of one run."""

    time_s: float
    static_j: float
    mac_j: float
    sram_j: float
    dram_j: float

    @property
    def dynamic_j(self) -> float:
        return self.mac_j + self.sram_j + self.dram_j

    @property
    def total_j(self) -> float:
        return self.static_j + self.dynamic_j

    @property
    def average_power_w(self) -> float:
        if self.time_s <= 0:
            return 0.0
        return self.total_j / self.time_s

    def __str__(self) -> str:
        return (
            f"{self.total_j * 1e3:.3f} mJ "
            f"(static {self.static_j * 1e3:.3f}, mac {self.mac_j * 1e3:.3f}, "
            f"sram {self.sram_j * 1e3:.3f}, dram {self.dram_j * 1e3:.3f})"
        )


class EnergyModel:
    """Integrates activity counters into an :class:`EnergyReport`.

    The counters read the fold schedule, not the design's area, so
    designs that share a schedule share one model; :meth:`report`
    prices the static power at the area it is given.
    """

    def __init__(self, device: Device, word_bytes: int = 2) -> None:
        self.device = device
        self.word_bytes = word_bytes
        self.reset()

    def reset(self) -> None:
        self.macs = 0
        self.sram_words = 0
        self.dram_words = 0

    def count(self, macs, sram_words, dram_words) -> None:
        """Add the activity of a fold schedule: per-fold integer arrays
        of MACs, on-chip buffer words and DRAM words."""
        macs, sram_words, dram_words = (
            np.asarray(column, dtype=np.int64)
            for column in (macs, sram_words, dram_words))
        if min(macs.min(initial=0), sram_words.min(initial=0),
               dram_words.min(initial=0)) < 0:
            raise SimulationError("negative activity counts")
        self.macs += int(macs.sum())
        self.sram_words += int(sram_words.sum())
        self.dram_words += int(dram_words.sum())

    def report(self, cycles: int, occupied_lut: int = 0) -> EnergyReport:
        """The run's energy, its static power priced at the device's
        own plus that of ``occupied_lut`` LUTs."""
        if cycles < 0:
            raise SimulationError("negative cycle count")
        time_s = cycles / self.device.clock_hz
        static_power_w = (self.device.static_power_w
                          + self.device.power_per_klut * occupied_lut / 1000.0)
        return EnergyReport(
            time_s=time_s,
            static_j=static_power_w * time_s,
            mac_j=self.macs * self.device.energy_per_mac,
            sram_j=self.sram_words * self.word_bytes
            * self.device.energy_per_sram_byte,
            dram_j=self.dram_words * self.word_bytes
            * self.device.energy_per_dram_byte,
        )

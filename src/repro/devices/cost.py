"""Resource cost records.

A :class:`ResourceCost` counts the four FPGA resources the paper's
Table 3 reports: DSP slices, LUTs, flip-flops, and block-RAM bits (the
table omits BRAM, but buffer sizing needs it).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResourceCost:
    """Resource usage of one component or a whole accelerator."""

    dsp: int = 0
    lut: int = 0
    ff: int = 0
    bram_bits: int = 0

    def __post_init__(self) -> None:
        if min(self.dsp, self.lut, self.ff, self.bram_bits) < 0:
            raise ValueError(f"negative resource count in {self}")

    def __add__(self, other: "ResourceCost") -> "ResourceCost":
        return ResourceCost(
            self.dsp + other.dsp,
            self.lut + other.lut,
            self.ff + other.ff,
            self.bram_bits + other.bram_bits,
        )

    def scaled(self, factor: int) -> "ResourceCost":
        """Cost of ``factor`` identical instances."""
        if factor < 0:
            raise ValueError("cannot scale a cost by a negative factor")
        return ResourceCost(
            self.dsp * factor,
            self.lut * factor,
            self.ff * factor,
            self.bram_bits * factor,
        )

    def fits_in(self, other: "ResourceCost") -> bool:
        """True when this cost fits inside budget ``other``."""
        return (
            self.dsp <= other.dsp
            and self.lut <= other.lut
            and self.ff <= other.ff
            and self.bram_bits <= other.bram_bits
        )

    @staticmethod
    def total(costs: list["ResourceCost"]) -> "ResourceCost":
        dsp = lut = ff = bram_bits = 0
        for cost in costs:
            dsp += cost.dsp
            lut += cost.lut
            ff += cost.ff
            bram_bits += cost.bram_bits
        return ResourceCost(dsp, lut, ff, bram_bits)

    def __str__(self) -> str:
        return (
            f"dsp={self.dsp} lut={self.lut} ff={self.ff} "
            f"bram={self.bram_bits / 1024:.1f}Kb"
        )

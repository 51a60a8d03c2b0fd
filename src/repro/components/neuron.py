"""Synergy neuron array — the multiply-accumulate datapath core.

A *synergy neuron* (paper Fig. 5) is one output-neuron lane: a bank of
``simd`` multipliers feeding an adder tree and a partial-sum register.
An array of ``lanes`` neurons computes that many output values in
parallel, consuming ``lanes x simd`` weight words and ``simd`` shared
feature words per beat — the layout partitioning of Method-1 aligns the
on-chip memory rows to exactly this ``simd`` width.
"""

from __future__ import annotations

from repro.components.base import Component, PortDirection, PortSpec, \
    _require_positive, dsp_for_multiplier
from repro.devices.cost import ResourceCost


class SynergyNeuronArray(Component):
    """``lanes`` parallel neurons, each with ``simd`` multipliers."""

    MODULE = "synergy_neuron_array"

    def __init__(self, instance: str, lanes: int, simd: int,
                 data_width: int = 16, weight_width: int = 16,
                 accumulate_width: int = 32) -> None:
        super().__init__(instance)
        _require_positive(lanes=lanes, simd=simd, data_width=data_width,
                          weight_width=weight_width,
                          accumulate_width=accumulate_width)
        self.lanes = lanes
        self.simd = simd
        self.data_width = data_width
        self.weight_width = weight_width
        self.accumulate_width = accumulate_width

    @property
    def multipliers(self) -> int:
        return self.lanes * self.simd

    def macs_per_cycle(self) -> int:
        """Peak MAC throughput per clock."""
        return self.multipliers

    def beats_for(self, macs_per_output: int, outputs: int) -> int:
        """Cycles to compute ``outputs`` dot products of given depth.

        ``lanes`` outputs proceed in parallel; each needs
        ``ceil(depth / simd)`` beats through its multiplier bank.
        Elementwise over integer arrays.
        """
        beats_per_output = -(-macs_per_output // self.simd)
        waves = -(-outputs // self.lanes)
        return ((outputs > 0) & (macs_per_output > 0)) \
            * beats_per_output * waves

    def resource_cost(self) -> ResourceCost:
        mult_width = max(self.data_width, self.weight_width)
        dsp = self.multipliers * dsp_for_multiplier(mult_width)
        # Adder tree: (simd - 1) adders per lane at accumulate width,
        # roughly one LUT per result bit per adder; plus operand muxing.
        adder_luts = (self.simd - 1) * self.accumulate_width
        mux_luts = self.simd * self.data_width // 2
        lut = self.lanes * (adder_luts + mux_luts + 8)
        # Pipeline and partial-sum registers.
        ff = self.lanes * (self.accumulate_width + self.simd * self.weight_width // 4 + 8)
        return ResourceCost(dsp=dsp, lut=lut, ff=ff)

    def ports(self) -> list[PortSpec]:
        return [
            PortSpec("clk", PortDirection.INPUT),
            PortSpec("rst", PortDirection.INPUT),
            PortSpec("enable", PortDirection.INPUT),
            PortSpec("clear_acc", PortDirection.INPUT),
            PortSpec("feature_in", PortDirection.INPUT,
                     self.simd * self.data_width),
            PortSpec("weight_in", PortDirection.INPUT,
                     self.lanes * self.simd * self.weight_width),
            PortSpec("valid_in", PortDirection.INPUT),
            PortSpec("sum_out", PortDirection.OUTPUT,
                     self.lanes * self.accumulate_width),
            PortSpec("valid_out", PortDirection.OUTPUT),
        ]

    def parameters(self) -> dict[str, int]:
        return {
            "LANES": self.lanes,
            "SIMD": self.simd,
            "DATA_W": self.data_width,
            "WEIGHT_W": self.weight_width,
            "ACC_W": self.accumulate_width,
        }

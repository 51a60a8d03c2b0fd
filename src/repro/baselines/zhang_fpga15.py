"""Model of Zhang et al., "Optimizing FPGA-based Accelerator Design for
Deep Convolutional Neural Networks", FPGA 2015 — the paper's reference
point [7] for AlexNet.

Their design is a roofline-optimised tiled loop accelerator on a
Virtex-7 VX485T at 100 MHz: reported 61.62 GFLOPS on the AlexNet
convolutional layers, 21.61 ms per image, ~18.61 W.  The model replays
the same tiling analysis: per conv layer, compute time at the unrolled
(Tm x Tn) MAC array vs memory time of the tile traffic, whichever
dominates.  FC layers were not accelerated in [7]; we account them at
board memory bandwidth when asked for whole-network numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.device import VX485T, Device
from repro.errors import SimulationError
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind
from repro.frontend.resolver import resolve


@dataclass(frozen=True)
class ZhangFPGA15:
    """The [7] accelerator: fixed (Tm, Tn) unrolled MAC array."""

    device: Device = VX485T
    #: Output-channel / input-channel unroll factors (the paper's choice).
    tile_m: int = 64
    tile_n: int = 7
    #: Reported board power.
    power_w: float = 18.61

    @property
    def macs_per_cycle(self) -> int:
        return self.tile_m * self.tile_n

    def conv_time_s(self, graph: NetworkGraph) -> float:
        """Time for the convolutional layers (what [7] reports)."""
        resolved = resolve(graph)
        total_cycles = 0.0
        for spec in resolved.graph.layers:
            if spec.kind is not LayerKind.CONVOLUTION:
                continue
            in_shape = resolved.shapes[spec.bottoms[0]]
            out_shape = resolved.shapes[spec.tops[0]]
            macs = resolved.macs[spec.name]
            # Utilisation loss when channel counts don't divide the tiles.
            m_eff = -(-out_shape.channels // self.tile_m) * self.tile_m
            n_eff = -(-in_shape.channels // self.tile_n) * self.tile_n
            waste = (m_eff / out_shape.channels) * (n_eff / in_shape.channels)
            compute_cycles = macs * waste / self.macs_per_cycle
            traffic_bytes = 4.0 * (in_shape.size + out_shape.size)
            traffic_bytes += 4.0 * math.prod(
                resolved.weight_shapes[spec.name])
            memory_cycles = traffic_bytes / (self.device.dram_bandwidth
                                             / self.device.clock_hz)
            total_cycles += max(compute_cycles, memory_cycles)
        if total_cycles == 0:
            raise SimulationError(
                f"network '{resolved.graph.name}' has no convolutional "
                "layers for the [7] accelerator"
            )
        return total_cycles / self.device.clock_hz

    def forward_time_s(self, graph: NetworkGraph) -> float:
        """Whole-network time: conv on the array, FC at memory bandwidth."""
        resolved = resolve(graph)
        time = self.conv_time_s(graph)
        for spec in resolved.graph.layers:
            if spec.kind is not LayerKind.INNER_PRODUCT:
                continue
            weight_count = math.prod(resolved.weight_shapes[spec.name])
            time += weight_count * 4.0 / self.device.dram_bandwidth
        return time

    def conv_energy_j(self, graph: NetworkGraph) -> float:
        """Energy of the conv pass — the ~0.5 J the paper quotes for [7]."""
        return self.conv_time_s(graph) * self.power_w

    def forward_energy_j(self, graph: NetworkGraph) -> float:
        return self.forward_time_s(graph) * self.power_w

"""CPU baseline: software NN forward propagation on a Xeon.

The paper's software comparison point runs the trained networks in
Caffe/Matlab on an Intel Xeon 2.4 GHz.  The model is roofline-style per
layer: compute time at an effective FLOP rate (well below peak — 2015
single-socket CPU Caffe), memory time at the sustained DRAM bandwidth
for the layer's weight working set, plus a fixed per-layer framework
dispatch overhead that dominates tiny networks — which is exactly why
the small ANNs see the largest accelerator speedups (paper Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind
from repro.frontend.resolver import resolve


@dataclass(frozen=True)
class CPUModel:
    """Timing/energy model of one CPU software stack."""

    name: str
    clock_hz: float
    #: Effective achieved FLOP/s on NN kernels (GEMM-backed layers).
    effective_flops: float
    #: Effective FLOP/s on non-GEMM layers (pooling, activation, LRN).
    scalar_flops: float
    #: Sustained memory bandwidth, bytes/s.
    memory_bandwidth: float
    #: Framework dispatch overhead per layer invocation, seconds.
    layer_overhead_s: float
    #: Package power under NN load, watts.
    active_power_w: float

    def forward_time_s(self, graph: NetworkGraph) -> float:
        """One forward propagation of the whole network."""
        resolved = resolve(graph)
        total = 0.0
        for spec in graph.layers:
            if spec.kind is LayerKind.DATA:
                continue
            flops = 2.0 * resolved.macs[spec.name]
            if spec.kind.has_weights:
                compute = flops / self.effective_flops
                weight_count = math.prod(resolved.weight_shapes[spec.name])
                memory = weight_count * 4.0 / self.memory_bandwidth
                total += max(compute, memory)
            else:
                total += flops / self.scalar_flops
            total += self.layer_overhead_s
        if total <= 0:
            raise SimulationError(f"network '{graph.name}' has no work")
        return total

    def forward_energy_j(self, graph: NetworkGraph) -> float:
        return self.forward_time_s(graph) * self.active_power_w


#: The paper's CPU: Intel Xeon 2.4 GHz, 8 MB LLC, running Caffe/Matlab.
#: Effective GEMM throughput ~2.4 GFLOP/s models 2015-era single-thread
#: Caffe with OpenBLAS (peak SSE/AVX is far higher; NN kernels do not
#: reach it); the 12 us dispatch overhead is a Caffe/Matlab layer-call
#: cost that the tiny AxBench ANNs cannot amortise.
XEON_2_4GHZ = CPUModel(
    name="Xeon 2.4GHz",
    clock_hz=2.4e9,
    effective_flops=2.4e9,
    scalar_flops=1.2e9,
    memory_bandwidth=12.8e9,
    layer_overhead_s=12e-6,
    active_power_w=80.0,
)

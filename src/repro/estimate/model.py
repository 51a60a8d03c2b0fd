"""The analytic performance model.

Latency
    The simulator and this model share one timing function,
    :func:`~repro.sim.accel.pipeline_timing`: the load/compute pipeline
    recurrence over a fold schedule's
    :class:`~repro.sim.accel.FoldColumns`, with the simulator's own
    datapath model for compute cycles and the DRAM port model for load
    cycles.  The only columns that differ in origin are each fold's
    traffic: DRAM words, bursts and buffer read words.

Traffic
    ``load`` cycles need the fold's DRAM footprint and burst count —
    exactly what the address generator
    (:class:`~repro.compiler.address.AddressFlowGenerator`) derives,
    and its access-pattern footprints are pure arithmetic over the
    :class:`~repro.nngen.design.FoldPhase` fields, the blob shapes and
    the Method-1 tile side.  This module mirrors that arithmetic fold
    by fold (:meth:`AnalyticEstimator.phase_traffic`) without building
    pattern tables, so no control program (and hence no compile stage)
    is needed.

Energy
    The same traffic counts drive the simulator's activity-based
    :class:`~repro.sim.power.EnergyModel`, so the energy breakdown has
    the same shape and coefficients as a simulated run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.layout import choose_tile_side
from repro.frontend.layers import LayerKind, LayerSpec
from repro.nngen.design import AcceleratorDesign, FoldPhase
from repro.sim.accel import (
    FoldColumns,
    SimulationResult,
    pipeline_timing,
    priced,
)


@dataclass(frozen=True)
class _LayerContext:
    """Per-layer constants the traffic arithmetic reuses across folds."""

    spec: LayerSpec
    in_size: int = 0
    window_words: int = 0
    out_width: int = 0
    eltwise_words: tuple[int, ...] = ()


class AnalyticEstimator:
    """Closed-form latency/energy model of one realized design.

    Needs only the :class:`~repro.nngen.design.AcceleratorDesign` (fold
    schedule, blob shapes, datapath, budget device) — no compiled
    program, no weights.  Construction precomputes per-layer constants;
    :meth:`report` evaluates the recurrence over the fold schedule.
    """

    def __init__(self, design: AcceleratorDesign) -> None:
        self.design = design
        self._layers: dict[str, _LayerContext] = {}

    # --- per-layer constants ------------------------------------------

    def _context(self, layer: str) -> _LayerContext:
        context = self._layers.get(layer)
        if context is not None:
            return context
        resolved = self.design.resolved
        shapes = resolved.shapes
        spec = resolved.layer(layer)
        if spec.kind.is_convolution:
            # The data AGU walks Method-1 tiles of the input blob; the
            # tile side follows the layout rule the memory map applied.
            in_shape = shapes[spec.bottoms[0]]
            kernel, stride = resolved.windows.get(spec.bottoms[0], (1, 1))
            side, _ = choose_tile_side(max(1, kernel), max(1, stride),
                                       port_width=self.design.datapath.simd)
            side = max(1, min(side, in_shape.height, in_shape.width))
            k = spec.kernel_size
            window_words = ((-(-k // side)) ** 2 * side * side) \
                if side > 1 else k * k
            context = _LayerContext(
                spec=spec,
                window_words=window_words,
                out_width=shapes[spec.tops[0]].width,
            )
        elif spec.kind in (LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                           LayerKind.ASSOCIATIVE):
            context = _LayerContext(
                spec=spec, in_size=shapes[spec.bottoms[0]].size)
        elif spec.kind is LayerKind.ELTWISE:
            context = _LayerContext(
                spec=spec,
                eltwise_words=tuple(shapes[blob].size
                                    for blob in spec.bottoms))
        else:
            context = _LayerContext(spec=spec)
        self._layers[layer] = context
        return context

    # --- per-fold traffic ---------------------------------------------

    def phase_traffic(self, phase: FoldPhase) -> tuple[int, int, int, int]:
        """The fold's DRAM read and write words, main-AGU burst count
        and on-chip read words — mirroring the address generator's
        patterns."""
        context = self._context(phase.layer)
        spec = context.spec
        lanes = self.design.datapath.lanes
        reads = writes = bursts = sram = 0
        if spec.kind.is_convolution:
            depth = max(1, phase.in_ch_count)
            channels = max(1, phase.out_ch_count)
            per_map_band = phase.input_words // depth
            reads += max(1, per_map_band) * depth
            bursts += 1
            k = spec.kernel_size
            slice_depth = phase.in_ch_count * k * k
            reads += slice_depth * channels
            bursts += 1
            if not phase.partial:
                per_channel_out = phase.output_words // channels
                writes += max(1, per_channel_out) * channels
                bursts += 1
            positions = phase.row_count * context.out_width
            sram += context.window_words * depth * max(1, positions)
            sram += slice_depth * max(1, min(phase.out_ch_count, lanes))
        elif spec.kind in (LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                           LayerKind.ASSOCIATIVE):
            depth = phase.in_count
            outputs = phase.out_count
            fetch_depth = min(depth, max(0, context.in_size - phase.in_start))
            if fetch_depth > 0:
                reads += fetch_depth
                bursts += 1
            reads += depth * outputs
            bursts += 1
            if not phase.partial:
                writes += outputs
                bursts += 1
            waves = -(-outputs // lanes)
            sram += depth * waves + depth * outputs
        elif spec.kind is LayerKind.ELTWISE:
            for words in context.eltwise_words:
                reads += words
                bursts += 1
                sram += words
            if spec.tops and phase.output_words:
                writes += phase.output_words
                bursts += 1
        else:
            if spec.bottoms and phase.input_words:
                reads += phase.input_words
                bursts += 1
                sram += phase.input_words
            if spec.tops and phase.output_words:
                writes += phase.output_words
                bursts += 1
        return reads, writes, bursts, sram

    def fold_columns(self) -> FoldColumns:
        """The fold schedule's columns, with the derived traffic."""
        phases = self.design.folding.phases
        return FoldColumns.of(
            phases, [self.phase_traffic(phase) for phase in phases])

    # --- the recurrence -----------------------------------------------

    def report(self) -> SimulationResult:
        """Evaluate the pipeline recurrence over the fold schedule.

        The result has the simulator's shape with ``outputs=None``: the
        model never executes the network.
        """
        return priced(self.design,
                      pipeline_timing(self.design, self.fold_columns()))

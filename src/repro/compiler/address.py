"""Per-fold address stream generation.

For every fold phase the compiler produces the four address flows the
AGUs replay (paper §3.3): main-AGU reads (DRAM → buffers, features and
weights), main-AGU writes (result tiles back to DRAM), data-AGU reads
(feature buffer → datapath) and weight-AGU reads (weight buffer →
datapath).  Streams are produced in affine :class:`AccessPattern` form
directly where the geometry is known, and through the
:func:`~repro.compiler.patterns.infer_patterns` analyzer when a raw
stream is easier to enumerate (small dense layers) — both roads end in
the same FSM representation the hardware generator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.memmap import MemoryMap
from repro.compiler.patterns import AccessPattern, infer_patterns
from repro.errors import CompileError
from repro.frontend.layers import LayerKind, LayerSpec
from repro.nngen.design import AcceleratorDesign, FoldPhase


@dataclass
class PhaseAddressPlan:
    """Compiled address flows of one fold phase."""

    phase: FoldPhase
    event: str
    main_feature_reads: list[AccessPattern] = field(default_factory=list)
    main_weight_reads: list[AccessPattern] = field(default_factory=list)
    main_writes: list[AccessPattern] = field(default_factory=list)
    data_reads: list[AccessPattern] = field(default_factory=list)
    weight_reads: list[AccessPattern] = field(default_factory=list)

    def dram_read_words(self) -> int:
        return (sum(p.footprint for p in self.main_feature_reads)
                + sum(p.footprint for p in self.main_weight_reads))

    def dram_write_words(self) -> int:
        return sum(p.footprint for p in self.main_writes)

    def buffer_read_words(self) -> int:
        return (sum(p.footprint for p in self.data_reads)
                + sum(p.footprint for p in self.weight_reads))

    def all_patterns(self) -> list[AccessPattern]:
        return (self.main_feature_reads + self.main_weight_reads
                + self.main_writes + self.data_reads + self.weight_reads)


def phase_event(phase: FoldPhase, layer_index: int) -> str:
    """The pre-defined trigger event name, e.g. ``layer0-fold0``."""
    return f"layer{layer_index}-fold{phase.phase_index}"


class AddressFlowGenerator:
    """Generates the address plans of every fold in a design."""

    def __init__(self, design: AcceleratorDesign, memory_map: MemoryMap) -> None:
        self.design = design
        self.memory_map = memory_map
        self.resolved = design.resolved
        self.shapes = design.resolved.shapes

    def plans(self) -> list[PhaseAddressPlan]:
        return [self._plan_phase(phase) for phase in self.design.folding]

    # ------------------------------------------------------------------

    def _plan_phase(self, phase: FoldPhase) -> PhaseAddressPlan:
        spec = self.resolved.layer(phase.layer)
        event = phase_event(phase, self.resolved.ids[spec.name])
        plan = PhaseAddressPlan(phase=phase, event=event)
        if spec.kind.is_convolution:
            self._conv_flows(spec, phase, plan)
        elif spec.kind in (LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                           LayerKind.ASSOCIATIVE):
            self._dense_flows(spec, phase, plan)
        else:
            self._streaming_flows(spec, phase, plan)
        return plan

    # -- dense layers ---------------------------------------------------

    def _dense_flows(self, spec: LayerSpec, phase: FoldPhase,
                     plan: PhaseAddressPlan) -> None:
        blob_in = spec.bottoms[0]
        blob_out = spec.tops[0]
        in_base = self.memory_map.feature_base(blob_in)
        weights = self.memory_map.weights(spec.name)
        event = plan.event

        depth = phase.in_count
        outputs = phase.out_count
        in_size = self.shapes[blob_in].size

        # Feature fetch: the contiguous input slice.  Recurrent state
        # (addresses past the input blob) lives in the output region and
        # is already on chip, so only the real-input part is fetched.
        fetch_depth = min(depth, max(0, in_size - phase.in_start))
        if fetch_depth > 0:
            plan.main_feature_reads.append(AccessPattern(
                start_address=in_base + phase.in_start,
                x_length=fetch_depth, event=event,
            ))
        # Weight fetch: a (outputs x depth) block, one row per output.
        plan.main_weight_reads.append(AccessPattern(
            start_address=weights.block_address(phase.out_start, phase.in_start),
            x_length=depth,
            y_length=outputs,
            offset=weights.depth,
            event=event,
        ))
        # Writeback of completed outputs (partial sums stay on chip).
        if not phase.partial:
            out_base = self.memory_map.feature_base(blob_out)
            plan.main_writes.append(AccessPattern(
                start_address=out_base + phase.out_start,
                x_length=outputs, event=event,
            ))
        # Data AGU: replay the input slice once per lane wave.
        lanes = self.design.datapath.lanes
        waves = -(-outputs // lanes)
        plan.data_reads.append(AccessPattern(
            start_address=0, x_length=depth, y_length=waves, offset=0,
            event=event,
        ))
        # Weight AGU: stream the block in consumption order.
        plan.weight_reads.append(AccessPattern(
            start_address=0, x_length=depth, y_length=outputs, offset=depth,
            event=event,
        ))

    # -- convolution layers ----------------------------------------------

    def _conv_flows(self, spec: LayerSpec, phase: FoldPhase,
                    plan: PhaseAddressPlan) -> None:
        blob_in = spec.bottoms[0]
        blob_out = spec.tops[0]
        in_layout = self.memory_map.feature_layout(blob_in)
        in_base = self.memory_map.feature_base(blob_in)
        out_layout = self.memory_map.feature_layout(blob_out)
        out_base = self.memory_map.feature_base(blob_out)
        weights = self.memory_map.weights(spec.name)
        event = plan.event
        out_shape = self.shapes[blob_out]
        k = spec.kernel_size
        out_w = out_shape.width

        channels = phase.out_ch_count
        depth = phase.in_ch_count
        band_rows = phase.row_count

        # Feature fetch: the input band of each channel in the slice is a
        # run of whole tile rows; channel bands repeat at the map pitch.
        map_pitch = in_layout.tiles_per_map * in_layout.tile_elements
        per_map_band = phase.input_words // max(1, depth)
        in_row_start = phase.row_start * spec.stride
        tile_row = in_row_start // in_layout.side
        band_start = tile_row * in_layout.tiles_x * in_layout.tile_elements
        plan.main_feature_reads.append(AccessPattern(
            start_address=in_base + phase.in_ch_start * map_pitch + band_start,
            x_length=max(1, per_map_band),
            y_length=max(1, depth),
            offset=map_pitch,
            event=event,
        ))

        # Weight fetch: one row per output channel in the chunk; each
        # row's input-channel slice is contiguous (channel-major storage).
        slice_depth = depth * k * k
        plan.main_weight_reads.append(AccessPattern(
            start_address=weights.block_address(
                phase.out_ch_start, phase.in_ch_start * k * k),
            x_length=slice_depth,
            y_length=max(1, channels),
            offset=weights.depth,
            event=event,
        ))

        # Writeback: the produced output band of each channel.
        if not phase.partial:
            out_map_pitch = out_layout.tiles_per_map * out_layout.tile_elements
            out_tile_row = phase.row_start // out_layout.side
            out_band_start = (out_tile_row * out_layout.tiles_x
                              * out_layout.tile_elements)
            per_channel_out = phase.output_words // max(1, channels)
            plan.main_writes.append(AccessPattern(
                start_address=out_base + phase.out_ch_start * out_map_pitch
                + out_band_start,
                x_length=max(1, per_channel_out),
                y_length=max(1, channels),
                offset=out_map_pitch,
                event=event,
            ))

        # Data AGU: one window sweep per output position; at sub-block
        # granularity each window covers ceil(k/side)^2 tiles per map.
        side = in_layout.side
        if side > 1:
            tiles_per_window = (-(-k // side)) ** 2
            window_words = tiles_per_window * side * side
            position_step = spec.stride * side
        else:
            window_words = k * k
            position_step = spec.stride
        positions = band_rows * out_w
        plan.data_reads.append(AccessPattern(
            start_address=0,
            x_length=window_words * max(1, depth),
            y_length=max(1, positions),
            offset=position_step,
            event=event,
        ))
        # Weight AGU: the kernel slice of each output channel streams once
        # per position wave (lanes cover the channel chunk in parallel).
        plan.weight_reads.append(AccessPattern(
            start_address=0,
            x_length=slice_depth,
            y_length=max(1, min(channels, self.design.datapath.lanes)),
            offset=slice_depth,
            event=event,
        ))

    # -- streaming layers -------------------------------------------------

    def _streaming_flows(self, spec: LayerSpec, phase: FoldPhase,
                         plan: PhaseAddressPlan) -> None:
        event = plan.event
        if spec.kind is LayerKind.ELTWISE:
            # Every residual branch streams through in full; the fold's
            # input_words is the sum over all bottoms.
            for blob in spec.bottoms:
                words = self.shapes[blob].size
                plan.main_feature_reads.append(AccessPattern(
                    start_address=self.memory_map.feature_base(blob),
                    x_length=words, event=event,
                ))
                plan.data_reads.append(AccessPattern(
                    start_address=0, x_length=words, event=event,
                ))
        elif spec.bottoms:
            in_base = self.memory_map.feature_base(spec.bottoms[0])
            if phase.input_words:
                plan.main_feature_reads.append(AccessPattern(
                    start_address=in_base + phase.in_start,
                    x_length=phase.input_words, event=event,
                ))
                plan.data_reads.append(AccessPattern(
                    start_address=0, x_length=phase.input_words, event=event,
                ))
        if spec.tops and phase.output_words:
            out_base = self.memory_map.feature_base(spec.tops[0])
            plan.main_writes.append(AccessPattern(
                start_address=out_base + phase.out_start,
                x_length=phase.output_words, event=event,
            ))


def dense_reference_stream(weights_base: int, depth_total: int,
                           out_start: int, out_count: int,
                           in_start: int, depth: int) -> list[int]:
    """Brute-force weight address stream of a dense fold (test oracle)."""
    stream = []
    for row in range(out_start, out_start + out_count):
        base = weights_base + row * depth_total + in_start
        stream.extend(range(base, base + depth))
    return stream


def compress_stream(stream: list[int], max_patterns: int = 64) -> list[AccessPattern]:
    """Run the analyzer over a raw stream (the paper's generalization step)."""
    if not stream:
        raise CompileError("cannot compress an empty address stream")
    return infer_patterns(stream, max_patterns=max_patterns)

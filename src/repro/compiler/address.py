"""Per-fold address stream generation.

For every fold phase the compiler produces the four address flows the
AGUs replay (paper §3.3): main-AGU reads (DRAM → buffers, features and
weights), main-AGU writes (result tiles back to DRAM), data-AGU reads
(feature buffer → datapath) and weight-AGU reads (weight buffer →
datapath), each in affine :class:`AccessPattern` form.

A design sweep compiles every candidate design, so this is the hot path
of design-space exploration.  :class:`AddressFlowGenerator` therefore
resolves each layer's geometry once per design — feature layouts and
bases, map and tile-row pitches, tile side, window words, position
step, weight region, lanes, the ``layer{id}-fold`` event prefix and the
connection-box route — into a per-layer context, and the per-fold code is arithmetic over that
context and the :class:`~repro.nngen.design.FoldPhase` fields.  Each
fold's rows go straight into the pattern tables of the
:class:`~repro.compiler.control.CoordinatorProgram`, the fold's word
counts are summed as the rows are made, and the fold's
:class:`~repro.compiler.control.CoordinatorState` — its address plan —
is built from them in one positional call.

:func:`compress_stream` is the other road into the same form: the
:func:`~repro.compiler.patterns.infer_patterns` analyzer over a raw
address stream (the paper's generalization step).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.control import (
    CoordinatorProgram,
    CoordinatorState,
    route_for_phase,
)
from repro.compiler.layout import FeatureLayout, WeightLayout
from repro.compiler.memmap import MemoryMap
from repro.compiler.patterns import AccessPattern, infer_patterns
from repro.errors import CompileError
from repro.frontend.layers import LayerKind, LayerSpec
from repro.nngen.design import AcceleratorDesign, FoldPhase

#: Layers whose folds are dense matrix-vector blocks.
_DENSE_KINDS = frozenset({LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                          LayerKind.ASSOCIATIVE})


@dataclass(frozen=True)
class _LayerContext:
    """Per-layer geometry the flow arithmetic reuses across folds.

    Addresses are in DRAM elements; a pitch is the distance between
    consecutive channel maps (``*_map_pitch``) or tile rows
    (``*_row_pitch``) of a Method-1 tiled blob.
    """

    spec: LayerSpec
    #: A fold's pre-defined trigger event is this prefix plus its phase
    #: index, e.g. ``layer0-fold0``.
    event_prefix: str
    #: Connection-box route of every fold of the layer.
    route: tuple[str, ...]
    lanes: int
    in_base: int = 0
    out_base: int = 0
    #: Weighted layers: the layer's weight region.
    weights: WeightLayout | None = None
    #: Dense layers: words of the input blob (recurrent state lies past
    #: it, in the output region).
    in_size: int = 0
    #: Convolution layers: kernel words per input channel, tile sides
    #: and pitches of the input and output blobs, output map width, and
    #: the data AGU's window words per channel and position step.
    kernel_words: int = 0
    in_side: int = 1
    in_map_pitch: int = 0
    in_row_pitch: int = 0
    out_side: int = 1
    out_map_pitch: int = 0
    out_row_pitch: int = 0
    out_width: int = 0
    window_words: int = 0
    position_step: int = 0
    #: Elementwise layers: ``(base, words)`` of every bottom blob.
    streams: tuple[tuple[int, int], ...] = ()


def _pitches(layout: FeatureLayout) -> tuple[int, int]:
    """``(map pitch, tile-row pitch)`` of a tiled feature blob."""
    return (layout.tiles_per_map * layout.tile_elements,
            layout.tiles_x * layout.tile_elements)


class AddressFlowGenerator:
    """Generates the coordinator program of a design: one state per fold.

    Each layer's geometry is resolved once (:meth:`_context`); the
    per-fold methods are arithmetic over it and the fold's fields, and
    append the fold's rows straight into the program's pattern tables.
    """

    def __init__(self, design: AcceleratorDesign, memory_map: MemoryMap) -> None:
        self.design = design
        self.memory_map = memory_map
        self.resolved = design.resolved
        self.shapes = design.resolved.shapes
        self._layers: dict[str, _LayerContext] = {}

    def coordinator(self) -> CoordinatorProgram:
        """One state per fold, in fold order, over fresh pattern tables."""
        program = CoordinatorProgram()
        states = program.states
        for phase in self.design.folding:
            states.append(self._state(phase, program))
        if not states:
            raise CompileError("network produced no control states")
        return program

    # ------------------------------------------------------------------

    def _context(self, phase: FoldPhase) -> _LayerContext:
        layer = phase.layer
        context = self._layers.get(layer)
        if context is not None:
            return context
        memory_map = self.memory_map
        spec = self.resolved.layer(layer)
        prefix = f"layer{self.resolved.ids[spec.name]}-fold"
        route = route_for_phase(self.design, phase)
        lanes = self.design.datapath.lanes
        if spec.kind.is_convolution:
            blob_in, blob_out = spec.bottoms[0], spec.tops[0]
            in_layout = memory_map.feature_layout(blob_in)
            out_layout = memory_map.feature_layout(blob_out)
            in_map_pitch, in_row_pitch = _pitches(in_layout)
            out_map_pitch, out_row_pitch = _pitches(out_layout)
            k = spec.kernel_size
            # The data AGU sweeps one window per output position; at
            # sub-block granularity a window covers ceil(k/side)^2 tiles
            # per map.
            side = in_layout.side
            if side > 1:
                window_words = (-(-k // side)) ** 2 * side * side
                position_step = spec.stride * side
            else:
                window_words = k * k
                position_step = spec.stride
            context = _LayerContext(
                spec, prefix, route, lanes,
                in_base=memory_map.feature_base(blob_in),
                out_base=memory_map.feature_base(blob_out),
                weights=memory_map.weights(spec.name),
                kernel_words=k * k,
                in_side=side,
                in_map_pitch=in_map_pitch,
                in_row_pitch=in_row_pitch,
                out_side=out_layout.side,
                out_map_pitch=out_map_pitch,
                out_row_pitch=out_row_pitch,
                out_width=self.shapes[blob_out].width,
                window_words=window_words,
                position_step=position_step,
            )
        elif spec.kind in _DENSE_KINDS:
            context = _LayerContext(
                spec, prefix, route, lanes,
                in_base=memory_map.feature_base(spec.bottoms[0]),
                out_base=memory_map.feature_base(spec.tops[0]),
                weights=memory_map.weights(spec.name),
                in_size=self.shapes[spec.bottoms[0]].size,
            )
        else:
            context = _LayerContext(
                spec, prefix, route, lanes,
                in_base=memory_map.feature_base(spec.bottoms[0])
                if spec.bottoms else 0,
                out_base=memory_map.feature_base(spec.tops[0])
                if spec.tops else 0,
                streams=tuple((memory_map.feature_base(blob),
                               self.shapes[blob].size)
                              for blob in spec.bottoms)
                if spec.kind is LayerKind.ELTWISE else (),
            )
        self._layers[layer] = context
        return context

    def _state(self, phase: FoldPhase,
               program: CoordinatorProgram) -> CoordinatorState:
        context = self._context(phase)
        event = f"{context.event_prefix}{phase.phase_index}"
        main, data, weight = (program.main_table, program.data_table,
                              program.weight_table)
        main_start, data_start, weight_start = len(main), len(data), len(weight)
        kind = context.spec.kind
        if kind.is_convolution:
            flows = self._conv_flows
        elif kind in _DENSE_KINDS:
            flows = self._dense_flows
        else:
            flows = self._streaming_flows
        weight_reads_at, writes_at, read_words, write_words, replay_words = \
            flows(context, phase, event, program)
        return CoordinatorState(
            phase, event, context.route, range(main_start, len(main)),
            weight_reads_at, writes_at, range(data_start, len(data)),
            range(weight_start, len(weight)), read_words, write_words,
            replay_words)

    # Each ``*_flows`` method appends one fold's rows to the program's
    # pattern tables (main table: feature reads, weight reads, then
    # writes) and returns ``(weight_reads_at, writes_at, read_words,
    # write_words, replay_words)``: the main-table split points and the
    # words the rows sweep (``x_length * y_length`` each).

    # -- dense layers ---------------------------------------------------

    def _dense_flows(self, context: _LayerContext, phase: FoldPhase,
                     event: str, program: CoordinatorProgram
                     ) -> tuple[int, int, int, int, int]:
        main = program.main_table
        weights = context.weights
        assert weights is not None
        depth = phase.in_count
        outputs = phase.out_count
        read_words = write_words = 0

        # Feature fetch: the contiguous input slice.  Recurrent state
        # (addresses past the input blob) lives in the output region and
        # is already on chip, so only the real-input part is fetched.
        fetch_depth = min(depth, max(0, context.in_size - phase.in_start))
        if fetch_depth > 0:
            main.append(AccessPattern(
                start_address=context.in_base + phase.in_start,
                x_length=fetch_depth, event=event,
            ))
            read_words += fetch_depth
        weight_reads_at = len(main)
        # Weight fetch: a (outputs x depth) block, one row per output.
        main.append(AccessPattern(
            start_address=weights.block_address(phase.out_start,
                                                phase.in_start),
            x_length=depth,
            y_length=outputs,
            offset=weights.depth,
            event=event,
        ))
        read_words += depth * outputs
        writes_at = len(main)
        # Writeback of completed outputs (partial sums stay on chip).
        if not phase.partial:
            main.append(AccessPattern(
                start_address=context.out_base + phase.out_start,
                x_length=outputs, event=event,
            ))
            write_words = outputs
        # Data AGU: replay the input slice once per lane wave.
        waves = -(-outputs // context.lanes)
        program.data_table.append(AccessPattern(
            start_address=0, x_length=depth, y_length=waves, offset=0,
            event=event,
        ))
        # Weight AGU: stream the block in consumption order.
        program.weight_table.append(AccessPattern(
            start_address=0, x_length=depth, y_length=outputs, offset=depth,
            event=event,
        ))
        return (weight_reads_at, writes_at, read_words, write_words,
                depth * waves + depth * outputs)

    # -- convolution layers ----------------------------------------------

    def _conv_flows(self, context: _LayerContext, phase: FoldPhase,
                    event: str, program: CoordinatorProgram
                    ) -> tuple[int, int, int, int, int]:
        # Nearly every fold of a CNN sweep lands here, so the rows are
        # built positionally: (start_address, x_length, stride, y_length,
        # offset, event).
        main = program.main_table
        weights = context.weights
        assert weights is not None
        channels = max(1, phase.out_ch_count)
        depth = max(1, phase.in_ch_count)

        # Feature fetch: the input band of each channel in the slice is a
        # run of whole tile rows; channel bands repeat at the map pitch.
        per_map_band = max(1, phase.input_words // depth)
        tile_row = phase.row_start * context.spec.stride // context.in_side
        in_map_pitch = context.in_map_pitch
        main.append(AccessPattern(
            context.in_base + phase.in_ch_start * in_map_pitch
            + tile_row * context.in_row_pitch,
            per_map_band, 1, depth, in_map_pitch, event))
        read_words = per_map_band * depth
        weight_reads_at = len(main)

        # Weight fetch: one row per output channel in the chunk; each
        # row's input-channel slice is contiguous (channel-major storage).
        kernel_words = context.kernel_words
        slice_depth = phase.in_ch_count * kernel_words
        main.append(AccessPattern(
            weights.block_address(phase.out_ch_start,
                                  phase.in_ch_start * kernel_words),
            slice_depth, 1, channels, weights.depth, event))
        read_words += slice_depth * channels
        writes_at = len(main)

        # Writeback: the produced output band of each channel.
        write_words = 0
        if not phase.partial:
            per_channel_out = max(1, phase.output_words // channels)
            out_tile_row = phase.row_start // context.out_side
            out_map_pitch = context.out_map_pitch
            main.append(AccessPattern(
                context.out_base + phase.out_ch_start * out_map_pitch
                + out_tile_row * context.out_row_pitch,
                per_channel_out, 1, channels, out_map_pitch, event))
            write_words = per_channel_out * channels

        # Data AGU: one window sweep per output position.
        window = context.window_words * depth
        positions = max(1, phase.row_count * context.out_width)
        program.data_table.append(AccessPattern(
            0, window, 1, positions, context.position_step, event))
        # Weight AGU: the kernel slice of each output channel streams once
        # per position wave (lanes cover the channel chunk in parallel).
        waves = max(1, min(phase.out_ch_count, context.lanes))
        program.weight_table.append(AccessPattern(
            0, slice_depth, 1, waves, slice_depth, event))
        return (weight_reads_at, writes_at, read_words, write_words,
                window * positions + slice_depth * waves)

    # -- streaming layers -------------------------------------------------

    def _streaming_flows(self, context: _LayerContext, phase: FoldPhase,
                         event: str, program: CoordinatorProgram
                         ) -> tuple[int, int, int, int, int]:
        main, data = program.main_table, program.data_table
        spec = context.spec
        read_words = write_words = 0
        if spec.kind is LayerKind.ELTWISE:
            # Elementwise: every residual branch streams through in
            # full; the fold's input_words is the sum over all bottoms.
            for base, words in context.streams:
                main.append(AccessPattern(
                    start_address=base, x_length=words, event=event,
                ))
                data.append(AccessPattern(
                    start_address=0, x_length=words, event=event,
                ))
                read_words += words
        elif spec.bottoms and phase.input_words:
            main.append(AccessPattern(
                start_address=context.in_base + phase.in_start,
                x_length=phase.input_words, event=event,
            ))
            data.append(AccessPattern(
                start_address=0, x_length=phase.input_words, event=event,
            ))
            read_words = phase.input_words
        writes_at = len(main)
        if spec.tops and phase.output_words:
            main.append(AccessPattern(
                start_address=context.out_base + phase.out_start,
                x_length=phase.output_words, event=event,
            ))
            write_words = phase.output_words
        return writes_at, writes_at, read_words, write_words, read_words


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

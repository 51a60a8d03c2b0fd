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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from repro.compiler.memmap import MemoryMap
from repro.compiler.patterns import AccessPattern, infer_patterns
from repro.errors import CompileError
from repro.frontend.layers import LayerKind, LayerSpec
from repro.nngen.design import AcceleratorDesign, FoldPhase


class PatternTables:
    """The three coordinator pattern tables: the one pattern store.

    :class:`AddressFlowGenerator` appends every fold's flows here, fold
    by fold; each :class:`PhaseAddressPlan` and each coordinator state
    records integer index ranges into these lists, so a compiled
    program holds each :class:`AccessPattern` once.
    """

    __slots__ = ("main", "data", "weight")

    def __init__(self) -> None:
        #: Main AGU (DRAM <-> buffers): per fold, feature reads, weight
        #: reads, then writes.
        self.main: list[AccessPattern] = []
        #: Data AGU (feature buffer -> datapath).
        self.data: list[AccessPattern] = []
        #: Weight AGU (weight buffer -> datapath).
        self.weight: list[AccessPattern] = []


class TableSlice(Sequence[AccessPattern]):
    """A read-only view of ``table[ids.start:ids.stop]`` that copies
    nothing; it reads the table on every access."""

    __slots__ = ("_table", "_ids")

    def __init__(self, table: list[AccessPattern], ids: range) -> None:
        self._table = table
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TableSlice(self._table, self._ids[index])
        return self._table[self._ids[index]]

    def __iter__(self) -> Iterator[AccessPattern]:
        return map(self._table.__getitem__, self._ids)


@dataclass
class PhaseAddressPlan:
    """Compiled address flows of one fold phase, as index ranges into
    the program's :class:`PatternTables`.

    ``main`` covers the fold's main-AGU rows (feature reads, weight
    reads, writes, split at ``weight_reads_at`` and ``writes_at``);
    ``data`` and ``weight`` cover its buffer replays.  The flow
    attributes are read-only views over those rows.  The word counts
    are the traffic the compiler declared for the fold when it
    generated the flows; the checkers compare the tables against them.
    """

    phase: FoldPhase
    event: str
    tables: PatternTables = field(repr=False, compare=False)
    main: range
    weight_reads_at: int
    writes_at: int
    data: range
    weight: range
    read_words: int
    write_words: int
    replay_words: int

    @property
    def main_feature_reads(self) -> TableSlice:
        return TableSlice(self.tables.main,
                          range(self.main.start, self.weight_reads_at))

    @property
    def main_weight_reads(self) -> TableSlice:
        return TableSlice(self.tables.main,
                          range(self.weight_reads_at, self.writes_at))

    @property
    def main_writes(self) -> TableSlice:
        return TableSlice(self.tables.main,
                          range(self.writes_at, self.main.stop))

    @property
    def data_reads(self) -> TableSlice:
        return TableSlice(self.tables.data, self.data)

    @property
    def weight_reads(self) -> TableSlice:
        return TableSlice(self.tables.weight, self.weight)

    def dram_read_words(self) -> int:
        return self.read_words

    def dram_write_words(self) -> int:
        return self.write_words

    def buffer_read_words(self) -> int:
        return self.replay_words


def phase_event(phase: FoldPhase, layer_index: int) -> str:
    """The pre-defined trigger event name, e.g. ``layer0-fold0``."""
    return f"layer{layer_index}-fold{phase.phase_index}"


def _words(patterns: list[AccessPattern]) -> int:
    return sum(map(_footprint, patterns))


_footprint = attrgetter("footprint")


class _FoldFlows:
    """One fold's five flows while the generator builds them."""

    __slots__ = ("main_feature_reads", "main_weight_reads", "main_writes",
                 "data_reads", "weight_reads")

    def __init__(self) -> None:
        self.main_feature_reads: list[AccessPattern] = []
        self.main_weight_reads: list[AccessPattern] = []
        self.main_writes: list[AccessPattern] = []
        self.data_reads: list[AccessPattern] = []
        self.weight_reads: list[AccessPattern] = []


class AddressFlowGenerator:
    """Generates the address plans of every fold in a design."""

    def __init__(self, design: AcceleratorDesign, memory_map: MemoryMap) -> None:
        self.design = design
        self.memory_map = memory_map
        self.resolved = design.resolved
        self.shapes = design.resolved.shapes

    def plans(self) -> list[PhaseAddressPlan]:
        """One plan per fold, in fold order, over one fresh
        :class:`PatternTables` (every plan's ``tables``)."""
        tables = PatternTables()
        return [self._plan_phase(phase, tables)
                for phase in self.design.folding]

    # ------------------------------------------------------------------

    def _plan_phase(self, phase: FoldPhase,
                    tables: PatternTables) -> PhaseAddressPlan:
        spec = self.resolved.layer(phase.layer)
        event = phase_event(phase, self.resolved.ids[spec.name])
        flows = _FoldFlows()
        if spec.kind.is_convolution:
            self._conv_flows(spec, phase, event, flows)
        elif spec.kind in (LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                           LayerKind.ASSOCIATIVE):
            self._dense_flows(spec, phase, event, flows)
        else:
            self._streaming_flows(spec, phase, event, flows)
        main, data, weight = tables.main, tables.data, tables.weight
        main_start, data_start, weight_start = len(main), len(data), len(weight)
        main += flows.main_feature_reads
        weight_reads_at = len(main)
        main += flows.main_weight_reads
        writes_at = len(main)
        main += flows.main_writes
        data += flows.data_reads
        weight += flows.weight_reads
        return PhaseAddressPlan(
            phase=phase,
            event=event,
            tables=tables,
            main=range(main_start, len(main)),
            weight_reads_at=weight_reads_at,
            writes_at=writes_at,
            data=range(data_start, len(data)),
            weight=range(weight_start, len(weight)),
            read_words=(_words(flows.main_feature_reads)
                        + _words(flows.main_weight_reads)),
            write_words=_words(flows.main_writes),
            replay_words=(_words(flows.data_reads)
                          + _words(flows.weight_reads)),
        )

    # -- dense layers ---------------------------------------------------

    def _dense_flows(self, spec: LayerSpec, phase: FoldPhase, event: str,
                     flows: _FoldFlows) -> None:
        blob_in = spec.bottoms[0]
        blob_out = spec.tops[0]
        in_base = self.memory_map.feature_base(blob_in)
        weights = self.memory_map.weights(spec.name)

        depth = phase.in_count
        outputs = phase.out_count
        in_size = self.shapes[blob_in].size

        # Feature fetch: the contiguous input slice.  Recurrent state
        # (addresses past the input blob) lives in the output region and
        # is already on chip, so only the real-input part is fetched.
        fetch_depth = min(depth, max(0, in_size - phase.in_start))
        if fetch_depth > 0:
            flows.main_feature_reads.append(AccessPattern(
                start_address=in_base + phase.in_start,
                x_length=fetch_depth, event=event,
            ))
        # Weight fetch: a (outputs x depth) block, one row per output.
        flows.main_weight_reads.append(AccessPattern(
            start_address=weights.block_address(phase.out_start, phase.in_start),
            x_length=depth,
            y_length=outputs,
            offset=weights.depth,
            event=event,
        ))
        # Writeback of completed outputs (partial sums stay on chip).
        if not phase.partial:
            out_base = self.memory_map.feature_base(blob_out)
            flows.main_writes.append(AccessPattern(
                start_address=out_base + phase.out_start,
                x_length=outputs, event=event,
            ))
        # Data AGU: replay the input slice once per lane wave.
        lanes = self.design.datapath.lanes
        waves = -(-outputs // lanes)
        flows.data_reads.append(AccessPattern(
            start_address=0, x_length=depth, y_length=waves, offset=0,
            event=event,
        ))
        # Weight AGU: stream the block in consumption order.
        flows.weight_reads.append(AccessPattern(
            start_address=0, x_length=depth, y_length=outputs, offset=depth,
            event=event,
        ))

    # -- convolution layers ----------------------------------------------

    def _conv_flows(self, spec: LayerSpec, phase: FoldPhase, event: str,
                    flows: _FoldFlows) -> None:
        blob_in = spec.bottoms[0]
        blob_out = spec.tops[0]
        in_layout = self.memory_map.feature_layout(blob_in)
        in_base = self.memory_map.feature_base(blob_in)
        out_layout = self.memory_map.feature_layout(blob_out)
        out_base = self.memory_map.feature_base(blob_out)
        weights = self.memory_map.weights(spec.name)
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
        flows.main_feature_reads.append(AccessPattern(
            start_address=in_base + phase.in_ch_start * map_pitch + band_start,
            x_length=max(1, per_map_band),
            y_length=max(1, depth),
            offset=map_pitch,
            event=event,
        ))

        # Weight fetch: one row per output channel in the chunk; each
        # row's input-channel slice is contiguous (channel-major storage).
        slice_depth = depth * k * k
        flows.main_weight_reads.append(AccessPattern(
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
            flows.main_writes.append(AccessPattern(
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
        flows.data_reads.append(AccessPattern(
            start_address=0,
            x_length=window_words * max(1, depth),
            y_length=max(1, positions),
            offset=position_step,
            event=event,
        ))
        # Weight AGU: the kernel slice of each output channel streams once
        # per position wave (lanes cover the channel chunk in parallel).
        flows.weight_reads.append(AccessPattern(
            start_address=0,
            x_length=slice_depth,
            y_length=max(1, min(channels, self.design.datapath.lanes)),
            offset=slice_depth,
            event=event,
        ))

    # -- streaming layers -------------------------------------------------

    def _streaming_flows(self, spec: LayerSpec, phase: FoldPhase,
                         event: str, flows: _FoldFlows) -> None:
        if spec.kind is LayerKind.ELTWISE:
            # Every residual branch streams through in full; the fold's
            # input_words is the sum over all bottoms.
            for blob in spec.bottoms:
                words = self.shapes[blob].size
                flows.main_feature_reads.append(AccessPattern(
                    start_address=self.memory_map.feature_base(blob),
                    x_length=words, event=event,
                ))
                flows.data_reads.append(AccessPattern(
                    start_address=0, x_length=words, event=event,
                ))
        elif spec.bottoms:
            in_base = self.memory_map.feature_base(spec.bottoms[0])
            if phase.input_words:
                flows.main_feature_reads.append(AccessPattern(
                    start_address=in_base + phase.in_start,
                    x_length=phase.input_words, event=event,
                ))
                flows.data_reads.append(AccessPattern(
                    start_address=0, x_length=phase.input_words, event=event,
                ))
        if spec.tops and phase.output_words:
            out_base = self.memory_map.feature_base(spec.tops[0])
            flows.main_writes.append(AccessPattern(
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

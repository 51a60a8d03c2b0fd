"""Temporal and spatial folding.

"Temporal folding maps different layers into the common set of building
blocks, and spatial folding splits a single neural layer and lets the
segments share the building blocks at different time slots" (paper
§3.3).  This module computes the fold phases: how each layer is cut into
segments whose working sets fit the on-chip buffers.

Working sets are counted in *elements* (one feature or weight word of
datapath width); buffer capacities are per bank, since the second bank
is the double-buffering shadow.
"""

from __future__ import annotations

from repro.errors import ResourceError
from repro.frontend.layers import LayerKind, LayerSpec
from repro.frontend.resolver import ResolvedGraph
from repro.frontend.shapes import TensorShape, conv_groups
from repro.nngen.design import DatapathConfig, FoldPhase, FoldingPlan


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _conv_folds(
    spec: LayerSpec,
    in_shape: TensorShape,
    out_shape: TensorShape,
    config: DatapathConfig,
    feature_capacity: int,
    weight_capacity: int,
    phases: list[FoldPhase],
) -> None:
    cin = in_shape.channels // conv_groups(spec, in_shape.channels)
    k, stride = spec.kernel_size, spec.stride
    dout, out_h, out_w = out_shape.dims
    macs_per_output = k * k * cin

    # Input-channel folding: weights for one output channel must fit the
    # weight buffer, and a one-row input band of the channel slice (plus
    # one output row) must fit the feature buffer.
    def slice_feasible(depth: int) -> bool:
        one_row_in = depth * min(in_shape.height, k) * in_shape.width
        return (depth * k * k <= weight_capacity
                and one_row_in + out_w <= feature_capacity)

    in_chunks = 1
    while not slice_feasible(_ceil_div(cin, in_chunks)):
        in_chunks += 1
        if in_chunks > cin:
            raise ResourceError(
                f"layer '{spec.name}': a single-channel {k}x{k} kernel "
                f"slice does not fit the buffers (weight capacity "
                f"{weight_capacity}, feature capacity {feature_capacity})"
            )
    cin_chunk = _ceil_div(cin, in_chunks)

    # Output-channel chunking: as many channels as the weight buffer
    # allows, at least one, at most all; prefer multiples of the lanes.
    chunk_c = min(dout, max(1, weight_capacity // (cin_chunk * k * k)))
    if chunk_c > config.lanes:
        chunk_c = max(config.lanes, (chunk_c // config.lanes) * config.lanes)
    chunk_c = min(chunk_c, dout)

    # Spatial banding over output rows so input band + output band fit
    # the feature buffer bank.
    def band_fits(rows: int) -> bool:
        in_rows = min(in_shape.height, rows * stride + k - stride)
        input_band = cin_chunk * in_rows * in_shape.width
        output_band = chunk_c * rows * out_w
        return input_band + output_band <= feature_capacity

    band_rows = out_h
    while band_rows > 1 and not band_fits(band_rows):
        band_rows = _ceil_div(band_rows, 2)
    while not band_fits(band_rows) and chunk_c > 1:
        # A one-row band can still overflow through the output half when
        # many channels are computed together; shrink the channel chunk.
        chunk_c = _ceil_div(chunk_c, 2)
    if not band_fits(band_rows):
        raise ResourceError(
            f"layer '{spec.name}': even a one-row, one-channel band "
            f"overflows the feature buffer ({feature_capacity} words)"
        )

    phase_index = len(phases)
    for out_c in range(0, dout, chunk_c):
        channels = min(chunk_c, dout - out_c)
        for row in range(0, out_h, band_rows):
            rows = min(band_rows, out_h - row)
            in_rows = min(in_shape.height, rows * stride + k - stride)
            for in_c in range(0, cin, cin_chunk):
                depth = min(cin_chunk, cin - in_c)
                outputs = channels * rows * out_w
                phases.append(FoldPhase(
                    layer=spec.name,
                    kind=spec.kind,
                    phase_index=phase_index,
                    out_start=out_c * out_h * out_w + row * out_w,
                    out_count=outputs,
                    in_start=in_c,
                    in_count=depth * in_rows * in_shape.width,
                    macs=outputs * k * k * depth,
                    input_words=depth * in_rows * in_shape.width,
                    weight_words=channels * depth * k * k,
                    output_words=outputs,
                    macs_per_output=k * k * depth,
                    partial=in_c + depth < cin,
                    out_ch_start=out_c,
                    out_ch_count=channels,
                    row_start=row,
                    row_count=rows,
                    in_ch_start=in_c,
                    in_ch_count=depth,
                ))
                phase_index += 1


def _dense_folds(
    spec: LayerSpec,
    in_size: int,
    config: DatapathConfig,
    feature_capacity: int,
    weight_capacity: int,
    phases: list[FoldPhase],
) -> None:
    out_size = spec.num_output
    if spec.kind is LayerKind.RECURRENT:
        in_size = in_size + out_size  # state feedback concatenated

    # Fold inputs so one output neuron's weights and its inputs fit.
    in_chunks = 1
    while (_ceil_div(in_size, in_chunks) > weight_capacity
           or _ceil_div(in_size, in_chunks) + out_size > feature_capacity):
        in_chunks += 1
        if in_chunks > in_size:
            raise ResourceError(
                f"layer '{spec.name}': one input element plus outputs "
                f"overflow the buffers"
            )
    in_chunk = _ceil_div(in_size, in_chunks)

    # Fold outputs so the weight block (chunk_o x in_chunk) fits.
    chunk_o = min(out_size, max(1, weight_capacity // in_chunk))
    if chunk_o > config.lanes:
        chunk_o = max(config.lanes, (chunk_o // config.lanes) * config.lanes)

    phase_index = len(phases)
    for out_start in range(0, out_size, chunk_o):
        outputs = min(chunk_o, out_size - out_start)
        for in_start in range(0, in_size, in_chunk):
            depth = min(in_chunk, in_size - in_start)
            phases.append(FoldPhase(
                layer=spec.name,
                kind=spec.kind,
                phase_index=phase_index,
                out_start=out_start,
                out_count=outputs,
                in_start=in_start,
                in_count=depth,
                macs=outputs * depth,
                input_words=depth,
                weight_words=outputs * depth,
                output_words=outputs,
                macs_per_output=depth,
                partial=in_start + depth < in_size,
            ))
            phase_index += 1


def _pool_folds(
    spec: LayerSpec,
    in_shape: TensorShape,
    out_shape: TensorShape,
    feature_capacity: int,
    phases: list[FoldPhase],
) -> None:
    channels, out_h, out_w = out_shape.dims
    per_channel_in = in_shape.height * in_shape.width
    per_channel_out = out_h * out_w
    chunk_ch = min(
        channels,
        max(1, feature_capacity // max(1, per_channel_in + per_channel_out)),
    )
    if per_channel_in + per_channel_out > feature_capacity:
        raise ResourceError(
            f"layer '{spec.name}': one channel ({per_channel_in} inputs) "
            f"overflows the feature buffer"
        )
    phase_index = len(phases)
    for start in range(0, channels, chunk_ch):
        chans = min(chunk_ch, channels - start)
        outputs = chans * per_channel_out
        phases.append(FoldPhase(
            layer=spec.name,
            kind=spec.kind,
            phase_index=phase_index,
            out_start=start * per_channel_out,
            out_count=outputs,
            in_start=start * per_channel_in,
            in_count=chans * per_channel_in,
            macs=outputs * spec.kernel_size * spec.kernel_size,
            input_words=chans * per_channel_in,
            output_words=outputs,
            macs_per_output=spec.kernel_size * spec.kernel_size,
        ))
        phase_index += 1


def _elementwise_fold(
    spec: LayerSpec,
    in_size: int,
    out_size: int,
    ops_per_output: int,
    phases: list[FoldPhase],
) -> None:
    phases.append(FoldPhase(
        layer=spec.name,
        kind=spec.kind,
        phase_index=len(phases),
        out_start=0,
        out_count=out_size,
        in_count=in_size,
        macs=out_size * ops_per_output,
        input_words=in_size,
        output_words=out_size,
        macs_per_output=ops_per_output,
    ))


def build_folding_plan(
    resolved: ResolvedGraph,
    config: DatapathConfig,
    feature_capacity_words: int,
    weight_capacity_words: int,
) -> FoldingPlan:
    """Cut every layer into folds that fit the buffers.

    ``feature_capacity_words`` / ``weight_capacity_words`` are per-bank
    element capacities of the two on-chip buffers.
    """
    if feature_capacity_words < 1 or weight_capacity_words < 1:
        raise ResourceError("buffers must hold at least one word")
    shapes = resolved.shapes
    phases: list[FoldPhase] = []
    for spec in resolved.layers:
        if spec.kind is LayerKind.DATA:
            continue
        in_shape = shapes[spec.bottoms[0]]
        out_shape = shapes[spec.tops[0]] if spec.tops else in_shape
        if spec.kind.is_convolution:
            _conv_folds(spec, in_shape, out_shape, config,
                        feature_capacity_words, weight_capacity_words, phases)
        elif spec.kind in (LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                           LayerKind.ASSOCIATIVE):
            _dense_folds(spec, in_shape.size, config,
                         feature_capacity_words, weight_capacity_words, phases)
        elif spec.kind is LayerKind.POOLING:
            _pool_folds(spec, in_shape, out_shape,
                        feature_capacity_words, phases)
        elif spec.kind is LayerKind.LRN:
            _elementwise_fold(spec, in_shape.size, out_shape.size,
                              spec.local_size, phases)
        elif spec.kind is LayerKind.INCEPTION:
            # Modelled as a dense reduction over input channels per output.
            _elementwise_fold(spec, in_shape.size, out_shape.size,
                              in_shape.channels, phases)
        elif spec.kind is LayerKind.ELTWISE:
            # A residual add streams every branch through the
            # accumulators: the input working set is the sum of all
            # bottoms, one add per branch per output element.
            total_in = sum(shapes[b].size for b in spec.bottoms)
            _elementwise_fold(spec, total_in, out_shape.size,
                              len(spec.bottoms), phases)
        else:
            _elementwise_fold(spec, in_shape.size, out_shape.size, 1, phases)
    return FoldingPlan(phases=phases)

"""Blob shapes and the per-layer shape rules the resolver applies.

Shapes use the Caffe convention ``(channels, height, width)`` for spatial
blobs and ``(features,)`` for flat blobs; the batch dimension is implicit
(the accelerator processes one input at a time, as the paper's forward-
propagation experiments do).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShapeError
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind, LayerSpec


@dataclass(frozen=True)
class TensorShape:
    """Shape of one blob."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ShapeError("a tensor needs at least one dimension")
        if any(d <= 0 for d in self.dims):
            raise ShapeError(f"non-positive dimension in {self.dims}")

    @property
    def size(self) -> int:
        total = 1
        for d in self.dims:
            total *= d
        return total

    @property
    def is_spatial(self) -> bool:
        return len(self.dims) == 3

    @property
    def channels(self) -> int:
        return self.dims[0] if self.is_spatial else 1

    @property
    def height(self) -> int:
        return self.dims[1] if self.is_spatial else 1

    @property
    def width(self) -> int:
        return self.dims[2] if self.is_spatial else self.dims[0]

    def flat(self) -> "TensorShape":
        return TensorShape((self.size,))

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


def conv_output_hw(in_h: int, in_w: int, kernel: int, stride: int, pad: int) -> tuple[int, int]:
    """Output height/width of a convolution or pooling window sweep."""
    out_h = (in_h + 2 * pad - kernel) // stride + 1
    out_w = (in_w + 2 * pad - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {kernel} stride {stride} pad {pad} does not fit "
            f"input {in_h}x{in_w}"
        )
    return out_h, out_w


def _pool_output_hw(in_h: int, in_w: int, kernel: int, stride: int, pad: int) -> tuple[int, int]:
    """Pooling uses ceil division (Caffe semantics): partial windows count."""
    out_h = -(-(in_h + 2 * pad - kernel) // stride) + 1
    out_w = -(-(in_w + 2 * pad - kernel) // stride) + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"pool kernel {kernel} stride {stride} does not fit {in_h}x{in_w}"
        )
    return out_h, out_w


def conv_groups(spec: LayerSpec, in_channels: int) -> int:
    """Effective group count of a convolution-path layer.

    A depthwise convolution derives its group count from the input: one
    group per input channel, with ``num_output`` an integer multiple of
    the channel count (the channel multiplier).  Ordinary convolutions
    use the explicit ``group`` field.
    """
    if spec.kind is LayerKind.DEPTHWISE_CONVOLUTION:
        if spec.num_output % in_channels != 0:
            raise ShapeError(
                f"depthwise convolution '{spec.name}': num_output "
                f"{spec.num_output} is not an integer multiple of the "
                f"{in_channels} input channels"
            )
        return in_channels
    if spec.group <= 0 or in_channels % spec.group != 0:
        raise ShapeError(
            f"convolution '{spec.name}': group {spec.group} does not divide "
            f"the {in_channels} input channels"
        )
    return spec.group


def infer_layer(spec: LayerSpec, inputs: list[TensorShape]) -> TensorShape:
    """One layer's output shape; raises :class:`ShapeError` naming it."""
    kind = spec.kind
    if kind is LayerKind.DATA:
        if not spec.input_shape:
            raise ShapeError(f"data layer '{spec.name}' has no shape")
        return TensorShape(tuple(spec.input_shape))
    if not inputs:
        raise ShapeError(f"layer '{spec.name}' has no input shape")
    first = inputs[0]

    if kind.is_convolution:
        if not first.is_spatial:
            raise ShapeError(
                f"convolution '{spec.name}' needs a CxHxW input, got {first}"
            )
        conv_groups(spec, first.channels)  # validates group/multiplier
        out_h, out_w = conv_output_hw(
            first.height, first.width, spec.kernel_size, spec.stride, spec.pad
        )
        return TensorShape((spec.num_output, out_h, out_w))

    if kind is LayerKind.POOLING:
        if not first.is_spatial:
            raise ShapeError(f"pooling '{spec.name}' needs a CxHxW input")
        out_h, out_w = _pool_output_hw(
            first.height, first.width, spec.kernel_size, spec.stride, spec.pad
        )
        return TensorShape((first.channels, out_h, out_w))

    if kind in (LayerKind.INNER_PRODUCT, LayerKind.RECURRENT, LayerKind.ASSOCIATIVE):
        return TensorShape((spec.num_output,)) if spec.num_output else first.flat()

    if kind.is_activation or kind in (LayerKind.LRN, LayerKind.DROPOUT):
        return first

    if kind is LayerKind.SOFTMAX:
        return first.flat()

    if kind is LayerKind.CLASSIFIER:
        if spec.top_k > first.size:
            raise ShapeError(
                f"classifier '{spec.name}': top_k {spec.top_k} exceeds its "
                f"{first.size} input features"
            )
        return TensorShape((spec.top_k,))

    if kind is LayerKind.CONCAT:
        if all(s.is_spatial for s in inputs):
            heights = {s.height for s in inputs}
            widths = {s.width for s in inputs}
            if len(heights) != 1 or len(widths) != 1:
                raise ShapeError(
                    f"concat '{spec.name}' inputs differ spatially: "
                    f"{[str(s) for s in inputs]}"
                )
            return TensorShape(
                (sum(s.channels for s in inputs), inputs[0].height, inputs[0].width)
            )
        return TensorShape((sum(s.size for s in inputs),))

    if kind is LayerKind.ELTWISE:
        if len(inputs) < 2:
            raise ShapeError(
                f"eltwise '{spec.name}' needs at least two inputs, "
                f"got {len(inputs)}"
            )
        distinct = {s.dims for s in inputs}
        if len(distinct) != 1:
            raise ShapeError(
                f"eltwise '{spec.name}' inputs differ in shape: "
                f"{[str(s) for s in inputs]}"
            )
        return inputs[0]

    if kind is LayerKind.INCEPTION:
        # An inception block keeps spatial size and concatenates branch
        # channels; num_output gives the total output channel count.
        if not first.is_spatial:
            raise ShapeError(f"inception '{spec.name}' needs a CxHxW input")
        channels = spec.num_output or first.channels
        return TensorShape((channels, first.height, first.width))

    raise ShapeError(f"no shape rule for layer kind {kind}")


def infer_shapes(graph: NetworkGraph) -> dict[str, TensorShape]:
    """Infer the shape of every blob; returns ``blob name -> shape``."""
    from repro.frontend.resolver import resolve
    return resolve(graph).shapes


def weight_shape(spec: LayerSpec, input_shape: TensorShape) -> tuple[int, ...]:
    """Shape of the weight tensor a weighted layer needs."""
    if spec.kind.is_convolution:
        groups = conv_groups(spec, input_shape.channels)
        return (
            spec.num_output,
            input_shape.channels // groups,
            spec.kernel_size,
            spec.kernel_size,
        )
    if spec.kind in (LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                     LayerKind.ASSOCIATIVE):
        return (spec.num_output, input_shape.size)
    raise ShapeError(f"layer '{spec.name}' ({spec.kind}) has no weights")


def macs_for_layer(spec: LayerSpec, input_shape: TensorShape,
                   output_shape: TensorShape) -> int:
    """Multiply-accumulate count of one forward pass through the layer."""
    if spec.kind.is_convolution:
        groups = conv_groups(spec, input_shape.channels)
        per_pixel = spec.kernel_size ** 2 * (input_shape.channels // groups)
        return per_pixel * output_shape.size
    if spec.kind in (LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
                     LayerKind.ASSOCIATIVE):
        macs = input_shape.size * spec.num_output
        if spec.kind is LayerKind.RECURRENT:
            macs += spec.num_output * spec.num_output  # state feedback matrix
        return macs
    if spec.kind is LayerKind.POOLING:
        return output_shape.size * spec.kernel_size ** 2
    if spec.kind is LayerKind.LRN:
        return input_shape.size * spec.local_size
    if spec.kind.is_activation or spec.kind in (
        LayerKind.DROPOUT, LayerKind.SOFTMAX, LayerKind.CLASSIFIER,
        LayerKind.CONCAT, LayerKind.ELTWISE, LayerKind.DATA,
    ):
        return input_shape.size if spec.bottoms else 0
    if spec.kind is LayerKind.INCEPTION:
        return output_shape.size * input_shape.channels
    return 0

"""Bit-level functional execution of the generated accelerator.

Computes exactly what the fixed-point datapath computes: features and
weights quantized to their compiled formats, dot products accumulated in
wide integers, the connection box's shifting latch for power-of-two
division, the Approx LUT for sigmoid/tanh/LRN scaling.  Output deviation
from the float :class:`~repro.nn.reference.ReferenceNetwork` is the
accuracy loss Fig. 10 measures.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import InitVar, dataclass, field

import numpy as np

from repro.compiler.lut import ApproxLUTContent, build_lut, \
    lut_range_for_activation
from repro.compiler.program import ControlProgram
from repro.errors import SimulationError
from repro.fixedpoint.format import QFormat
from repro.fixedpoint.ops import (
    accumulator_format,
    dequantize,
    float_gemm_exact,
    quantize_to_ints,
    requantize,
    row_blocks,
)
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind, LayerSpec, PoolMethod
from repro.frontend.resolver import ResolvedGraph, resolve
from repro.frontend.shapes import conv_groups
from repro.nn import functional as F
from repro.sim.plan import ExecutionPlan


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


@dataclass
class QuantizedExecutor:
    """Executes a network in the accelerator's fixed-point arithmetic."""

    graph: NetworkGraph
    weights: Mapping[str, dict[str, np.ndarray]]
    blob_formats: dict[str, QFormat]
    weight_format: QFormat
    luts: dict[str, ApproxLUTContent] = field(default_factory=dict)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    #: Integer weights in the :meth:`quantize_layer_weights` form, of any
    #: integer dtype: :meth:`from_program` passes views of the program's
    #: DRAM image.  ``None`` quantizes ``weights`` here.
    quantized_weights: dict[str, dict[str, np.ndarray]] | None = None
    #: ``graph`` already resolved, if the caller holds it.
    lowered: InitVar[ResolvedGraph | None] = None
    resolved: ResolvedGraph = field(init=False, repr=False)

    def __post_init__(self, lowered: ResolvedGraph | None) -> None:
        self.resolved = lowered or resolve(self.graph)
        for blob in self.resolved.shapes:
            if blob not in self.blob_formats:
                raise SimulationError(f"no fixed-point format for blob '{blob}'")
        if self.quantized_weights is None:
            self.quantized_weights = self.quantize_layer_weights(
                self.graph, self.weights, self.weight_format)
        self._plan: ExecutionPlan | None = None

    @staticmethod
    def quantize_layer_weights(
        graph: NetworkGraph,
        weights: Mapping[str, dict[str, np.ndarray]],
        weight_format: QFormat,
    ) -> dict[str, dict[str, np.ndarray]]:
        """Quantize every weighted layer's parameters to integers.

        Used only by an executor constructed directly from float
        weights; a compiled program's executor reads the DRAM image.
        """
        quantized: dict[str, dict[str, np.ndarray]] = {}
        for spec in graph.weighted_layers():
            if spec.name not in weights:
                raise SimulationError(f"no weights for layer '{spec.name}'")
            entry = weights[spec.name]
            cooked = {
                "weight": quantize_to_ints(entry["weight"], weight_format),
            }
            if "bias" in entry:
                cooked["bias"] = quantize_to_ints(entry["bias"],
                                                  weight_format)
            if "recurrent_weight" in entry:
                cooked["recurrent_weight"] = quantize_to_ints(
                    entry["recurrent_weight"], weight_format)
            quantized[spec.name] = cooked
        return quantized

    @staticmethod
    def from_program(
        program: ControlProgram,
        weights: Mapping[str, dict[str, np.ndarray]],
    ) -> "QuantizedExecutor":
        """The executor of a compiled program.

        Its integer weights are views of ``program.dram_image``, the
        quantized weights the accelerator reads; only a program compiled
        without weights (no image) has ``weights`` quantized here.
        """
        views = None
        if program.dram_image is not None:
            views = program.weight_views()
        return QuantizedExecutor(
            graph=program.design.graph,
            lowered=program.design.resolved,
            weights=weights,
            blob_formats=dict(program.blob_formats),
            weight_format=program.weight_format
            or program.design.datapath.weight_format,
            luts=dict(program.luts),
            quantized_weights=views,
        )

    def reset_state(self) -> None:
        self.state.clear()

    def plan(self) -> ExecutionPlan:
        """The per-design execution plan, built once and reused.

        Holds every input-independent piece of a forward pass (packed
        weight matrices, im2col gather indices, resolved accumulator
        formats, LUT contents) so :meth:`forward_batch` replays it per
        request instead of re-deriving it.
        """
        if self._plan is None:
            self._plan = ExecutionPlan.build(
                self.resolved,
                self.quantized_weights,
                self.blob_formats,
                self.weight_format,
                self._lut,
            )
        return self._plan

    # ------------------------------------------------------------------

    def forward_raw(self, inputs: np.ndarray) -> dict[str, np.ndarray]:
        """Forward propagation; returns raw integer blobs."""
        data_layers = self.graph.inputs()
        if len(data_layers) != 1:
            raise SimulationError("quantized executor expects a single input")
        input_blob = data_layers[0].tops[0]
        expected = self.resolved.shapes[input_blob]
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.shape != expected.dims:
            if inputs.size != expected.size:
                raise SimulationError(
                    f"input has shape {inputs.shape}, expected {expected.dims}"
                )
            inputs = inputs.reshape(expected.dims)
        blobs: dict[str, np.ndarray] = {
            input_blob: quantize_to_ints(inputs, self.blob_formats[input_blob])
        }
        for spec in self.resolved.layers:
            if spec.kind is LayerKind.DATA:
                continue
            raw_inputs = [blobs[b] for b in spec.bottoms]
            in_fmts = [self.blob_formats[b] for b in spec.bottoms]
            out_fmt = self.blob_formats[spec.tops[0]] if spec.tops else in_fmts[0]
            result = self._run_layer(spec, raw_inputs, in_fmts, out_fmt)
            for top in spec.tops:
                blobs[top] = result
        return blobs

    def forward(self, inputs: np.ndarray, *,
                all_blobs: bool = False) -> dict[str, np.ndarray]:
        """Forward propagation; returns real-valued blobs.

        Dequantization is lazy: by default only the network's output
        blob is converted back to real values (the only blob a serving
        caller consumes); ``all_blobs=True`` dequantizes every
        intermediate blob for inspection.
        """
        return self._dequantized(self.forward_raw(inputs), all_blobs)

    def output(self, inputs: np.ndarray) -> np.ndarray:
        blobs = self.forward(inputs)
        return blobs[self.resolved.output]

    # ------------------------------------------------------------------

    def stack_batch(self, batch: "list[np.ndarray] | np.ndarray") -> np.ndarray:
        """Validate and stack a request batch into one ``(N, ...)`` array."""
        data_layers = self.graph.inputs()
        if len(data_layers) != 1:
            raise SimulationError("quantized executor expects a single input")
        expected = self.resolved.shapes[data_layers[0].tops[0]]
        if isinstance(batch, np.ndarray) and batch.ndim and \
                batch.shape[1:] == expected.dims:
            return np.asarray(batch, dtype=np.float64)
        stacked = np.empty((len(batch),) + expected.dims, dtype=np.float64)
        for index, inputs in enumerate(batch):
            inputs = np.asarray(inputs, dtype=np.float64)
            if inputs.shape != expected.dims:
                if inputs.size != expected.size:
                    raise SimulationError(
                        f"batch item {index} has shape {inputs.shape}, "
                        f"expected {expected.dims}"
                    )
                inputs = inputs.reshape(expected.dims)
            stacked[index] = inputs
        return stacked

    def forward_batch_raw(
            self, batch: "list[np.ndarray] | np.ndarray", *,
            keep: str = "all") -> dict[str, np.ndarray]:
        """Vectorized forward propagation over a batch of inputs.

        ``batch`` is a list of per-request tensors or one stacked
        ``(N, ...)`` array.  Returns raw integer blobs with a leading
        batch axis, integer-exact against ``N`` independent
        :meth:`forward_raw` calls.  ``keep="output"`` returns only the
        network output blob, which lets the plan drop every
        intermediate after its last reader (the serving hot path).
        Recurrent state entries written by this path carry the batch
        dimension; call :meth:`reset_state` between batches (the
        simulator does) so every request starts from clean state.
        """
        return self.plan().forward_batch_raw(self.stack_batch(batch),
                                             self.state, keep=keep)

    def forward_batch(self, batch: "list[np.ndarray] | np.ndarray", *,
                      all_blobs: bool = False) -> dict[str, np.ndarray]:
        """Batched forward propagation; lazily dequantized blobs."""
        keep = "all" if all_blobs else "output"
        return self._dequantized(self.forward_batch_raw(batch, keep=keep),
                                 all_blobs)

    def _dequantized(self, raw: dict[str, np.ndarray],
                     all_blobs: bool) -> dict[str, np.ndarray]:
        if all_blobs:
            return {
                blob: dequantize(values, self.blob_formats[blob])
                for blob, values in raw.items()
            }
        output_blob = self.resolved.output
        return {
            output_blob: dequantize(raw[output_blob],
                                    self.blob_formats[output_blob])
        }

    # ------------------------------------------------------------------

    def _lut(self, function: str, fmt: QFormat) -> ApproxLUTContent:
        if function not in self.luts:
            if function == "reciprocal_power":
                low, high = 0.0, float(fmt.max_value)
            else:
                low, high = lut_range_for_activation(function)
            self.luts[function] = build_lut(function, low, high, 256,
                                            value_format=fmt)
        return self.luts[function]

    def _gemm_dtype(self, reduce_dim: int, in_fmt: QFormat) -> type:
        """float64 when :func:`~repro.fixedpoint.ops.float_gemm_exact`
        proves a ``reduce_dim``-long dot product exact in it (the GEMM
        then runs on BLAS), else int64 — the execution plan packs its
        weights by the same predicate."""
        if float_gemm_exact(reduce_dim, in_fmt, self.weight_format):
            return np.float64
        return np.int64

    def _mac_layer(self, raw: np.ndarray, in_fmt: QFormat, out_fmt: QFormat,
                   weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
        """Dot products in exact integer arithmetic, then requantize.

        The weights widen to the GEMM dtype (:meth:`_gemm_dtype`) a block
        of rows at a time; every partial sum is an exact integer, so
        neither blocking nor the dtype changes the result.
        """
        acc_fmt = accumulator_format(in_fmt, self.weight_format)
        dtype = self._gemm_dtype(weight.shape[1], in_fmt)
        x = np.ravel(raw).astype(dtype)
        acc = np.empty(weight.shape[0], dtype=np.int64)
        for rows in row_blocks(weight):
            acc[rows] = weight[rows].astype(dtype) @ x
        if bias is not None:
            bias_shift = acc_fmt.fraction_bits - self.weight_format.fraction_bits
            acc = acc + (bias.astype(np.int64) << np.int64(bias_shift))
        return requantize(acc, acc_fmt, out_fmt)

    def _run_layer(self, spec: LayerSpec, raw_inputs: list[np.ndarray],
                   in_fmts: list[QFormat], out_fmt: QFormat) -> np.ndarray:
        kind = spec.kind
        first = raw_inputs[0] if raw_inputs else None
        first_fmt = in_fmts[0] if in_fmts else out_fmt
        params = self.quantized_weights.get(spec.name, {})

        if kind.is_convolution:
            return self._conv(spec, first, first_fmt, out_fmt, params)
        if kind is LayerKind.INNER_PRODUCT or kind is LayerKind.ASSOCIATIVE:
            return self._mac_layer(first, first_fmt, out_fmt,
                                   params["weight"].reshape(spec.num_output, -1),
                                   params.get("bias"))
        if kind is LayerKind.RECURRENT:
            drive = self._mac_layer(first, first_fmt, out_fmt,
                                    params["weight"].reshape(spec.num_output, -1),
                                    params.get("bias"))
            previous = self.state.get(spec.name)
            if previous is not None:
                feedback = self._mac_layer(previous, out_fmt, out_fmt,
                                           params["recurrent_weight"], None)
                drive = np.clip(drive + feedback, out_fmt.min_int,
                                out_fmt.max_int)
            self.state[spec.name] = drive
            return drive
        if kind is LayerKind.POOLING:
            return self._pool(spec, first, first_fmt, out_fmt)
        if kind is LayerKind.RELU:
            out = np.maximum(first, 0)
            return requantize(out, first_fmt, out_fmt)
        if kind in (LayerKind.SIGMOID, LayerKind.TANH):
            function = "sigmoid" if kind is LayerKind.SIGMOID else "tanh"
            lut = self._lut(function, out_fmt)
            values = lut.evaluate(dequantize(first, first_fmt))
            return quantize_to_ints(values, out_fmt)
        if kind is LayerKind.LRN:
            return self._lrn(spec, first, first_fmt, out_fmt)
        if kind is LayerKind.DROPOUT:
            return requantize(first, first_fmt, out_fmt)
        if kind is LayerKind.SOFTMAX:
            # The classifier block consumes raw scores; the normalised
            # probabilities are produced host-side from the same scores.
            probabilities = F.softmax(dequantize(first, first_fmt))
            return quantize_to_ints(probabilities, out_fmt)
        if kind is LayerKind.CLASSIFIER:
            order = F.argmax_classifier(first, spec.top_k)
            return order.astype(np.int64)
        if kind is LayerKind.CONCAT:
            aligned = [requantize(raw, fmt, out_fmt)
                       for raw, fmt in zip(raw_inputs, in_fmts)]
            if all(a.ndim == 3 for a in aligned):
                return np.concatenate(aligned, axis=0)
            return np.concatenate([np.ravel(a) for a in aligned])
        if kind is LayerKind.ELTWISE:
            # Residual add: requantize each branch to the output format,
            # then saturating integer sum — same arithmetic as the
            # recurrent feedback path through the accumulator array.
            aligned = [requantize(raw, fmt, out_fmt).astype(np.int64)
                       for raw, fmt in zip(raw_inputs, in_fmts)]
            total = aligned[0]
            for other in aligned[1:]:
                total = np.clip(total + other, out_fmt.min_int,
                                out_fmt.max_int)
            return total
        raise SimulationError(f"quantized execution has no rule for {kind}")

    def _conv(self, spec, raw, in_fmt, out_fmt, params):
        weight = params["weight"]
        dout = weight.shape[0]
        acc_fmt = accumulator_format(in_fmt, self.weight_format)
        bias = params.get("bias")
        groups = conv_groups(spec, raw.shape[0])
        cin_per_group = raw.shape[0] // groups
        dout_per_group = dout // groups
        dtype = self._gemm_dtype(weight.size // dout, in_fmt)
        group_outputs = []
        for g in range(groups):
            image = raw[g * cin_per_group:(g + 1) * cin_per_group]
            kernels = weight[g * dout_per_group:(g + 1) * dout_per_group
                             ].reshape(dout_per_group, -1)
            columns = F.im2col(image.astype(dtype), spec.kernel_size,
                               spec.stride, spec.pad)
            acc = np.empty((columns.shape[0], dout_per_group),
                           dtype=np.int64)
            for rows in row_blocks(kernels):
                acc[:, rows] = columns @ kernels[rows].T.astype(dtype)
            if bias is not None:
                shift = acc_fmt.fraction_bits - self.weight_format.fraction_bits
                group_bias = bias[g * dout_per_group:(g + 1) * dout_per_group]
                acc = acc + (group_bias.astype(np.int64) << np.int64(shift))
            out_h = (raw.shape[1] + 2 * spec.pad
                     - spec.kernel_size) // spec.stride + 1
            out_w = (raw.shape[2] + 2 * spec.pad
                     - spec.kernel_size) // spec.stride + 1
            group_outputs.append(acc.T.reshape(dout_per_group, out_h, out_w))
        acc = np.concatenate(group_outputs, axis=0)
        return requantize(acc, acc_fmt, out_fmt)

    def _pool(self, spec, raw, in_fmt, out_fmt):
        if spec.pool_method is PoolMethod.MAX:
            pooled = F.max_pool2d(raw.astype(np.int64), spec.kernel_size,
                                  spec.stride, spec.pad).astype(np.int64)
            return requantize(pooled, in_fmt, out_fmt)
        # Average pooling: accumulate, then divide.  A power-of-two window
        # uses the connection box's shifting latch exactly; other windows
        # multiply by a Q0.15 reciprocal constant.
        windows, _, _ = F._pool_windows(raw.astype(np.int64),
                                        spec.kernel_size, spec.stride,
                                        spec.pad)
        sums = windows.sum(axis=(3, 4)).astype(np.int64)
        area = spec.kernel_size * spec.kernel_size
        if _is_power_of_two(area):
            shift = area.bit_length() - 1
            averaged = (sums + (1 << (shift - 1))) >> np.int64(shift)
        else:
            reciprocal = int(round((1 << 15) / area))
            averaged = (sums * reciprocal + (1 << 14)) >> np.int64(15)
        return requantize(averaged.astype(np.int64), in_fmt, out_fmt)

    def _lrn(self, spec, raw, in_fmt, out_fmt):
        lut = self._lut("reciprocal_power", in_fmt)
        values = dequantize(raw, in_fmt)
        channels = values.shape[0]
        half = spec.local_size // 2
        squared = values ** 2
        scale_arg = np.zeros_like(values)
        for c in range(channels):
            lo, hi = max(0, c - half), min(channels, c + half + 1)
            scale_arg[c] = (spec.alpha / spec.local_size) * squared[lo:hi].sum(axis=0)
        scale = lut.evaluate(scale_arg)
        return quantize_to_ints(values * scale, out_fmt)

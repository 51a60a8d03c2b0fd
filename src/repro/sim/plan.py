"""Per-design execution plan: the batched bit-level hot path.

A :class:`ExecutionPlan` is everything about one compiled design that a
forward propagation needs but that does not depend on the input: packed
``(Dout, Cin*k*k)`` weight matrices, each stored once in the dtype its
GEMM runs in, precomputed im2col gather-index tensors per convolution
layer, pre-resolved wide accumulator formats with the bias already
shifted into them, and the shared Approx-LUT contents.  It is built
once per design — a served model packs one and shares it across its
worker sessions — and replayed for every request.

:meth:`ExecutionPlan.forward_batch_raw` vectorizes every layer kernel
over a leading batch axis ``N``: a micro-batch of requests costs one
fancy-index plus one GEMM per convolution instead of ``N`` of each.  The
arithmetic is integer-exact against the per-sample reference path in
:mod:`repro.sim.quantized` — every blob it produces equals the
corresponding :meth:`~repro.sim.quantized.QuantizedExecutor.forward_raw`
blob with a leading batch dimension, which the test suite asserts
network by network.

Every choice is settled once, when the plan is built, mirroring how
NN-Gen folds layer groups onto one datapath so data streams through
conv→activation→pool without round-tripping to memory:

* **Epilogue fusion** — each requantize / activation / dropout /
  pooling / LRN step with a single producer whose output nobody else
  reads is chained onto that producer into one node;
  same-shape epilogues then run in place on the producer's buffer, so
  the intermediate value is never materialized as its own allocation.
* **Serial node order** — nodes run one after another, in list order,
  on the calling thread, like the accelerator's fold phases on its one
  shared datapath.  Serving runs in parallel across worker sessions,
  each flushing on its own thread, not inside a GEMM: the GEMMs are
  small, and a multi-threaded BLAS spends several times the CPU per
  flush waking its thread pool, so serve with one BLAS thread.
* **Liveness-dropped buffers** — every value's last reader node is
  precomputed at build time; on the ``keep="output"`` serving path the
  flush drops its reference to each value right after that node, so
  numpy frees the buffer as soon as the serial order is done with it.

There is one kernel per layer kind, and each allocates with plain
numpy.  The MAC kernels requantize their ``int64`` accumulator in place
and return it.  A gathered convolution gathers and GEMMs a bounded
block of samples at a time (about ``ROW_BLOCK_ELEMENTS`` im2col
elements, see :mod:`repro.fixedpoint.ops`), the way NN-Gen tiles a
layer to fit its on-chip buffer, so a large batch never materializes one
multi-megabyte columns tensor.  A plan holds no per-flush mutable
state: concurrent flushes may share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, cast

import numpy as np
import numpy.typing as npt

from repro.compiler.lut import ApproxLUTContent
from repro.errors import SimulationError
from repro.fixedpoint.format import QFormat
from repro.fixedpoint.ops import (
    ROW_BLOCK_ELEMENTS,
    accumulator_format,
    dequantize,
    float_gemm_exact,
    quantize_to_ints,
    requantize,
)
from repro.frontend.layers import LayerKind, LayerSpec, PoolMethod
from repro.frontend.resolver import ResolvedGraph
from repro.frontend.shapes import conv_groups
from repro.nn import functional as F

IntArray = npt.NDArray[np.int64]
AnyArray = npt.NDArray[Any]

#: Step kinds that may be folded onto their producer as an epilogue.
_EPILOGUE_KINDS = frozenset({
    LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH, LayerKind.DROPOUT,
    LayerKind.POOLING, LayerKind.LRN,
})
#: Epilogues whose output has the producer's shape, so they can run in
#: place on the producer's buffer.
_INPLACE_KINDS = frozenset({
    LayerKind.RELU, LayerKind.SIGMOID, LayerKind.TANH, LayerKind.DROPOUT,
})
#: Step kinds whose results escape the flush (recurrent state persists
#: across calls; classifier indices go straight to the caller), so no
#: epilogue may overwrite them in place.
_ESCAPING_KINDS = frozenset({LayerKind.RECURRENT, LayerKind.CLASSIFIER})


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _pack(weight: AnyArray, in_fmt: QFormat,
          weight_fmt: QFormat) -> AnyArray:
    """``weight`` ``(Out, In)`` packed for ``columns @ pack``.

    The pack is the transposed view of a C-contiguous ``(Out, In)`` copy
    — the F-contiguous right-hand side numpy's matmul kernels want
    (contiguous along the reduction axis) — in the dtype the GEMM runs
    in: float64 when :func:`~repro.fixedpoint.ops.float_gemm_exact`
    holds, else int64.
    """
    exact = float_gemm_exact(weight.shape[1], in_fmt, weight_fmt)
    dtype = np.float64 if exact else np.int64
    return cast(AnyArray, np.ascontiguousarray(weight, dtype=dtype).T)


def _bias_in_accumulator(bias: AnyArray | None, acc_fmt: QFormat,
                         weight_fmt: QFormat) -> IntArray | None:
    """The bias pre-shifted into the accumulator's fraction field."""
    if bias is None:
        return None
    shift = acc_fmt.fraction_bits - weight_fmt.fraction_bits
    return cast(IntArray, bias.astype(np.int64) << np.int64(shift))


@dataclass
class LayerStep:
    """One layer of the plan: spec plus its input-independent pieces."""

    spec: LayerSpec
    in_fmts: list[QFormat]
    out_fmt: QFormat
    #: Wide accumulator format for MAC layers (conv / FC / recurrent).
    acc_fmt: QFormat | None = None
    #: Packed weights (see :func:`_pack`), transposed for
    #: ``columns @ weight``: one ``(Cin/g*k*k, Dout/g)`` matrix per
    #: convolution group, or a single ``(In, Out)`` matrix for dense
    #: layers; float64 when the GEMM provably fits the 53-bit mantissa,
    #: int64 otherwise.
    weights: list[AnyArray] = field(default_factory=list)
    #: Bias already shifted into ``acc_fmt`` (full ``Dout`` vector).
    bias_acc: IntArray | None = None
    #: Packed recurrent weight ``(Out, Out)`` for the feedback MAC.
    recurrent_t: AnyArray | None = None
    recurrent_acc_fmt: QFormat | None = None
    #: im2col gather indices ``(out_h*out_w, Cin/g*k*k)`` into one
    #: group's zero-padded flattened image.
    gather: IntArray | None = None
    out_h: int = 0
    out_w: int = 0
    #: Shared Approx-LUT content for sigmoid/tanh/LRN scaling.
    lut: ApproxLUTContent | None = None
    #: SSA value ids of the resolved graph: one per bottom, and the
    #: result's (its layer id).  Caffe-style in-place layers reuse blob
    #: names, so liveness and scheduling run on value ids, never names.
    in_vids: tuple[int, ...] = ()
    out_vid: int = -1
    # --- filled in by the plan optimizer ---------------------------------
    #: Whether this step was folded onto its producer as an epilogue.
    fused: bool = False
    #: Whether the step may overwrite its (single) input buffer in
    #: output-retention mode.
    inplace: bool = False


@dataclass
class ExecutionPlan:
    """Input-independent execution state for one compiled design."""

    input_fmt: QFormat
    input_dims: tuple[int, ...]
    output_blob: str
    steps: list[LayerStep]
    blob_formats: dict[str, QFormat]
    #: Value ids are resolved-graph layer ids; the quantized input is
    #: its data layer's value, and ``final_vids`` (blob -> last write)
    #: is what a keep-all flush returns.
    n_values: int
    input_vid: int
    final_vids: dict[str, int]
    output_vid: int
    # --- built by _analyze -----------------------------------------------
    #: Execution order: one node per fusion chain (an anchor step index
    #: plus its fused epilogues), topologically ordered.
    nodes: list[list[int]] = field(default_factory=list)
    #: Per node: the vids whose references an output-retention flush
    #: drops after it (each value's last reader node, or its writer's
    #: if nothing reads it); the network output is never dropped.
    drop_after_node: list[list[int]] = field(default_factory=list)
    fused_steps: int = 0

    # ------------------------------------------------------------------
    # Construction

    @staticmethod
    def build(
        resolved: ResolvedGraph,
        quantized_weights: dict[str, dict[str, AnyArray]],
        blob_formats: dict[str, QFormat],
        weight_format: QFormat,
        lut_for: Callable[[str, QFormat], ApproxLUTContent],
    ) -> "ExecutionPlan":
        data_layers = resolved.graph.inputs()
        if len(data_layers) != 1:
            raise SimulationError("execution plan expects a single input")
        input_blob = data_layers[0].tops[0]
        output_blob = resolved.output
        steps: list[LayerStep] = []
        for layer_id, spec in enumerate(resolved.layers):
            if spec.kind is LayerKind.DATA:
                continue
            in_fmts = [blob_formats[b] for b in spec.bottoms]
            out_fmt = blob_formats[spec.tops[0]] if spec.tops else in_fmts[0]
            step = LayerStep(spec=spec, in_fmts=in_fmts, out_fmt=out_fmt,
                             in_vids=resolved.reads[layer_id], out_vid=layer_id)
            params = quantized_weights.get(spec.name, {})
            kind = spec.kind
            if kind.is_convolution:
                ExecutionPlan._plan_conv(
                    step, resolved.shapes[spec.bottoms[0]].dims, params,
                    weight_format)
            elif kind in (LayerKind.INNER_PRODUCT, LayerKind.ASSOCIATIVE,
                          LayerKind.RECURRENT):
                step.acc_fmt = accumulator_format(in_fmts[0], weight_format)
                weight = params["weight"].reshape(spec.num_output, -1)
                step.weights = [_pack(weight, in_fmts[0], weight_format)]
                step.bias_acc = _bias_in_accumulator(
                    params.get("bias"), step.acc_fmt, weight_format)
                if kind is LayerKind.RECURRENT:
                    step.recurrent_t = _pack(params["recurrent_weight"],
                                             out_fmt, weight_format)
                    step.recurrent_acc_fmt = accumulator_format(
                        out_fmt, weight_format)
            elif kind in (LayerKind.SIGMOID, LayerKind.TANH):
                function = "sigmoid" if kind is LayerKind.SIGMOID else "tanh"
                step.lut = lut_for(function, out_fmt)
            elif kind is LayerKind.LRN:
                step.lut = lut_for("reciprocal_power", in_fmts[0])
            steps.append(step)
        plan = ExecutionPlan(
            input_fmt=blob_formats[input_blob],
            input_dims=resolved.shapes[input_blob].dims,
            output_blob=output_blob,
            steps=steps,
            blob_formats=blob_formats,
            n_values=len(resolved.layers),
            input_vid=resolved.ids[data_layers[0].name],
            final_vids=resolved.final,
            output_vid=resolved.final[output_blob],
        )
        plan._analyze()
        return plan

    @staticmethod
    def _plan_conv(step: LayerStep, in_dims: tuple[int, ...],
                   params: dict[str, AnyArray],
                   weight_format: QFormat) -> None:
        spec = step.spec
        weight = params["weight"]
        dout = weight.shape[0]
        groups = conv_groups(spec, in_dims[0])
        cin_per_group = in_dims[0] // groups
        dout_per_group = dout // groups
        step.acc_fmt = accumulator_format(step.in_fmts[0], weight_format)
        step.weights = [
            _pack(weight[g * dout_per_group:(g + 1) * dout_per_group]
                  .reshape(dout_per_group, -1), step.in_fmts[0],
                  weight_format)
            for g in range(groups)
        ]
        step.bias_acc = _bias_in_accumulator(params.get("bias"),
                                             step.acc_fmt, weight_format)
        step.gather, step.out_h, step.out_w = F.im2col_indices(
            (cin_per_group, in_dims[1], in_dims[2]),
            spec.kernel_size, spec.stride, spec.pad)

    # ------------------------------------------------------------------
    # Plan optimizer: fusion chains, liveness

    def _analyze(self) -> None:
        readers: list[list[int]] = [[] for _ in range(self.n_values)]
        for i, step in enumerate(self.steps):
            for v in step.in_vids:
                readers[v].append(i)

        # Epilogue fusion: greedily chain each step with the single
        # reader of its value while that reader is a legal epilogue.
        # The network-output value always terminates a chain — it must
        # survive the flush as its own buffer.
        assigned = [False] * len(self.steps)
        chains: list[list[int]] = []
        for i in range(len(self.steps)):
            if assigned[i]:
                continue
            chain = [i]
            assigned[i] = True
            while True:
                value = self.steps[chain[-1]].out_vid
                if value == self.output_vid:
                    break
                value_readers = readers[value]
                if len(value_readers) != 1:
                    break
                j = value_readers[0]
                follower = self.steps[j]
                if assigned[j] or follower.spec.kind not in _EPILOGUE_KINDS \
                        or len(follower.spec.bottoms) != 1:
                    break
                chain.append(j)
                assigned[j] = True
            chains.append(chain)
        self.fused_steps = len(self.steps) - len(chains)
        # Chains are listed in anchor order, and that order is
        # topological: a chain's only external inputs are its anchor's
        # inputs, and every producer chain's anchor precedes this
        # chain's anchor, so running whole chains in list order never
        # reads a value before it is written.
        self.nodes = chains

        # In-place epilogues (output mode only).  An epilogue may
        # overwrite its producer's buffer when shapes match, the
        # producer's value does not persist (recurrent state does), and
        # the result is not the network output.
        for chain in chains:
            for prev, cur in zip(chain, chain[1:]):
                step = self.steps[cur]
                step.fused = True
                if step.spec.kind in _INPLACE_KINDS \
                        and self.steps[prev].spec.kind not in _ESCAPING_KINDS \
                        and step.out_vid != self.output_vid:
                    step.inplace = True

        # Liveness: nodes run in list order, so a value's last node is
        # the highest-numbered node that writes or reads it.
        last = {self.input_vid: 0}
        for ni, chain in enumerate(chains):
            for si in chain:
                step = self.steps[si]
                for v in (*step.in_vids, step.out_vid):
                    last[v] = ni
        last.pop(self.output_vid, None)
        self.drop_after_node = [[] for _ in chains]
        for v, ni in last.items():
            self.drop_after_node[ni].append(v)

    # ------------------------------------------------------------------
    # Introspection

    def stats(self) -> dict[str, int]:
        """Optimizer counters for metrics and bench tables.

        ``peak_arena_bytes`` is always 0: the plan has no buffer arena
        any more.  The key is kept only because ``bench/workloads.py``
        reads it.
        """
        return {
            "total_steps": len(self.steps),
            "fused_steps": self.fused_steps,
            "peak_arena_bytes": 0,
        }

    def summary(self) -> str:
        return f"plan steps={len(self.steps)} fused={self.fused_steps}"

    # ------------------------------------------------------------------
    # Batched execution

    def forward_batch_raw(
        self,
        inputs: AnyArray,
        state: dict[str, IntArray],
        *,
        keep: str = "all",
    ) -> dict[str, IntArray]:
        """One vectorized forward pass; raw integer blobs, leading ``N``.

        ``state`` is the executor's recurrent-state dict; batched entries
        carry the batch dimension ``(N, Out)`` and evolve per sample.

        ``keep="all"`` returns every blob (the inspection contract): each
        is its own fresh buffer, which the caller owns outright.
        ``keep="output"`` is the serving hot path: only the network
        output survives the flush, every other value is dropped after
        its last reader node, and same-shape epilogues run in place.
        Both retention modes run the same kernels and produce
        bit-identical values.
        """
        if keep not in ("all", "output"):
            raise SimulationError(
                f"unknown retention mode '{keep}' (expected 'all' or 'output')")
        hot = keep == "output"
        values: list[AnyArray | None] = [None] * self.n_values
        values[self.input_vid] = quantize_to_ints(inputs, self.input_fmt)
        for node, drops in zip(self.nodes, self.drop_after_node):
            for si in node:
                step = self.steps[si]
                raw_inputs = [cast(AnyArray, values[v]) for v in step.in_vids]
                values[step.out_vid] = self._run_step(
                    step, raw_inputs, state, inplace=hot and step.inplace)
            if hot:
                for v in drops:
                    values[v] = None
        if hot:
            output = values[self.output_vid]
            if output is None:
                raise SimulationError(
                    f"plan did not produce output blob '{self.output_blob}'")
            return {self.output_blob: cast(IntArray, output)}
        result: dict[str, IntArray] = {}
        for name, vid in self.final_vids.items():
            held = values[vid]
            if held is not None:
                result[name] = cast(IntArray, held)
        return result

    def _run_step(self, step: LayerStep, raw_inputs: list[AnyArray],
                  state: dict[str, IntArray], inplace: bool) -> IntArray:
        spec = step.spec
        kind = spec.kind
        first = raw_inputs[0] if raw_inputs else None
        first_fmt = step.in_fmts[0] if step.in_fmts else step.out_fmt
        out_fmt = step.out_fmt

        if kind.is_convolution:
            return self._conv(step, cast(IntArray, first))
        if kind is LayerKind.INNER_PRODUCT or kind is LayerKind.ASSOCIATIVE:
            return self._dense(step, cast(IntArray, first))
        if kind is LayerKind.RECURRENT:
            return self._recurrent(step, cast(IntArray, first), state)
        if kind is LayerKind.POOLING:
            return self._pool(step, cast(IntArray, first))
        if kind is LayerKind.LRN:
            return self._lrn(step, cast(IntArray, first))
        if kind is LayerKind.CONCAT:
            return self._concat(step, raw_inputs)
        if kind is LayerKind.ELTWISE:
            return self._eltwise(step, raw_inputs)
        if kind is LayerKind.CLASSIFIER:
            return cast(IntArray,
                        F.argmax_classifier_batch(cast(IntArray, first),
                                                  spec.top_k))
        assert first is not None
        if kind is LayerKind.SOFTMAX:
            probabilities = F.softmax_batch(dequantize(first, first_fmt))
            return cast(IntArray, quantize_to_ints(probabilities, out_fmt))
        # Same-shape elementwise kernels: write in place on the
        # producer's buffer when the plan allows it.
        out = first if inplace else None
        if kind is LayerKind.RELU:
            rectified = np.maximum(first, 0, out=out)
            return cast(IntArray, requantize(rectified, first_fmt, out_fmt,
                                             out=rectified))
        if kind in (LayerKind.SIGMOID, LayerKind.TANH):
            assert step.lut is not None
            values = step.lut.evaluate(dequantize(first, first_fmt))
            return cast(IntArray, quantize_to_ints(values, out_fmt, out=out))
        if kind is LayerKind.DROPOUT:
            return cast(IntArray, requantize(first, first_fmt, out_fmt,
                                             out=out))
        raise SimulationError(f"batched execution has no rule for {kind}")

    def _conv(self, step: LayerStep, raw: IntArray) -> IntArray:
        spec = step.spec
        count, channels, height, width = raw.shape
        groups = conv_groups(spec, channels)
        dout_per_group = step.weights[0].shape[1]
        dout = dout_per_group * groups
        if spec.kernel_size == 1 and spec.stride == 1 and spec.pad == 0:
            # Pointwise convolution: im2col is the identity, so skip the
            # gather entirely and GEMM ``(Dout/g, Cin/g) @ (N, Cin/g, P)``
            # straight into output layout.  Summation order differs from
            # the gathered GEMM but every intermediate is exact (the
            # float GEMM is only packed under the 2^53 bound), so the
            # integers are identical.
            return self._pointwise_conv(step, raw, groups, dout)
        assert step.acc_fmt is not None and step.gather is not None
        pad = spec.pad
        dtype = step.weights[0].dtype
        patches = step.out_h * step.out_w
        # Gather and GEMM a block of samples at a time, so the im2col
        # columns stay near ROW_BLOCK_ELEMENTS (one sample's at least)
        # however large the batch.  Every GEMM is exact, so blocking
        # leaves the integers unchanged.
        block = max(1, min(count, ROW_BLOCK_ELEMENTS // step.gather.size))
        # The GEMM-dtype pad slab's zero border is written once; each
        # block overwrites only its interior.
        padded = np.zeros((block, channels, height + 2 * pad,
                           width + 2 * pad), dtype)
        interior = padded[:, :, pad:pad + height, pad:pad + width]
        source = padded.reshape(block, groups, -1)
        columns = np.empty((block, *step.gather.shape), dtype)
        product = np.empty((block, patches, dout_per_group), dtype)
        acc = np.empty((count, dout, patches), np.int64)
        for start in range(0, count, block):
            n = min(block, count - start)
            interior[:n] = raw[start:start + n]
            for g in range(groups):
                # The gather indices are in range by construction, so
                # mode="clip" changes nothing but lets np.take write
                # straight into ``out`` instead of a buffered copy.
                np.take(source[:n, g], step.gather, axis=1,
                        out=columns[:n], mode="clip")
                np.matmul(columns[:n], step.weights[g], out=product[:n])
                np.copyto(acc[start:start + n,
                              g * dout_per_group:(g + 1) * dout_per_group],
                          product[:n].transpose(0, 2, 1), casting="unsafe")
        if step.bias_acc is not None:
            acc += step.bias_acc[:, None]
        requantize(acc, step.acc_fmt, step.out_fmt, out=acc)
        return acc.reshape(count, dout, step.out_h, step.out_w)

    def _pointwise_conv(self, step: LayerStep, raw: IntArray, groups: int,
                        dout: int) -> IntArray:
        """1x1 / stride-1 / pad-0 convolution without im2col.

        The patch axis is the flattened spatial axis, so the GEMM runs
        directly on the ``(N, Cin/g, H*W)`` input slab and the result
        lands in output layout ``(N, Dout, H*W)`` with no gather and no
        concatenation.
        """
        assert step.acc_fmt is not None
        count, channels = raw.shape[0], raw.shape[1]
        dtype = step.weights[0].dtype
        patches = step.out_h * step.out_w
        dout_per_group = dout // groups
        data = raw.reshape(count, groups, channels // groups, patches) \
            .astype(dtype, copy=False)
        product = np.empty((count, dout_per_group, patches), dtype)
        acc = np.empty((count, dout, patches), np.int64)
        for g in range(groups):
            # (Dout/g, Cin/g) @ (N, Cin/g, P) -> (N, Dout/g, P); the
            # stored weight is the (Cin/g, Dout/g) operand, so its
            # transpose is the row-major kernel matrix.
            np.matmul(step.weights[g].T, data[:, g], out=product)
            np.copyto(acc[:, g * dout_per_group:(g + 1) * dout_per_group],
                      product, casting="unsafe")
        if step.bias_acc is not None:
            acc += step.bias_acc[:, None]
        requantize(acc, step.acc_fmt, step.out_fmt, out=acc)
        return acc.reshape(count, dout, step.out_h, step.out_w)

    def _dense(self, step: LayerStep, raw: IntArray) -> IntArray:
        assert step.acc_fmt is not None
        weight = step.weights[0]
        flat = raw.reshape(raw.shape[0], -1)
        product = np.matmul(flat.astype(weight.dtype, copy=False), weight)
        acc = cast(IntArray, product.astype(np.int64, copy=False))
        if step.bias_acc is not None:
            acc += step.bias_acc
        return cast(IntArray,
                    requantize(acc, step.acc_fmt, step.out_fmt, out=acc))

    def _recurrent(self, step: LayerStep, raw: IntArray,
                   state: dict[str, IntArray]) -> IntArray:
        drive = self._dense(step, raw)
        previous = state.get(step.spec.name)
        if previous is not None:
            if previous.shape != drive.shape:
                raise SimulationError(
                    f"recurrent state for '{step.spec.name}' has shape "
                    f"{previous.shape}, batch expects {drive.shape}; call "
                    "reset_state() between batch shapes"
                )
            assert step.recurrent_t is not None \
                and step.recurrent_acc_fmt is not None
            echo = np.matmul(previous.astype(step.recurrent_t.dtype,
                                             copy=False),
                             step.recurrent_t).astype(np.int64, copy=False)
            feedback = requantize(echo, step.recurrent_acc_fmt,
                                  step.out_fmt)
            drive = np.clip(drive + feedback, step.out_fmt.min_int,
                            step.out_fmt.max_int)
        state[step.spec.name] = drive
        return drive

    def _pool(self, step: LayerStep, raw: IntArray) -> IntArray:
        spec = step.spec
        in_fmt, out_fmt = step.in_fmts[0], step.out_fmt
        source = raw if raw.dtype == np.int64 else raw.astype(np.int64)
        if spec.pool_method is PoolMethod.MAX:
            count, channels, height, width = source.shape
            stride, kernel = spec.stride, spec.kernel_size
            # Caffe ceil-mode output size (see pool_windows_batch).
            out_h = -(-(height - kernel) // stride) + 1
            out_w = -(-(width - kernel) // stride) + 1
            fits = ((out_h - 1) * stride + kernel <= height
                    and (out_w - 1) * stride + kernel <= width)
            if spec.pad == 0 and fits:
                # Unpadded, non-overflowing max pooling reduces k*k
                # strided views of the input instead of materializing
                # the windows tensor: the max over identical window
                # members is unchanged.
                out = np.empty((count, channels, out_h, out_w), np.int64)
                span_h = stride * (out_h - 1) + 1
                span_w = stride * (out_w - 1) + 1
                for di in range(kernel):
                    for dj in range(kernel):
                        window = source[:, :, di:di + span_h:stride,
                                        dj:dj + span_w:stride]
                        if di == 0 and dj == 0:
                            np.copyto(out, window)
                        else:
                            np.maximum(out, window, out=out)
                return cast(IntArray,
                            requantize(out, in_fmt, out_fmt, out=out))
            # Padding never wins the max: pad with each sample's minimum.
            pad_values = raw.min(axis=(1, 2, 3)) \
                if spec.pad and raw.size else 0
            windows, _, _ = F.pool_windows_batch(
                source, spec.kernel_size, spec.stride, spec.pad, pad_values)
            pooled = windows.max(axis=(4, 5))
            return cast(IntArray,
                        requantize(pooled, in_fmt, out_fmt, out=pooled))
        windows, _, _ = F.pool_windows_batch(
            source, spec.kernel_size, spec.stride, spec.pad, 0)
        sums = windows.sum(axis=(4, 5))
        if sums.dtype != np.int64:
            sums = sums.astype(np.int64)
        area = spec.kernel_size * spec.kernel_size
        if _is_power_of_two(area):
            shift = area.bit_length() - 1
            averaged = (sums + (1 << (shift - 1))) >> np.int64(shift)
        else:
            reciprocal = int(round((1 << 15) / area))
            averaged = (sums * reciprocal + (1 << 14)) >> np.int64(15)
        return cast(IntArray,
                    requantize(averaged, in_fmt, out_fmt, out=averaged))

    def _lrn(self, step: LayerStep, raw: IntArray) -> IntArray:
        spec = step.spec
        assert step.lut is not None
        values = dequantize(raw, step.in_fmts[0])
        channels = values.shape[1]
        half = spec.local_size // 2
        squared = values ** 2
        scale_arg = np.zeros_like(values)
        for c in range(channels):
            lo, hi = max(0, c - half), min(channels, c + half + 1)
            scale_arg[:, c] = (spec.alpha / spec.local_size) \
                * squared[:, lo:hi].sum(axis=1)
        scale = step.lut.evaluate(scale_arg)
        return cast(IntArray, quantize_to_ints(values * scale, step.out_fmt))

    def _concat(self, step: LayerStep,
                raw_inputs: list[AnyArray]) -> IntArray:
        out_fmt = step.out_fmt
        count = raw_inputs[0].shape[0]
        if all(a.ndim == 4 for a in raw_inputs):
            widths = [a.shape[1] for a in raw_inputs]
            height, width = raw_inputs[0].shape[2], raw_inputs[0].shape[3]
            out = np.empty((count, sum(widths), height, width), np.int64)
            offset = 0
            for raw, fmt, channels in zip(raw_inputs, step.in_fmts, widths):
                requantize(raw, fmt, out_fmt,
                           out=out[:, offset:offset + channels])
                offset += channels
            return out
        flats = [a.reshape(count, -1) for a in raw_inputs]
        out = np.empty((count, sum(f.shape[1] for f in flats)), np.int64)
        offset = 0
        for flat, fmt in zip(flats, step.in_fmts):
            size = flat.shape[1]
            requantize(flat, fmt, out_fmt, out=out[:, offset:offset + size])
            offset += size
        return out

    def _eltwise(self, step: LayerStep,
                 raw_inputs: list[AnyArray]) -> IntArray:
        # Bit-exact mirror of the per-sample rule in repro.sim.quantized:
        # requantize every branch to the output format, then saturating
        # integer sum.
        out_fmt = step.out_fmt
        out = np.empty(raw_inputs[0].shape, np.int64)
        requantize(raw_inputs[0], step.in_fmts[0], out_fmt, out=out)
        scratch = np.empty_like(out)
        for raw, fmt in zip(raw_inputs[1:], step.in_fmts[1:]):
            requantize(raw, fmt, out_fmt, out=scratch)
            np.add(out, scratch, out=out)
            np.clip(out, out_fmt.min_int, out_fmt.max_int, out=out)
        return out

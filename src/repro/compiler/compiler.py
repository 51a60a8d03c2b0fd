"""The compiler driver: design (+ weights) → control program."""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from repro.compiler.address import AddressFlowGenerator
from repro.compiler.lut import (
    build_lut,
    lut_range_for_activation,
    lut_size_for_format,
)
from repro.compiler.memmap import build_memory_map
from repro.compiler.program import ControlProgram
from repro.compiler.reduce import reduce_agus, summarize_tables
from repro.errors import CompileError, LayoutError
from repro.fixedpoint.calibrate import calibrate_format
from repro.fixedpoint.ops import quantize_to_ints, row_blocks
from repro.nn.reference import (
    WEIGHT_SCALE,
    ReferenceNetwork,
    SeededWeights,
    drawn_shapes,
)
from repro.nngen.design import AcceleratorDesign


class DeepBurningCompiler:
    """Generates control flow, data layout and LUT content for a design.

    The compile step optionally takes trained ``weights`` (the
    ``{layer: {"weight", "bias"}}`` form) and ``calibration_inputs``; with
    them it quantizes the weights into the DRAM image and calibrates a
    fixed-point format per blob from a float-mode forward pass, exactly
    the preprocessing the paper runs on the ARM core.
    """

    def __init__(self, lut_entries: int | None = None) -> None:
        self.lut_entries = lut_entries

    def compile(
        self,
        design: AcceleratorDesign,
        weights: Mapping[str, dict[str, np.ndarray]] | None = None,
        calibration_inputs: list[np.ndarray] | None = None,
    ) -> ControlProgram:
        memory_map = build_memory_map(design.resolved, design.datapath.simd)
        coordinator = AddressFlowGenerator(design, memory_map).coordinator()
        # With the pattern tables fixed, reduce the template AGUs to the
        # fields and table depth the network actually exercises.
        table_summaries = summarize_tables(coordinator)
        reduce_agus(design, table_summaries)

        blob_formats = self._calibrate_blobs(design, weights,
                                             calibration_inputs)
        weight_format = design.datapath.weight_format
        luts = self._build_luts(design, blob_formats)
        dram_image = None
        if weights is not None:
            dram_image = self._build_dram_image(design, memory_map, weights,
                                                weight_format)
        return ControlProgram(
            design=design,
            memory_map=memory_map,
            coordinator=coordinator,
            table_summaries=table_summaries,
            blob_formats=blob_formats,
            weight_format=weight_format,
            luts=luts,
            dram_image=dram_image,
        )

    # ------------------------------------------------------------------

    def _calibrate_blobs(self, design, weights, calibration_inputs):
        shapes = design.resolved.shapes
        default = design.datapath.data_format
        formats = {blob: default for blob in shapes}
        if weights is None or not calibration_inputs:
            return formats
        net = ReferenceNetwork(design.graph, weights)
        samples: dict[str, list[np.ndarray]] = {blob: [] for blob in shapes}
        for item in calibration_inputs:
            net.reset_state()
            blobs = net.forward(np.asarray(item, dtype=np.float64))
            for blob, value in blobs.items():
                samples[blob].append(np.ravel(value))
        total_bits = default.total_bits
        for blob, collected in samples.items():
            if collected:
                stacked = np.concatenate(collected)
                try:
                    formats[blob] = calibrate_format(
                        stacked, total_bits=total_bits, headroom=2.0)
                except Exception:
                    formats[blob] = default
        return formats

    def _build_luts(self, design, blob_formats):
        """One Approx LUT image per LUT-backed function in the design."""
        luts = {}
        activation = design.components.get("activation")
        functions = []
        if activation is not None:
            functions = [f for f in activation.functions
                         if f in ("sigmoid", "tanh")]
        if "lrn" in design.components:
            functions.append("reciprocal_power")
        data_format = design.datapath.data_format
        for function in functions:
            if function == "reciprocal_power":
                low, high = 0.0, float(data_format.max_value)
            else:
                low, high = lut_range_for_activation(function)
            entries = self.lut_entries or lut_size_for_format(
                data_format, low, high)
            if function == "reciprocal_power":
                # Guard the open end of the power kernel's domain.
                low = 0.0
            luts[function] = build_lut(function, low, high, entries,
                                       value_format=data_format)
        return luts

    def _build_dram_image(self, design, memory_map, weights, weight_format):
        """Quantize weights into the element-addressed DRAM image.

        Elements are stored at the weight format's width
        (``QFormat.storage_dtype``).  Each layer is quantized straight
        into its region, a bounded block of rows at a time, so no
        full-size float temporary exists.  A :class:`SeededWeights` no
        one has read yet, over the design's weighted layers in the
        design's declaration order, is drawn here, block by block, from
        a fresh generator in :func:`init_weights` order (``weight``
        before ``recurrent_weight``): the generator consumes its stream
        element by element, so the blocks hold exactly the values one
        whole draw would, and no float copy of the weights is kept.
        The image is read-only: the build pipeline shares one image
        between designs.  Feature regions are zero-initialised; the host
        writes the input blob before launch (the simulator's job).
        """
        image = np.zeros(memory_map.total_elements,
                         dtype=weight_format.storage_dtype)
        layers = design.graph.weighted_layers()
        rng = None
        if (isinstance(weights, SeededWeights) and not weights.drawn
                and list(weights) == [spec.name for spec in layers]):
            rng = np.random.default_rng(weights.seed)
        for spec in layers:
            if spec.name not in weights:
                raise CompileError(
                    f"no trained weights supplied for layer '{spec.name}'"
                )
            entry = (weights[spec.name] if rng is None
                     else drawn_shapes(spec, weights.resolved))
            for key, target in memory_map.weights(spec.name).views(
                    image).items():
                source = entry.get(key)
                if source is None:
                    if key == "bias":
                        continue  # a missing bias stays zero
                    raise CompileError(
                        f"layer '{spec.name}' has no '{key}' weights")
                size, block = _block_source(source, target, rng)
                if size != target.size:
                    raise LayoutError(
                        f"layer '{spec.name}': '{key}' has {size} "
                        f"elements, layout expects {target.size}"
                    )
                for rows in row_blocks(target):
                    quantize_to_ints(block(rows), weight_format,
                                     out=target[rows])
        image.flags.writeable = False
        return image


def _block_source(source, target: np.ndarray,
                  rng: np.random.Generator | None):
    """One weight tensor's element count and its float rows of
    ``target``'s shape: row slices of the caller's array (``rng`` is
    None), or else, ``source`` being the drawn shape, the generator's
    next draw at each block's shape."""
    if rng is None:
        array = np.asarray(source)
        if array.size != target.size:
            return array.size, None  # the caller raises LayoutError
        return array.size, array.reshape(target.shape).__getitem__
    return math.prod(source), lambda rows: rng.normal(
        0.0, WEIGHT_SCALE, size=target[rows].shape)

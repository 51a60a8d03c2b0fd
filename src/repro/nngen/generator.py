"""The NN-Gen generator: script + constraint → accelerator design."""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.components.library import ComponentLibrary, blocks_for_layer, \
    default_library
from repro.devices.device import ResourceBudget
from repro.errors import ResourceError, UnsupportedLayerError
from repro.fixedpoint.format import (
    DEFAULT_DATA_FORMAT,
    DEFAULT_WEIGHT_FORMAT,
    QFormat,
)
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind
from repro.frontend.resolver import ResolvedGraph, resolve
from repro.nngen.allocate import (
    NetworkNeeds,
    buffer_components,
    choose_datapath,
    control_components,
    functional_components,
)
from repro.nngen.design import AcceleratorDesign, DatapathConfig, FoldingPlan
from repro.nngen.folding import build_folding_plan

#: Makes the folding plan of a (resolved graph, datapath, feature
#: capacity, weight capacity) in per-bank words.
Folder = Callable[[ResolvedGraph, DatapathConfig, int, int], FoldingPlan]


class NNGen:
    """The DeepBurning hardware generator (paper Fig. 3).

    Typical use::

        design = NNGen().generate(graph, budget)

    The returned design carries the configured component instances and
    the folding plan; pass it to
    :class:`~repro.compiler.compiler.DeepBurningCompiler` for the control
    program, and to :mod:`repro.rtl.emit` for Verilog.
    """

    def __init__(self, library: ComponentLibrary | None = None) -> None:
        self.library = library or default_library()

    def generate(
        self,
        graph: NetworkGraph,
        budget: ResourceBudget,
        data_format: QFormat = DEFAULT_DATA_FORMAT,
        weight_format: QFormat = DEFAULT_WEIGHT_FORMAT,
        max_lanes: int = 0,
        max_simd: int = 0,
        fold_capacity_scale: float = 1.0,
    ) -> AcceleratorDesign:
        """Generate an accelerator for ``graph`` within ``budget``.

        ``max_lanes`` / ``max_simd`` (0 = unbounded) cap the datapath
        search below what the budget would allow — the design-space
        explorer uses them to walk the narrow side of the frontier.
        ``fold_capacity_scale`` in (0, 1] shrinks the buffer capacity the
        folding planner may use, forcing deeper folding than the physical
        buffers require (a fold-depth knob for the explorer; the real
        buffers are unchanged, so the working sets still fit).

        Composition of the staged entry points the memoizing build
        pipeline (:mod:`repro.pipeline`) calls individually:
        :meth:`validate_knobs` → :func:`~repro.frontend.resolver.resolve`
        → :meth:`datapath` → :meth:`apply_caps` → :meth:`realise_design`.
        """
        self.validate_knobs(max_lanes=max_lanes, max_simd=max_simd,
                            fold_capacity_scale=fold_capacity_scale)
        resolved = resolve(graph)
        config = self.datapath(resolved, budget, data_format=data_format,
                               weight_format=weight_format)
        config = self.apply_caps(config, max_lanes, max_simd)
        return self.realise_design(resolved, budget, config,
                                   fold_capacity_scale)

    @staticmethod
    def validate_knobs(max_lanes: int = 0, max_simd: int = 0,
                       fold_capacity_scale: float = 1.0) -> None:
        """Reject out-of-range explorer knobs before any stage runs."""
        if not 0.0 < fold_capacity_scale <= 1.0:
            raise ResourceError(
                f"fold_capacity_scale {fold_capacity_scale} must be in (0, 1]"
            )
        if max_lanes < 0 or max_simd < 0:
            raise ResourceError(
                f"datapath caps must be non-negative, got "
                f"max_lanes={max_lanes} max_simd={max_simd}"
            )

    def datapath(self, resolved: ResolvedGraph, budget: ResourceBudget,
                 data_format: QFormat = DEFAULT_DATA_FORMAT,
                 weight_format: QFormat = DEFAULT_WEIGHT_FORMAT,
                 ) -> DatapathConfig:
        """Check layer support and choose the budget-driven datapath.

        Pure function of (graph, budget, formats) — the pipeline
        memoizes it so a cap sweep pays the datapath search once.
        """
        self._check_layer_support(resolved.graph)
        feature_demand, weight_demand = self._demands(resolved, data_format,
                                                      weight_format)
        return choose_datapath(
            resolved, budget, data_format, weight_format,
            feature_demand_bits=feature_demand,
            weight_demand_bits=weight_demand,
        )

    def realise_design(self, resolved: ResolvedGraph,
                       budget: ResourceBudget, config: DatapathConfig,
                       fold_capacity_scale: float = 1.0,
                       fold: Folder = build_folding_plan,
                       ) -> AcceleratorDesign:
        """Realise a design for an (already capped) datapath choice.

        The datapath search estimates control cost from a nominal plan
        size; once the real folding plan exists, control may grow.  If
        the realised design overflows the budget, back the datapath off
        and re-fold until it fits.  ``fold`` makes each folding plan
        (:func:`~repro.nngen.folding.build_folding_plan` or a memoized
        stand-in with its signature; the build pipeline shares one plan
        between every design that folds alike).
        """
        feature_demand, weight_demand = self._demands(
            resolved, config.data_format, config.weight_format)
        needs = NetworkNeeds.of(resolved.graph)
        while True:
            design = self._realise(resolved, budget, config, needs,
                                   feature_demand, weight_demand,
                                   fold_capacity_scale, fold)
            used = design.resource_report()
            if used.fits_in(budget.limit):
                return design
            if config.lanes > 1:
                config = DatapathConfig(
                    lanes=config.lanes // 2, simd=config.simd,
                    data_format=config.data_format,
                    weight_format=config.weight_format,
                    accumulator_width=config.accumulator_width,
                )
            elif config.simd > 1:
                config = DatapathConfig(
                    lanes=1, simd=config.simd // 2,
                    data_format=config.data_format,
                    weight_format=config.weight_format,
                    accumulator_width=config.accumulator_width,
                )
            else:
                raise ResourceError(
                    f"budget {budget.label} cannot fit the minimal design "
                    f"for '{resolved.graph.name}' (needs {used}, has "
                    f"{budget.limit})"
                )

    @staticmethod
    def apply_caps(config: DatapathConfig, max_lanes: int,
                   max_simd: int) -> DatapathConfig:
        lanes = min(config.lanes, max_lanes) if max_lanes else config.lanes
        simd = min(config.simd, max_simd) if max_simd else config.simd
        if lanes == config.lanes and simd == config.simd:
            return config
        return DatapathConfig(
            lanes=lanes, simd=simd,
            data_format=config.data_format,
            weight_format=config.weight_format,
            accumulator_width=config.accumulator_width,
        )

    def _realise(self, resolved, budget, config, needs,
                 feature_demand, weight_demand,
                 fold_capacity_scale: float,
                 fold: Folder) -> AcceleratorDesign:
        components = dict(functional_components(config, needs))
        buffers = buffer_components(config, budget, feature_demand,
                                    weight_demand)
        components.update(buffers)

        feature_buffer = buffers["feature_buffer"]
        weight_buffer = buffers["weight_buffer"]
        feature_capacity = (
            feature_buffer.depth_words * feature_buffer.word_bits
            // config.data_width
        )
        weight_capacity = (
            weight_buffer.depth_words * weight_buffer.word_bits
            // config.weight_width
        )
        feature_capacity = max(1, int(feature_capacity
                                      * fold_capacity_scale))
        weight_capacity = max(1, int(weight_capacity * fold_capacity_scale))
        folding = fold(resolved, config, feature_capacity, weight_capacity)

        # Control scales with the number of layer templates, not folds:
        # folds of one layer share a coordinator state parameterised by
        # the fold counter, exactly as AGU patterns are re-based per fold.
        layer_templates = len({phase.layer for phase in folding})
        components.update(control_components(
            config, n_phases=max(2, 2 * layer_templates),
            n_patterns=self._pattern_estimate(folding),
        ))

        return AcceleratorDesign(
            resolved=resolved,
            budget=budget,
            datapath=config,
            components=components,
            folding=folding,
        )

    # ------------------------------------------------------------------

    def _check_layer_support(self, graph: NetworkGraph) -> None:
        for spec in graph.layers:
            blocks = blocks_for_layer(spec.kind)
            missing = [cls.MODULE for cls in blocks
                       if cls.MODULE not in self.library.blocks]
            if missing:
                raise UnsupportedLayerError(
                    f"layer '{spec.name}' ({spec.kind.value}) needs library "
                    f"blocks {missing} that are not registered"
                )

    @staticmethod
    def _demands(resolved: ResolvedGraph, data_format: QFormat,
                 weight_format: QFormat) -> tuple[int, int]:
        """Peak feature and weight working-set sizes, in bits."""
        feature_peak = max(
            (sum(resolved.shapes[blob].size
                 for blob in (*spec.bottoms, *spec.tops))
             for spec in resolved.graph.layers), default=0)
        weight_peak = max(map(math.prod, resolved.weight_shapes.values()),
                          default=0)
        if feature_peak == 0:
            raise ResourceError("network moves no feature data")
        return (feature_peak * data_format.total_bits,
                max(1, weight_peak) * weight_format.total_bits)

    @staticmethod
    def _pattern_estimate(folding: FoldingPlan) -> int:
        """Distinct AGU patterns: one trio per layer kind/fold geometry.

        Folds of one layer share a pattern parameterised by start address,
        so the pattern count scales with layers, not folds.
        """
        distinct = {
            (phase.layer, phase.kind) for phase in folding
        }
        weighted = sum(
            3 if kind in (LayerKind.CONVOLUTION,
                          LayerKind.DEPTHWISE_CONVOLUTION,
                          LayerKind.INNER_PRODUCT,
                          LayerKind.RECURRENT, LayerKind.ASSOCIATIVE)
            else 2
            for _, kind in distinct
        )
        return max(1, weighted)

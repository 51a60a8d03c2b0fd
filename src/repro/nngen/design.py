"""Data model of a generated accelerator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.components.base import Component
from repro.devices.cost import ResourceCost
from repro.devices.device import ResourceBudget
from repro.errors import ResourceError
from repro.fixedpoint.format import QFormat
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind
from repro.frontend.resolver import ResolvedGraph


@dataclass(frozen=True)
class DatapathConfig:
    """The generator-decided shape of the shared datapath."""

    lanes: int
    simd: int
    data_format: QFormat
    weight_format: QFormat
    accumulator_width: int = 32

    def __post_init__(self) -> None:
        if self.lanes < 1 or self.simd < 1:
            raise ResourceError(
                f"datapath needs at least one lane and one multiplier, "
                f"got lanes={self.lanes} simd={self.simd}"
            )

    @property
    def multipliers(self) -> int:
        return self.lanes * self.simd

    @property
    def data_width(self) -> int:
        return self.data_format.total_bits

    @property
    def weight_width(self) -> int:
        return self.weight_format.total_bits


@dataclass(frozen=True)
class FoldPhase:
    """One fold: a segment of one layer executed on the shared datapath.

    Spatial folding splits a layer along its outputs (``out_start`` /
    ``out_count``, in output *values*) and optionally along its inputs
    (``in_start`` / ``in_count``); temporal folding is the fact that every
    phase reuses the same blocks.
    """

    layer: str
    kind: LayerKind
    phase_index: int
    out_start: int
    out_count: int
    in_start: int = 0
    in_count: int = 0
    #: MAC (or compare, for pooling) operations in this fold.
    macs: int = 0
    #: Words moved for this fold, at datapath word granularity.
    input_words: int = 0
    weight_words: int = 0
    output_words: int = 0
    #: Dot-product depth per output value (0 for non-MAC layers).
    macs_per_output: int = 0
    #: True when this fold produces partial sums that a later fold of the
    #: same layer completes through the accumulator array.
    partial: bool = False
    # Convolution fold geometry (zero for non-conv folds): the output
    # channel chunk, the output row band, and the input channel slice.
    out_ch_start: int = 0
    out_ch_count: int = 0
    row_start: int = 0
    row_count: int = 0
    in_ch_start: int = 0
    in_ch_count: int = 0

    def __post_init__(self) -> None:
        if self.out_count <= 0:
            raise ResourceError(
                f"fold {self.layer}#{self.phase_index} produces no outputs"
            )


@dataclass
class FoldingPlan:
    """All fold phases of a network, in execution order."""

    phases: list[FoldPhase] = field(default_factory=list)

    def for_layer(self, layer: str) -> list[FoldPhase]:
        return [p for p in self.phases if p.layer == layer]

    def fold_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for phase in self.phases:
            counts[phase.layer] = counts.get(phase.layer, 0) + 1
        return counts

    @property
    def total_macs(self) -> int:
        return sum(p.macs for p in self.phases)

    def report(self) -> str:
        """Human-readable fold summary, one line per layer."""
        lines = ["layer            folds  outputs    macs        partial"]
        per_layer: dict[str, list[FoldPhase]] = {}
        for phase in self.phases:
            per_layer.setdefault(phase.layer, []).append(phase)
        for layer, folds in per_layer.items():
            outputs = sum(p.out_count for p in folds if not p.partial)
            macs = sum(p.macs for p in folds)
            partials = sum(1 for p in folds if p.partial)
            lines.append(
                f"{layer:15s}  {len(folds):5d}  {outputs:8d}  {macs:10d}"
                f"  {partials:7d}"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self):
        return iter(self.phases)


@dataclass
class AcceleratorDesign:
    """A complete generated accelerator, pre-compilation.

    ``resolved`` is the network's resolved graph; ``components`` maps
    instance names to configured library blocks; ``folding`` is the
    fold plan the compiler schedules.
    """

    resolved: ResolvedGraph
    budget: ResourceBudget
    datapath: DatapathConfig
    components: dict[str, Component]
    folding: FoldingPlan
    feature_buffer: str = "feature_buffer"
    weight_buffer: str = "weight_buffer"

    @property
    def graph(self) -> NetworkGraph:
        return self.resolved.graph

    def component(self, instance: str) -> Component:
        try:
            return self.components[instance]
        except KeyError:
            raise ResourceError(
                f"design has no component instance '{instance}'"
            ) from None

    def resource_report(self) -> ResourceCost:
        """Total programmable-logic cost of every instance."""
        return ResourceCost.total(
            [comp.resource_cost() for comp in self.components.values()]
        )

    @property
    def clock_hz(self) -> float:
        return self.budget.device.clock_hz

    def summary(self) -> str:
        """Human-readable one-screen description."""
        used = self.resource_report()
        lines = [
            f"accelerator for '{self.graph.name}' on {self.budget.device.name} "
            f"({self.budget.label})",
            f"  datapath: {self.datapath.lanes} lanes x {self.datapath.simd} simd, "
            f"data {self.datapath.data_format}, weights {self.datapath.weight_format}",
            f"  folds: {len(self.folding)} phases over {len(self.graph)} layers",
            f"  resources: {used}",
        ]
        return "\n".join(lines)

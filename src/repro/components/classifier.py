"""Classifier block — a k-sorter over the output layer.

The classification layer is realised with a *K-sorter* (paper Fig. 5,
implemented after Beigel & Gill, "Sorting n objects with a k-sorter"):
a compare-exchange network that keeps the running top-k activations and
their indices while the output neurons stream through.
"""

from __future__ import annotations

from repro.components.base import Component, PortDirection, PortSpec, _require_positive
from repro.devices.cost import ResourceCost


class KSorterClassifier(Component):
    """Streaming top-``k`` selector over ``width``-bit scores."""

    MODULE = "ksorter_classifier"

    def __init__(self, instance: str, k: int, width: int = 16,
                 index_width: int = 16) -> None:
        super().__init__(instance)
        _require_positive(k=k, width=width, index_width=index_width)
        self.k = k
        self.width = width
        self.index_width = index_width

    def beats_for(self, candidates: int) -> int:
        """One candidate is inserted per beat, plus a drain of ``k``.
        Elementwise over integer arrays."""
        return (candidates > 0) * (candidates + self.k)

    def resource_cost(self) -> ResourceCost:
        # k compare-exchange stages, each holding (score, index).
        per_stage_lut = self.width + self.index_width + 8
        per_stage_ff = self.width + self.index_width
        return ResourceCost(
            lut=self.k * per_stage_lut,
            ff=self.k * per_stage_ff + self.index_width,
        )

    def ports(self) -> list[PortSpec]:
        return [
            PortSpec("clk", PortDirection.INPUT),
            PortSpec("rst", PortDirection.INPUT),
            PortSpec("clear", PortDirection.INPUT),
            PortSpec("score_in", PortDirection.INPUT, self.width),
            PortSpec("valid_in", PortDirection.INPUT),
            PortSpec("index_out", PortDirection.OUTPUT,
                     self.k * self.index_width),
            PortSpec("score_out", PortDirection.OUTPUT, self.k * self.width),
            PortSpec("valid_out", PortDirection.OUTPUT),
        ]

    def parameters(self) -> dict[str, int]:
        return {"K": self.k, "WIDTH": self.width, "INDEX_W": self.index_width}

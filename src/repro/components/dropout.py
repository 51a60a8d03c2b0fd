"""Drop-out inserter.

At inference the drop-out unit is a pass-through (weights were trained
with inverted dropout); during on-accelerator training runs it gates
activations with a linear-feedback shift register so each beat drops a
pseudo-random subset — the "drop-out inserter" of paper §3.2.
"""

from __future__ import annotations

from repro.components.base import Component, PortDirection, PortSpec, _require_positive
from repro.devices.cost import ResourceCost


class DropOutUnit(Component):
    """Per-lane stochastic gating driven by a shared LFSR."""

    MODULE = "dropout_unit"

    LFSR_WIDTH = 16

    def __init__(self, instance: str, lanes: int, width: int = 16) -> None:
        super().__init__(instance)
        _require_positive(lanes=lanes, width=width)
        self.lanes = lanes
        self.width = width

    def beats_for(self, values: int) -> int:
        """One beat per ``lanes`` values; elementwise over integer
        arrays."""
        return (values > 0) * -(-values // self.lanes)

    def resource_cost(self) -> ResourceCost:
        # Shared LFSR + threshold comparator, a gate mux per lane.
        return ResourceCost(
            lut=self.LFSR_WIDTH + 8 + self.lanes * 2,
            ff=self.LFSR_WIDTH + self.lanes,
        )

    def ports(self) -> list[PortSpec]:
        return [
            PortSpec("clk", PortDirection.INPUT),
            PortSpec("rst", PortDirection.INPUT),
            PortSpec("bypass", PortDirection.INPUT),
            PortSpec("threshold", PortDirection.INPUT, self.LFSR_WIDTH),
            PortSpec("data_in", PortDirection.INPUT, self.lanes * self.width),
            PortSpec("valid_in", PortDirection.INPUT),
            PortSpec("data_out", PortDirection.OUTPUT, self.lanes * self.width),
            PortSpec("valid_out", PortDirection.OUTPUT),
        ]

    def parameters(self) -> dict[str, int]:
        return {"LANES": self.lanes, "WIDTH": self.width}

"""Pooling unit.

Implements max pooling with a comparator tree and average pooling with an
adder tree plus the connection box's shifting latch for the division
(the paper's "approximate division operation": exact for power-of-two
window areas, nearest-shift otherwise).
"""

from __future__ import annotations

from repro.components.base import Component, PortDirection, PortSpec, _require_positive
from repro.devices.cost import ResourceCost
from repro.errors import ResourceError


class PoolingUnit(Component):
    """``lanes`` pooling lanes over windows up to ``max_kernel`` wide."""

    MODULE = "pooling_unit"

    def __init__(self, instance: str, lanes: int, max_kernel: int,
                 width: int = 16, support_max: bool = True,
                 support_avg: bool = True) -> None:
        super().__init__(instance)
        _require_positive(lanes=lanes, max_kernel=max_kernel, width=width)
        if not (support_max or support_avg):
            raise ResourceError("pooling unit must support max or average")
        self.lanes = lanes
        self.max_kernel = max_kernel
        self.width = width
        self.support_max = support_max
        self.support_avg = support_avg

    @property
    def window(self) -> int:
        return self.max_kernel * self.max_kernel

    def beats_for(self, outputs: int, kernel: int) -> int:
        """Cycles to pool ``outputs`` windows of ``kernel x kernel``.

        One window element per lane per beat.  Elementwise over integer
        arrays.
        """
        elements = outputs * kernel * kernel
        return (outputs > 0) * -(-elements // self.lanes)

    def resource_cost(self) -> ResourceCost:
        per_lane = 0
        if self.support_max:
            per_lane += self.width + 4  # comparator + running-max mux
        if self.support_avg:
            per_lane += self.width + 6  # adder + shift latch
        return ResourceCost(
            lut=self.lanes * per_lane,
            ff=self.lanes * (self.width + 4),
        )

    def ports(self) -> list[PortSpec]:
        return [
            PortSpec("clk", PortDirection.INPUT),
            PortSpec("rst", PortDirection.INPUT),
            PortSpec("enable", PortDirection.INPUT),
            PortSpec("mode_max", PortDirection.INPUT),
            PortSpec("window_start", PortDirection.INPUT),
            PortSpec("data_in", PortDirection.INPUT, self.lanes * self.width),
            PortSpec("valid_in", PortDirection.INPUT),
            PortSpec("pool_out", PortDirection.OUTPUT, self.lanes * self.width),
            PortSpec("valid_out", PortDirection.OUTPUT),
        ]

    def parameters(self) -> dict[str, int]:
        return {
            "LANES": self.lanes,
            "MAX_K": self.max_kernel,
            "WIDTH": self.width,
            "HAS_MAX": int(self.support_max),
            "HAS_AVG": int(self.support_avg),
        }

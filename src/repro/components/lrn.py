"""Local Response Normalization unit.

LRN divides each activation by a power of the local channel energy.  The
unit keeps a sliding window of ``local_size`` squared activations in a
shift register, accumulates them, and evaluates the ``x^-beta`` scaling
through a small Approx LUT — the paper maps the LRN/LCN layer onto a
dedicated LRN unit backed by the shared approximation machinery.
"""

from __future__ import annotations

from repro.components.activation import ApproxLUT
from repro.components.base import Component, PortDirection, PortSpec, \
    _require_positive, dsp_for_multiplier
from repro.devices.cost import ResourceCost


class LRNUnit(Component):
    """Cross-channel LRN over windows up to ``max_local_size``."""

    MODULE = "lrn_unit"

    def __init__(self, instance: str, max_local_size: int = 5,
                 width: int = 16, lut_entries: int = 128) -> None:
        super().__init__(instance)
        _require_positive(max_local_size=max_local_size, width=width)
        self.max_local_size = max_local_size
        self.width = width
        self.scale_lut = ApproxLUT(f"{instance}_scale", lut_entries,
                                   width, width)

    def beats_for(self, values: int) -> int:
        """One activation is normalised per beat once the window fills.
        Elementwise over integer arrays."""
        return (values > 0) * (values + self.max_local_size)

    def resource_cost(self) -> ResourceCost:
        # Squaring multiplier, window shift register, sum, scale multiply.
        square = dsp_for_multiplier(self.width)
        scale = dsp_for_multiplier(self.width)
        window_ff = self.max_local_size * 2 * self.width
        return ResourceCost(
            dsp=square + scale,
            lut=self.width * 4 + 24,
            ff=window_ff + self.width * 2,
        ) + self.scale_lut.resource_cost()

    def ports(self) -> list[PortSpec]:
        return [
            PortSpec("clk", PortDirection.INPUT),
            PortSpec("rst", PortDirection.INPUT),
            PortSpec("enable", PortDirection.INPUT),
            PortSpec("data_in", PortDirection.INPUT, self.width),
            PortSpec("valid_in", PortDirection.INPUT),
            PortSpec("data_out", PortDirection.OUTPUT, self.width),
            PortSpec("valid_out", PortDirection.OUTPUT),
        ]

    def parameters(self) -> dict[str, int]:
        return {"MAX_LOCAL": self.max_local_size, "WIDTH": self.width,
                "LUT_ENTRIES": self.scale_lut.entries}

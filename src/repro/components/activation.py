"""Activation unit and the Approximate Look-Up Table.

ReLU is pure logic (a sign comparator).  Sigmoid and tanh route through
an :class:`ApproxLUT`: a block-RAM table of sampled function points with
linear interpolation between the two adjacent keys for inputs that miss
the table (paper §3.3, "Approx LUT Generation").  The table *content* is
produced by the compiler (:mod:`repro.compiler.lut`); this class models
the hardware.
"""

from __future__ import annotations

from repro.components.base import Component, PortDirection, PortSpec, \
    _require_positive, dsp_for_multiplier
from repro.devices.cost import ResourceCost
from repro.errors import ResourceError


class ApproxLUT(Component):
    """Sampled-function table with super-linear interpolation."""

    MODULE = "approx_lut"

    def __init__(self, instance: str, entries: int, key_width: int = 16,
                 value_width: int = 16, interpolate: bool = True) -> None:
        super().__init__(instance)
        _require_positive(entries=entries, key_width=key_width,
                          value_width=value_width)
        if entries & (entries - 1):
            raise ResourceError(
                f"Approx LUT entry count {entries} must be a power of two "
                "so the key can index by bit-slicing"
            )
        self.entries = entries
        self.key_width = key_width
        self.value_width = value_width
        self.interpolate = interpolate

    def resource_cost(self) -> ResourceCost:
        # Values live in BRAM; interpolation needs one multiplier for the
        # fractional blend plus an adder.
        bram_bits = self.entries * self.value_width
        dsp = dsp_for_multiplier(self.value_width) if self.interpolate else 0
        lut = self.value_width * 3 + (16 if self.interpolate else 4)
        ff = self.value_width * 2
        return ResourceCost(dsp=dsp, lut=lut, ff=ff, bram_bits=bram_bits)

    def ports(self) -> list[PortSpec]:
        return [
            PortSpec("clk", PortDirection.INPUT),
            PortSpec("key_in", PortDirection.INPUT, self.key_width),
            PortSpec("valid_in", PortDirection.INPUT),
            PortSpec("value_out", PortDirection.OUTPUT, self.value_width),
            PortSpec("valid_out", PortDirection.OUTPUT),
        ]

    def parameters(self) -> dict[str, int]:
        return {
            "ENTRIES": self.entries,
            "KEY_W": self.key_width,
            "VALUE_W": self.value_width,
            "INTERP": int(self.interpolate),
        }


class ActivationUnit(Component):
    """Per-lane activation: ReLU in logic, sigmoid/tanh via Approx LUT."""

    MODULE = "activation_unit"

    SUPPORTED = ("relu", "sigmoid", "tanh", "identity")

    def __init__(self, instance: str, lanes: int, width: int = 16,
                 functions: tuple[str, ...] = ("relu",),
                 lut_entries: int = 256) -> None:
        super().__init__(instance)
        _require_positive(lanes=lanes, width=width)
        unknown = [f for f in functions if f not in self.SUPPORTED]
        if unknown:
            raise ResourceError(f"unsupported activation functions: {unknown}")
        if not functions:
            raise ResourceError("activation unit needs at least one function")
        self.lanes = lanes
        self.width = width
        self.functions = tuple(dict.fromkeys(functions))
        self.lut_entries = lut_entries
        self._luts = [
            ApproxLUT(f"{instance}_lut_{fn}", lut_entries, width, width)
            for fn in self.functions
            if fn in ("sigmoid", "tanh")
        ]

    @property
    def function_code(self) -> int:
        """The functions in ``func_select`` order, one decimal digit each
        (1-based index into :attr:`SUPPORTED`): ``("relu", "sigmoid")``
        is 12, ``("sigmoid", "relu")`` is 21."""
        return int("".join(str(self.SUPPORTED.index(fn) + 1)
                           for fn in self.functions))

    @property
    def needs_lut(self) -> bool:
        return bool(self._luts)

    def lut_components(self) -> list[ApproxLUT]:
        return list(self._luts)

    def resource_cost(self) -> ResourceCost:
        # ReLU/identity: a sign mux per lane.
        cost = ResourceCost(lut=self.lanes * (self.width // 2 + 2),
                            ff=self.lanes * self.width)
        for lut in self._luts:
            # One table is shared across lanes (lanes drain through it in
            # a pipelined fashion), matching the paper's shared Approx LUT.
            cost = cost + lut.resource_cost()
        return cost

    def ports(self) -> list[PortSpec]:
        return [
            PortSpec("clk", PortDirection.INPUT),
            PortSpec("rst", PortDirection.INPUT),
            PortSpec("func_select", PortDirection.INPUT,
                     max(1, (len(self.functions) - 1).bit_length())),
            PortSpec("data_in", PortDirection.INPUT, self.lanes * self.width),
            PortSpec("valid_in", PortDirection.INPUT),
            PortSpec("data_out", PortDirection.OUTPUT, self.lanes * self.width),
            PortSpec("valid_out", PortDirection.OUTPUT),
        ]

    def parameters(self) -> dict[str, int]:
        return {
            "LANES": self.lanes,
            "WIDTH": self.width,
            "FUNCS": self.function_code,
            "LUT_ENTRIES": self.lut_entries if self.needs_lut else 0,
        }

    def beats_for(self, values: int, function: str) -> int:
        """Cycles to activate ``values`` outputs; elementwise over
        integer arrays."""
        if function in ("relu", "identity"):
            return (values > 0) * -(-values // self.lanes)
        # LUT-based functions serialise through the shared table.
        return (values > 0) * values

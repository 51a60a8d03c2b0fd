"""Address Generation Units.

AGUs are the control core of the data-driven architecture (paper §3.3):
they replay compiler-determined access patterns to fetch and store the
three data sets.  The generated accelerator carries three AGU roles:

* **main** AGU — moves tiles between off-chip DRAM and on-chip buffers,
* **data** AGU — streams feature words from the feature buffer into the
  datapath,
* **weight** AGU — streams weight words from the weight buffer.

Each AGU is *reduced from the template* (paper Fig. 6): the hardware
only instantiates the counters and fields the compiled patterns actually
use, which is why its cost depends on the pattern inventory.
"""

from __future__ import annotations

import enum

from repro.components.base import Component, PortDirection, PortSpec, _require_positive
from repro.devices.cost import ResourceCost
from repro.errors import ResourceError


class AGURole(enum.Enum):
    MAIN = "main"
    DATA = "data"
    WEIGHT = "weight"


#: Fields of the template AGU (paper Fig. 6).  A generated AGU keeps only
#: the fields its patterns exercise.
TEMPLATE_FIELDS = (
    "start_address",
    "footprint",
    "x_length",
    "y_length",
    "stride",
    "offset",
)


class AddressGenerationUnit(Component):
    """An AGU reduced to support ``n_patterns`` compiled access patterns.

    ``n_patterns`` counts the distinct pattern shapes and sizes the cost
    model's table.  ``rows`` is the depth of the pattern ROM the RTL
    template loads: one row per entry of the AGU's coordinator table
    once the program is compiled (see :func:`repro.compiler.reduce.pattern_rom`),
    ``n_patterns`` before that.  ``pattern_select`` indexes those rows.
    """

    MODULE = "agu"

    def __init__(self, instance: str, role: AGURole, n_patterns: int,
                 address_width: int = 32, burst_words: int = 1,
                 fields: tuple[str, ...] = TEMPLATE_FIELDS,
                 rows: int | None = None) -> None:
        super().__init__(instance)
        rows = n_patterns if rows is None else rows
        _require_positive(n_patterns=n_patterns, address_width=address_width,
                          burst_words=burst_words, rows=rows)
        unknown = [f for f in fields if f not in TEMPLATE_FIELDS]
        if unknown:
            raise ResourceError(f"unknown AGU template fields: {unknown}")
        if "start_address" not in fields:
            raise ResourceError("an AGU cannot drop the start_address field")
        self.role = role
        self.n_patterns = n_patterns
        self.address_width = address_width
        self.burst_words = burst_words
        self.fields = tuple(dict.fromkeys(fields))
        self.rows = rows

    @property
    def pattern_select_width(self) -> int:
        return max(1, (self.rows - 1).bit_length())

    @property
    def field_mask(self) -> int:
        """The kept fields as a bit mask over :data:`TEMPLATE_FIELDS`."""
        return sum(1 << index for index, name in enumerate(TEMPLATE_FIELDS)
                   if name in self.fields)

    def resource_cost(self) -> ResourceCost:
        # Pattern table in distributed RAM: one row of field constants per
        # pattern; one loop counter + comparator per retained field.
        field_bits = len(self.fields) * self.address_width
        table_lut = self.n_patterns * field_bits // 16
        counters = len(self.fields) - 1  # start_address needs no counter
        counter_lut = counters * (self.address_width // 2 + 4)
        counter_ff = counters * self.address_width
        return ResourceCost(
            lut=table_lut + counter_lut + 12,
            ff=counter_ff + self.address_width + 8,
        )

    def ports(self) -> list[PortSpec]:
        return [
            PortSpec("clk", PortDirection.INPUT),
            PortSpec("rst", PortDirection.INPUT),
            PortSpec("event_trigger", PortDirection.INPUT),
            PortSpec("pattern_select", PortDirection.INPUT,
                     self.pattern_select_width),
            PortSpec("stall", PortDirection.INPUT),
            PortSpec("address_out", PortDirection.OUTPUT, self.address_width),
            PortSpec("address_valid", PortDirection.OUTPUT),
            PortSpec("burst_len", PortDirection.OUTPUT, 8),
            PortSpec("pattern_done", PortDirection.OUTPUT),
        ]

    def parameters(self) -> dict[str, int]:
        return {
            "PATTERNS": self.n_patterns,
            "ADDR_W": self.address_width,
            "BURST": self.burst_words,
            # Which fields are kept, not how many: two reductions that
            # keep different fields render different modules.
            "FIELDS": self.field_mask,
            "ROWS": self.rows,
        }

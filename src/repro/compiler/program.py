"""The compiled artifact bundle.

A :class:`ControlProgram` is everything the DeepBurning compiler hands
to the hardware and the host ARM core: the coordinator FSM program, the
AGU address plans, the DRAM memory map and weight image, the Approx-LUT
contents and the fixed-point formats of every blob.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.compiler.address import PhaseAddressPlan
from repro.compiler.control import CoordinatorProgram
from repro.compiler.lut import ApproxLUTContent
from repro.compiler.memmap import MemoryMap
from repro.errors import CompileError
from repro.fixedpoint.format import QFormat
from repro.nngen.design import AcceleratorDesign


@dataclass
class ControlProgram:
    """Compiled control flow + data layout for one accelerator design."""

    design: AcceleratorDesign
    memory_map: MemoryMap
    coordinator: CoordinatorProgram
    address_plans: list[PhaseAddressPlan]
    #: Fixed-point format of every blob (calibrated or default).
    blob_formats: dict[str, QFormat] = field(default_factory=dict)
    weight_format: QFormat | None = None
    #: LUT contents keyed by function name.
    luts: dict[str, ApproxLUTContent] = field(default_factory=dict)
    #: The preprocessed DRAM image holding quantized weights (and zeroed
    #: feature regions), in raw element integers at the weight format's
    #: storage width; read-only.  ``None`` for a weightless build.
    dram_image: np.ndarray | None = None

    def plan_for(self, layer: str, phase_index: int) -> PhaseAddressPlan:
        """The address plan of fold ``layer#phase_index``; a pass that
        looks up every coordinator state uses :meth:`plan_lookup`."""
        return self.plan_lookup()(layer, phase_index)

    def plan_lookup(self) -> Callable[[str, int], PhaseAddressPlan]:
        """:meth:`plan_for` over an index of :attr:`address_plans` built
        now, so each lookup is O(1).

        The first plan listed for a fold wins.  The index is a snapshot:
        build one per pass, never keep it past an edit of the list.
        """
        index: dict[tuple[str, int], PhaseAddressPlan] = {}
        for plan in self.address_plans:
            index.setdefault((plan.phase.layer, plan.phase.phase_index),
                             plan)

        def lookup(layer: str, phase_index: int) -> PhaseAddressPlan:
            plan = index.get((layer, phase_index))
            if plan is None:
                raise CompileError(
                    f"no address plan for {layer}#{phase_index}")
            return plan

        return lookup

    def weight_views(self) -> dict[str, dict[str, np.ndarray]]:
        """Every weighted layer's integer parameters as views into
        :attr:`dram_image`, keyed ``{layer: {"weight", ...}}`` like
        trained weights (see :meth:`WeightLayout.views`).

        The image is the only integer copy of the weights: the
        functional executor, its execution plan and the range analysis
        read these views.
        """
        if self.dram_image is None:
            raise CompileError(
                "the program has no DRAM image (compiled without weights)")
        return {layer: region.views(self.dram_image)
                for layer, region in self.memory_map.weight_regions.items()}

    def total_dram_traffic_words(self) -> int:
        """Words moved over the AXI port for one forward propagation."""
        return sum(plan.dram_read_words() + plan.dram_write_words()
                   for plan in self.address_plans)

    def lut_for(self, function: str) -> ApproxLUTContent:
        try:
            return self.luts[function]
        except KeyError:
            raise CompileError(f"no compiled LUT for '{function}'") from None

    def summary(self) -> str:
        lines = [
            f"control program for '{self.design.graph.name}'",
            f"  {self.coordinator.n_states} coordinator states, "
            f"{len(self.coordinator.main_table)} main / "
            f"{len(self.coordinator.data_table)} data / "
            f"{len(self.coordinator.weight_table)} weight patterns",
            f"  DRAM footprint: {self.memory_map.total_elements} elements",
            f"  LUTs: {sorted(self.luts) or 'none'}",
        ]
        return "\n".join(lines)

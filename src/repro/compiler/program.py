"""The compiled artifact bundle.

A :class:`ControlProgram` is everything the DeepBurning compiler hands
to the hardware and the host ARM core: the coordinator FSM program (one
state per fold, each carrying the fold's AGU address plan), the DRAM
memory map and weight image, the Approx-LUT contents and the
fixed-point formats of every blob.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.control import CoordinatorProgram
from repro.compiler.lut import ApproxLUTContent
from repro.compiler.memmap import MemoryMap
from repro.compiler.reduce import TableSummary
from repro.components.agu import AGURole
from repro.errors import CompileError
from repro.fixedpoint.format import QFormat
from repro.nngen.design import AcceleratorDesign


@dataclass
class ControlProgram:
    """Compiled control flow + data layout for one accelerator design."""

    design: AcceleratorDesign
    memory_map: MemoryMap
    coordinator: CoordinatorProgram
    #: What each AGU role's reduced instance needs of its coordinator
    #: table (:func:`~repro.compiler.reduce.summarize_tables`).
    table_summaries: dict[AGURole, TableSummary] = field(
        default_factory=dict)
    #: Fixed-point format of every blob (calibrated or default).
    blob_formats: dict[str, QFormat] = field(default_factory=dict)
    weight_format: QFormat | None = None
    #: LUT contents keyed by function name.
    luts: dict[str, ApproxLUTContent] = field(default_factory=dict)
    #: The preprocessed DRAM image holding quantized weights (and zeroed
    #: feature regions), in raw element integers at the weight format's
    #: storage width; read-only.  ``None`` for a weightless build.
    dram_image: np.ndarray | None = None

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
        return sum(state.read_words + state.write_words
                   for state in self.coordinator.states)

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

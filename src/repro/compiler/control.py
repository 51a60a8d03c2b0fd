"""Coordinator FSM program generation.

"The configuration signals are generated in time by the FSM-based
coordinator.  The FSMs are also created by the NN-Gen compiler" (paper
§3.3).  A :class:`CoordinatorState` is one FSM state: the fold it
executes, the trigger event recorded in the context buffer, the
producer→consumer reconnection of the connection box, and the fold's
address plan — the AGU pattern rows it selects and the words they move.
:class:`~repro.compiler.address.AddressFlowGenerator` builds each state
as it appends the fold's rows to the pattern tables; the route comes
from :func:`route_for_phase`, once per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.compiler.patterns import AccessPattern
from repro.errors import CompileError
from repro.frontend.layers import LayerKind
from repro.nngen.design import AcceleratorDesign, FoldPhase

if TYPE_CHECKING:
    from repro.sim.accel import FoldColumns

#: Datapath route of each layer kind: the ordered chain of functional
#: blocks the connection box links for that fold (paper §3.2 mapping).
KIND_ROUTES: dict[LayerKind, tuple[str, ...]] = {
    LayerKind.CONVOLUTION: ("neurons", "accumulators", "activation"),
    LayerKind.DEPTHWISE_CONVOLUTION: ("neurons", "accumulators", "activation"),
    LayerKind.ELTWISE: ("accumulators", "connection_box"),
    LayerKind.INNER_PRODUCT: ("neurons", "accumulators", "activation"),
    LayerKind.RECURRENT: ("neurons", "connection_box", "activation"),
    LayerKind.ASSOCIATIVE: ("connection_box", "accumulators"),
    LayerKind.POOLING: ("pooling",),
    LayerKind.LRN: ("lrn",),
    LayerKind.DROPOUT: ("dropout",),
    LayerKind.RELU: ("activation",),
    LayerKind.SIGMOID: ("activation",),
    LayerKind.TANH: ("activation",),
    LayerKind.SOFTMAX: ("activation", "classifier"),
    LayerKind.CLASSIFIER: ("classifier",),
    LayerKind.CONCAT: ("connection_box",),
    LayerKind.INCEPTION: ("pooling", "neurons", "accumulators"),
}


class CoordinatorState(NamedTuple):
    """One coordinator FSM state: one fold and its compiled address plan.

    ``main`` covers the fold's main-table rows (feature reads, weight
    reads, then writes, split at ``weight_reads_at`` and ``writes_at``);
    ``data`` and ``weight`` cover its buffer replays.  The word counts
    are the traffic the compiler declared for the fold as it generated
    the rows; the checkers compare the tables against them.  The layer,
    phase index and accumulator hold (``phase.partial``) are read from
    ``phase``, and a state's index is its position in
    :attr:`CoordinatorProgram.states`.
    """

    phase: FoldPhase
    #: Pre-defined trigger event recorded in the context buffer.
    event: str
    #: Ordered producer→consumer chain of functional block instances.
    route: tuple[str, ...]
    main: range
    weight_reads_at: int
    writes_at: int
    data: range
    weight: range
    read_words: int
    write_words: int
    replay_words: int


@dataclass
class CoordinatorProgram:
    """The complete FSM program: one state per fold, in fold order, and
    the three AGU pattern tables their ranges index.

    The tables are the one pattern store: each compiled
    :class:`AccessPattern` is held once, and a reader slices a table by
    a state's ranges.
    """

    states: list[CoordinatorState] = field(default_factory=list)
    #: Main AGU (DRAM <-> buffers): per fold, feature reads, weight
    #: reads, then writes.
    main_table: list[AccessPattern] = field(default_factory=list)
    #: Data AGU (feature buffer -> datapath).
    data_table: list[AccessPattern] = field(default_factory=list)
    #: Weight AGU (weight buffer -> datapath).
    weight_table: list[AccessPattern] = field(default_factory=list)
    #: The states as timing columns
    #: (:func:`repro.sim.accel.program_columns`), built on first use and
    #: shared by every design bound to this program.
    fold_columns: FoldColumns | None = field(default=None, repr=False,
                                             compare=False)

    @property
    def n_states(self) -> int:
        return len(self.states)


def route_for_phase(design: AcceleratorDesign, phase: FoldPhase) -> tuple[str, ...]:
    """Connection-box route of a fold, trimmed to instantiated blocks."""
    route = KIND_ROUTES.get(phase.kind)
    if route is None:
        raise CompileError(f"no datapath route for layer kind {phase.kind}")
    present = tuple(block for block in route if block in design.components)
    if not present:
        raise CompileError(
            f"none of the blocks {route} for fold {phase.layer}"
            f"#{phase.phase_index} exist in the design"
        )
    return present

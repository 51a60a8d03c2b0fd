"""Coordinator FSM program generation.

"The configuration signals are generated in time by the FSM-based
coordinator.  The FSMs are also created by the NN-Gen compiler" (paper
§3.3).  A :class:`ControlState` is one FSM state: the fold it executes,
the producer→consumer reconnection of the connection box, the AGU
pattern selections, and the trigger event recorded in the context
buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.address import PatternTables, PhaseAddressPlan
from repro.compiler.patterns import AccessPattern
from repro.errors import CompileError
from repro.frontend.layers import LayerKind
from repro.nngen.design import AcceleratorDesign, FoldPhase

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


@dataclass(frozen=True)
class ControlState:
    """One coordinator FSM state (one fold phase)."""

    index: int
    layer: str
    phase_index: int
    event: str
    #: Ordered producer→consumer chain of functional block instances.
    route: tuple[str, ...]
    #: AGU pattern table indices selected in this state: its address
    #: plan's ranges over the shared tables.
    main_patterns: range
    data_patterns: range
    weight_patterns: range
    #: Whether the accumulators must hold (partial fold) or flush.
    accumulate_hold: bool = False


@dataclass
class CoordinatorProgram:
    """The complete FSM program plus the shared pattern tables."""

    states: list[ControlState]
    #: The AGU pattern tables the states and the address plans index.
    tables: PatternTables

    @property
    def main_table(self) -> list[AccessPattern]:
        return self.tables.main

    @property
    def data_table(self) -> list[AccessPattern]:
        return self.tables.data

    @property
    def weight_table(self) -> list[AccessPattern]:
        return self.tables.weight

    @property
    def n_states(self) -> int:
        return len(self.states)

    def events(self) -> list[str]:
        return [state.event for state in self.states]


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


def build_coordinator_program(
        design: AcceleratorDesign,
        plans: list[PhaseAddressPlan]) -> CoordinatorProgram:
    """Assemble the FSM program from the per-phase address plans.

    The plans come from one :meth:`AddressFlowGenerator.plans` call, so
    they share one :class:`PatternTables`; each state selects its plan's
    index ranges in it.
    """
    if not plans:
        raise CompileError("network produced no control states")
    routes: dict[LayerKind, tuple[str, ...]] = {}
    states = []
    for index, plan in enumerate(plans):
        phase = plan.phase
        route = routes.get(phase.kind)
        if route is None:
            route = routes[phase.kind] = route_for_phase(design, phase)
        states.append(ControlState(
            index=index,
            layer=phase.layer,
            phase_index=phase.phase_index,
            event=plan.event,
            route=route,
            main_patterns=plan.main,
            data_patterns=plan.data,
            weight_patterns=plan.weight,
            accumulate_hold=phase.partial,
        ))
    return CoordinatorProgram(states=states, tables=plans[0].tables)

"""Control-program analysis (pass "control").

The coordinator FSM is a linear chain: state ``i`` — the state at
position ``i`` of :attr:`CoordinatorProgram.states` — hands over to
state ``i+1`` and the final state terminates the propagation, so every
state of a non-empty program is reachable.  The pass proves termination
of that chain and the bijection between fold phases and FSM states, and
checks each state's pattern ranges against the word counts of its own
address plan — with no replay:

* ``ctl.state-order`` (ERROR) — the FSM has no states, so nothing ever
  executes;
* ``ctl.fold-unscheduled`` (ERROR) — a fold phase has no FSM state;
* ``ctl.fold-duplicate`` (ERROR) — a fold phase is scheduled twice;
* ``ctl.orphan-state`` (ERROR) — a state executes a fold the design
  never planned;
* ``ctl.event-collision`` (ERROR) — two states share a trigger event;
* ``ctl.partial-not-flushed`` (ERROR) — a layer's last fold still holds
  partial sums (the accumulators would never flush);
* ``ctl.pattern-id`` (ERROR) — a state selects a pattern outside its
  table;
* ``ctl.pattern-shared`` / ``ctl.pattern-unused`` (WARNING) — a table
  entry selected by several states or by none;
* ``ctl.traffic-mismatch`` (ERROR) — a state's pattern footprints
  disagree with the fold's declared DRAM/buffer traffic;
* ``ctl.route-missing`` (ERROR) — a state routes through a functional
  block the design never instantiated.
"""

from __future__ import annotations

from repro.analysis.report import Finding, Severity
from repro.compiler.program import ControlProgram
from repro.nngen.design import FoldPhase


class _ControlPass:
    def __init__(self, program: ControlProgram) -> None:
        self.program = program
        self.coordinator = program.coordinator
        self.findings: list[Finding] = []

    def _emit(self, rule: str, severity: Severity, where: str,
              message: str, **details: object) -> None:
        self.findings.append(Finding(rule=rule, severity=severity,
                                     where=where, message=message,
                                     details=details))

    def _check_chain(self) -> None:
        if not self.coordinator.states:
            self._emit("ctl.state-order", Severity.ERROR, "coordinator",
                       "the FSM has no states; nothing ever executes")

    def _check_folds(self) -> None:
        scheduled: dict[tuple[str, int], int] = {}
        for state in self.coordinator.states:
            key = (state.phase.layer, state.phase.phase_index)
            scheduled[key] = scheduled.get(key, 0) + 1
        folds = {(phase.layer, phase.phase_index)
                 for phase in self.program.design.folding}
        for key in sorted(folds - set(scheduled)):
            self._emit(
                "ctl.fold-unscheduled", Severity.ERROR,
                f"{key[0]}#{key[1]}",
                "fold phase has no coordinator state; the layer segment "
                "never executes",
            )
        for key, count in sorted(scheduled.items()):
            if key not in folds:
                self._emit(
                    "ctl.orphan-state", Severity.ERROR,
                    f"{key[0]}#{key[1]}",
                    "coordinator state executes a fold the design never "
                    "planned",
                )
            elif count > 1:
                self._emit(
                    "ctl.fold-duplicate", Severity.ERROR,
                    f"{key[0]}#{key[1]}",
                    f"fold phase is scheduled by {count} states; outputs "
                    "would be produced twice",
                    states=count,
                )

    def _check_events(self) -> None:
        seen: dict[str, int] = {}
        for index, state in enumerate(self.coordinator.states):
            if state.event in seen:
                self._emit(
                    "ctl.event-collision", Severity.ERROR,
                    f"state {index}",
                    f"trigger event '{state.event}' already fires state "
                    f"{seen[state.event]}",
                    event=state.event,
                )
            else:
                seen[state.event] = index

    def _check_termination(self) -> None:
        last_phase_of_layer: dict[str, FoldPhase] = {}
        for state in self.coordinator.states:
            last_phase_of_layer[state.phase.layer] = state.phase
        for layer, phase in last_phase_of_layer.items():
            if phase.partial:
                self._emit(
                    "ctl.partial-not-flushed", Severity.ERROR,
                    f"{layer}#{phase.phase_index}",
                    "the layer's final fold still holds partial sums; the "
                    "accumulators never flush and the output is never "
                    "written",
                )

    def _check_patterns(self) -> None:
        tables = {
            "main": self.coordinator.main_table,
            "data": self.coordinator.data_table,
            "weight": self.coordinator.weight_table,
        }
        uses: dict[str, dict[int, int]] = {name: {} for name in tables}
        for index, state in enumerate(self.coordinator.states):
            where = f"state {index} ({state.event})"
            for name, ids in (("main", state.main), ("data", state.data),
                              ("weight", state.weight)):
                table = tables[name]
                for pattern_id in ids:
                    if not 0 <= pattern_id < len(table):
                        self._emit(
                            "ctl.pattern-id", Severity.ERROR, where,
                            f"{name} pattern id {pattern_id} is outside "
                            f"the {len(table)}-entry table",
                            table=name, pattern_id=pattern_id,
                        )
                        continue
                    uses[name][pattern_id] = uses[name].get(pattern_id, 0) + 1
        for name, table in tables.items():
            for pattern_id in range(len(table)):
                count = uses[name].get(pattern_id, 0)
                if count == 0:
                    self._emit(
                        "ctl.pattern-unused", Severity.WARNING,
                        f"{name} table[{pattern_id}]",
                        "pattern is never selected by any state (dead "
                        "table entry)", table=name, pattern_id=pattern_id,
                    )
                elif count > 1:
                    self._emit(
                        "ctl.pattern-shared", Severity.WARNING,
                        f"{name} table[{pattern_id}]",
                        f"pattern is selected by {count} states; per-fold "
                        "traffic accounting becomes ambiguous",
                        table=name, pattern_id=pattern_id, states=count,
                    )

    def _check_traffic_and_routes(self) -> None:
        components = self.program.design.components
        tables = self.coordinator
        for index, state in enumerate(tables.states):
            where = f"state {index} ({state.event})"
            main_words = sum(
                tables.main_table[i].footprint for i in state.main
                if 0 <= i < len(tables.main_table))
            declared = state.read_words + state.write_words
            if main_words != declared:
                self._emit(
                    "ctl.traffic-mismatch", Severity.ERROR, where,
                    f"main patterns move {main_words} DRAM words, the "
                    f"fold declares {declared}",
                    moved=main_words, declared=declared, table="main",
                )
            replay_words = sum(
                tables.data_table[i].footprint for i in state.data
                if 0 <= i < len(tables.data_table))
            replay_words += sum(
                tables.weight_table[i].footprint for i in state.weight
                if 0 <= i < len(tables.weight_table))
            declared_replay = state.replay_words
            if replay_words != declared_replay:
                self._emit(
                    "ctl.traffic-mismatch", Severity.ERROR, where,
                    f"data/weight patterns replay {replay_words} buffer "
                    f"words, the fold declares {declared_replay}",
                    moved=replay_words, declared=declared_replay,
                    table="data/weight",
                )
            for block in state.route:
                if block not in components:
                    self._emit(
                        "ctl.route-missing", Severity.ERROR, where,
                        f"route block '{block}' is not instantiated in "
                        "the design", block=block,
                    )

    def run(self) -> list[Finding]:
        self._check_chain()
        self._check_folds()
        self._check_events()
        self._check_termination()
        self._check_patterns()
        self._check_traffic_and_routes()
        if not any(f.severity is Severity.ERROR for f in self.findings):
            n = self.coordinator.n_states
            self.findings.append(Finding(
                rule="ctl.proof", severity=Severity.INFO, where="coordinator",
                message=(f"linear FSM of {n} states is fully reachable, "
                         "terminates, and schedules every fold exactly "
                         "once"),
            ))
        return self.findings


def analyze_control(program: ControlProgram) -> list[Finding]:
    """Run the control-program pass over one compiled program."""
    return _ControlPass(program).run()

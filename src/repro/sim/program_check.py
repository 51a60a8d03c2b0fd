"""Control-program verification on the hardware models.

Walks a compiled :class:`~repro.compiler.program.ControlProgram` state by
state, replays the AGU patterns each state selects on the
cycle-faithful :class:`~repro.sim.agu_model.AGUHardwareModel` (each
distinct pattern shape once; the model is translation-invariant in the
start address), and checks

* each replayed stream equals the compiler's arithmetic expansion,
* main-AGU streams stay inside the DRAM map,
* the per-state word counts match the fold's declared traffic.

This is the repository's stand-in for the paper's "RTL-level simulation
of forward-propagation ... to verify the timing and function of the
generated accelerators" (§4.1) at the control-path level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.program import ControlProgram
from repro.errors import SimulationError
from repro.sim.agu_model import AGUHardwareModel


@dataclass
class ProgramCheckReport:
    """Outcome of verifying one control program."""

    states_checked: int = 0
    patterns_replayed: int = 0
    words_streamed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        if self.errors:
            raise SimulationError(
                "program check failed:\n" + "\n".join(self.errors[:10])
            )


def _replay_table(table, label: str, report: ProgramCheckReport,
                  dram_top: int | None = None) -> None:
    """Check every row of one pattern table on the AGU model.

    The model is translation-invariant in the start address (``addr``
    and ``row_base`` load the start, then only add ``stride`` and
    ``offset``), and so is :meth:`AccessPattern.expand`.  So the first
    row of each :attr:`AccessPattern.shape` is clocked, at its own table
    index and start, and compared with its expansion; every later row
    of that shape streams the same words shifted by the difference of
    the starts, and is bounded from its start plus the replay's
    lowest and highest offset.
    """
    if not table:
        return
    model = AGUHardwareModel(patterns=table)
    #: shape -> (words streamed, lowest and highest offset from start)
    replays: dict[tuple[int, int, int, int], tuple[int, int, int]] = {}
    for index, pattern in enumerate(table):
        start = pattern.start_address
        replay = replays.get(pattern.shape)
        if replay is None:
            stream = model.run_pattern(index)
            expected = pattern.expand()
            if stream != expected:
                report.errors.append(
                    f"{label} pattern {index}: hardware stream diverges "
                    f"(first {stream[:4]} vs {expected[:4]})"
                )
            replay = replays[pattern.shape] = (
                len(stream), min(stream, default=start) - start,
                max(stream, default=start) - start)
        words, low, high = replay
        report.patterns_replayed += 1
        report.words_streamed += words
        if dram_top is not None and words and (
                start + low < 0 or start + high >= dram_top):
            outside = start + high if start + high >= dram_top \
                else start + low
            report.errors.append(
                f"{label} pattern {index}: address {outside} outside "
                f"the {dram_top}-element DRAM map"
            )


def verify_program(program: ControlProgram) -> ProgramCheckReport:
    """Check every compiled pattern of every coordinator state.

    Each distinct pattern shape of a table is replayed on the hardware
    model once (see :func:`_replay_table`); ``words_streamed`` still
    counts every word the AGUs would emit for every pattern.
    """
    report = ProgramCheckReport()
    dram_top = program.memory_map.total_elements

    _replay_table(program.coordinator.main_table, "main", report,
                  dram_top=dram_top)
    _replay_table(program.coordinator.data_table, "data", report)
    _replay_table(program.coordinator.weight_table, "weight", report)

    # Per-state cross-checks: selected patterns exist and their word
    # counts match the fold's declared traffic.
    coordinator = program.coordinator
    main_table = coordinator.main_table
    for index, state in enumerate(coordinator.states):
        report.states_checked += 1
        main_words = sum(main_table[i].footprint for i in state.main
                         if 0 <= i < len(main_table))
        declared = state.read_words + state.write_words
        if main_words != declared:
            report.errors.append(
                f"state {index} ({state.event}): main patterns move "
                f"{main_words} words, the fold declares {declared}"
            )
        for table, ids in ((main_table, state.main),
                           (coordinator.data_table, state.data),
                           (coordinator.weight_table, state.weight)):
            for pattern_id in ids:
                if not 0 <= pattern_id < len(table):
                    report.errors.append(
                        f"state {index}: pattern id {pattern_id} "
                        f"outside its table"
                    )
    return report

"""The accelerator timing model and simulator.

Each coordinator state (fold phase) is a load stage (main AGU moving
the fold's tiles over the AXI port) and a compute stage (datapath
beats).  Double buffering lets phase *i+1*'s load overlap phase *i*'s
compute, exactly the behaviour the two-bank buffers and the
context-buffer triggers implement in hardware.  With one main AGU and
one shared datapath that pipeline is a two-term recurrence, which
:func:`pipeline_timing` evaluates as a prefix maximum over a fold
schedule's :class:`FoldColumns`, one array per field, into one
columnar :class:`PhaseTraces`.  :func:`program_timing` runs it over
the columns of a compiled coordinator program, built once per program
(:func:`program_columns`): the simulator and the build pipeline's
``timing`` stage report that timing, and so does every design-space
sweep.  The analytic estimator (:mod:`repro.estimate`) hands the same
recurrence columns whose traffic it derives without a compiled
program, as an independent oracle.  A timing reads the fold schedule,
the datapath and the device, not the design's area; :func:`priced`
turns it into one design's :class:`SimulationResult`.

Functional output is produced by the bit-level
:class:`~repro.sim.quantized.QuantizedExecutor` (the two views describe
the same machine; splitting them keeps big networks simulable at full
scale on a laptop — see DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.compiler.program import ControlProgram
from repro.errors import SimulationError
from repro.nngen.design import AcceleratorDesign, FoldPhase
from repro.sim.datapath import KIND_CODES, buffer_stream_beats, compute_beats
from repro.sim.memory import DRAMModel
from repro.sim.plan import ExecutionPlan
from repro.sim.power import EnergyModel, EnergyReport
from repro.sim.quantized import QuantizedExecutor


@dataclass(frozen=True, eq=False)
class FoldColumns:
    """A fold schedule and the traffic of each fold, as columns.

    One array per field, one entry per fold in fold order: ``layer``
    holds the layer names, ``kind`` the layer kinds' codes
    (:data:`~repro.sim.datapath.KIND_CODES`), ``partial`` is 0 or 1, and
    the rest are the :class:`~repro.nngen.design.FoldPhase` fields of the
    same name.  The traffic is at datapath word granularity: the DRAM
    words the fold reads and writes, its main-AGU bursts and the words
    its buffers replay to the datapath.  Every column but ``layer`` is
    int64.
    """

    layer: np.ndarray
    kind: np.ndarray
    phase_index: np.ndarray
    out_count: np.ndarray
    in_count: np.ndarray
    macs_per_output: np.ndarray
    partial: np.ndarray
    input_words: np.ndarray
    weight_words: np.ndarray
    output_words: np.ndarray
    macs: np.ndarray
    dram_words: np.ndarray
    bursts: np.ndarray
    sram_read_words: np.ndarray

    @classmethod
    def of(cls, phases: Sequence[FoldPhase],
           traffic: Iterable[tuple[int, int, int, int]]) -> "FoldColumns":
        """The columns of ``phases``, given each fold's traffic as (DRAM
        read words, DRAM write words, bursts, buffer read words)."""
        # One allocation holds every int column (its rows, in field
        # order): the columns live as long as the program does.  They
        # are read-only, as a program's columns are shared by every
        # design bound to it.
        table = np.array(
            [(KIND_CODES[phase.kind], phase.phase_index, phase.out_count,
              phase.in_count, phase.macs_per_output, phase.partial,
              phase.input_words, phase.weight_words, phase.output_words,
              phase.macs, reads + writes, bursts, sram)
             for phase, (reads, writes, bursts, sram)
             in zip(phases, traffic)],
            dtype=np.int64).reshape(len(phases), 13).T.copy()
        table.flags.writeable = False
        layer = np.array([phase.layer for phase in phases], dtype=str)
        layer.flags.writeable = False
        return cls(layer, *table)

    def __len__(self) -> int:
        return len(self.kind)


@dataclass(frozen=True, eq=False)
class PhaseTraces:
    """Timing record of an executed fold schedule, as columns.

    One array per field, one entry per fold in fold order: the layer
    name, the phase index, the load and compute cycles, the cycles the
    fold's compute starts and ends, and its MACs.  Two records are equal
    when every column is.
    """

    layer: np.ndarray
    phase_index: np.ndarray
    load: np.ndarray
    compute: np.ndarray
    start: np.ndarray
    end: np.ndarray
    macs: np.ndarray

    def __len__(self) -> int:
        return len(self.layer)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseTraces):
            return NotImplemented
        return all(np.array_equal(getattr(self, column.name),
                                  getattr(other, column.name))
                   for column in fields(self))

    def per_layer(self) -> dict[str, tuple[int, float, float, float]]:
        """Each layer's folds and its summed compute cycles, load cycles
        and MACs, in the order the layers first appear."""
        names, first, inverse = np.unique(
            self.layer, return_index=True, return_inverse=True)
        folds = np.bincount(inverse, minlength=len(names))
        sums = [np.bincount(inverse, weights=column, minlength=len(names))
                for column in (self.compute, self.load, self.macs)]
        order = np.argsort(first)
        return dict(zip(names[order].tolist(), zip(
            folds[order].tolist(), *(total[order].tolist()
                                     for total in sums))))


@dataclass
class SimulationResult:
    """Outcome of one forward propagation on the simulated accelerator."""

    cycles: int
    time_s: float
    energy: EnergyReport
    phase_traces: PhaseTraces
    outputs: dict[str, np.ndarray] | None = None
    dram_words: int = 0
    macs: int = 0

    @property
    def output(self) -> np.ndarray:
        if not self.outputs:
            raise SimulationError("run was timing-only; no functional output")
        return self.outputs["__output__"]

    def layer_cycles(self) -> dict[str, float]:
        """Busy cycles attributed to each layer (compute view)."""
        return {layer: compute for layer, (_, compute, _, _)
                in self.phase_traces.per_layer().items()}

    def layer_report(self, peak_macs_per_cycle: int | None = None) -> str:
        """Per-layer breakdown: folds, cycles, load/compute balance.

        ``peak_macs_per_cycle`` (the datapath's multiplier count) adds a
        utilization column — achieved MACs per busy cycle over peak.
        """
        lines = ["layer            folds  compute    load       bound    "
                 + ("util" if peak_macs_per_cycle else "")]
        for layer, (folds, compute, load, macs) in \
                self.phase_traces.per_layer().items():
            bound = "memory" if load > compute else "compute"
            util = ""
            if peak_macs_per_cycle:
                achieved = macs / max(1.0, compute)
                util = f"{achieved / peak_macs_per_cycle:6.1%}"
            lines.append(
                f"{layer:15s}  {folds:5d}  {compute:9.0f}"
                f"  {load:9.0f}  {bound:8s} {util}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"{self.cycles} cycles = {self.time_s * 1e3:.3f} ms, "
            f"{self.macs} MACs, {self.dram_words} DRAM words, "
            f"energy {self.energy}"
        )


#: Cycles, phase traces and activity counts of one fold schedule.
Timing = tuple[int, PhaseTraces, EnergyModel]


def pipeline_timing(design: AcceleratorDesign, folds: FoldColumns) -> Timing:
    """Cycles, phase traces and activity counts of one fold schedule.

    One main AGU loads the folds back to back, so ``load_finish[i] =
    load_finish[i-1] + load[i]``, the first load starting after the
    fixed DMA/launch overhead the host ARM core pays before the first
    pattern trigger reaches the coordinator; the shared datapath
    computes fold *i* once its operands are on chip and fold *i-1*
    retired, so ``start[i] = max(load_finish[i], end[i-1])`` and
    ``end[i] = start[i] + compute[i]`` (:func:`pipeline_ends`).  Total
    cycles are the last fold's end.
    """
    if not len(folds):
        raise SimulationError("fold schedule has no phases")
    device = design.budget.device
    word_bytes = -(-design.datapath.data_width // 8)
    load = DRAMModel.for_device(device).burst_cycles(
        folds.dram_words * word_bytes, folds.bursts)
    compute = np.maximum(compute_beats(design, folds),
                         buffer_stream_beats(design, folds))
    end = pipeline_ends(load, compute, device.invocation_overhead_cycles)
    start = end - compute
    # A memoized timing's traces are shared by every design and request
    # that reads them.
    for column in (load, compute, start, end):
        column.flags.writeable = False
    energy_model = EnergyModel(device, word_bytes=word_bytes)
    energy_model.count(macs=folds.macs,
                       sram_words=folds.sram_read_words + folds.output_words,
                       dram_words=folds.dram_words)
    traces = PhaseTraces(layer=folds.layer, phase_index=folds.phase_index,
                         load=load, compute=compute, start=start, end=end,
                         macs=folds.macs)
    return int(end[-1]), traces, energy_model


def pipeline_ends(load: np.ndarray, compute: np.ndarray,
                  overhead: int) -> np.ndarray:
    """Each fold's compute end cycle under the pipeline recurrence, the
    first load starting ``overhead`` cycles in.

    Unrolled, with ``C`` the running sum of compute cycles, ``end[i] =
    C[i] + max(0, max over j <= i of load_finish[j] - C[j-1])``: one
    prefix maximum over int64 columns.
    """
    load_finish = overhead + np.cumsum(load)
    compute_total = np.cumsum(compute)
    return compute_total + np.maximum(np.maximum.accumulate(
        load_finish - (compute_total - compute)), 0)


def program_columns(program: ControlProgram) -> FoldColumns:
    """The fold columns of a compiled program: each coordinator state's
    fold, and the traffic its address patterns move (one burst per
    main-AGU pattern).

    They are built once and kept on the program's
    :class:`~repro.compiler.control.CoordinatorProgram`, which every
    design bound to the program shares.
    """
    coordinator = program.coordinator
    if coordinator.fold_columns is None:
        states = coordinator.states
        coordinator.fold_columns = FoldColumns.of(
            [state.phase for state in states],
            [(state.read_words, state.write_words, len(state.main),
              state.replay_words) for state in states])
    return coordinator.fold_columns


def program_timing(program: ControlProgram) -> Timing:
    """The recurrence over a compiled program's fold columns."""
    return pipeline_timing(program.design, program_columns(program))


def priced(design: AcceleratorDesign, timing: Timing,
           occupied_lut: int | None = None) -> SimulationResult:
    """``design``'s timing-only result of ``timing``: its static power
    priced at the design's LUTs (``occupied_lut`` if the caller has
    counted them)."""
    cycles, traces, energy_model = timing
    if occupied_lut is None:
        occupied_lut = design.resource_report().lut
    return SimulationResult(
        cycles=cycles,
        time_s=cycles / design.budget.device.clock_hz,
        energy=energy_model.report(cycles, occupied_lut),
        phase_traces=traces,
        dram_words=energy_model.dram_words,
        macs=energy_model.macs,
    )


class AcceleratorSimulator:
    """Simulates one generated accelerator running its control program."""

    def __init__(
        self, program: ControlProgram,
        weights: Mapping[str, dict[str, np.ndarray]] | None = None,
        plan: Callable[[], ExecutionPlan] | None = None,
        timed: SimulationResult | None = None,
    ) -> None:
        self.program = program
        self.design = program.design
        self.weights = weights
        #: The timing-only result, computed on first use unless given (a
        #: served model hands its sessions the one it computes).
        self._timed = timed
        self._executor: QuantizedExecutor | None = None
        #: Lazy provider of a shared execution plan for the functional
        #: executor (a served model hands its sessions the one plan it
        #: packs), asked only when a batched or warmed run needs it.
        self._plan = plan

    # ------------------------------------------------------------------

    def _timing(self) -> SimulationResult:
        """The timing/energy pass, computed and priced once per
        simulator.

        The control program is input-independent (the fold schedule and
        address streams are fixed at compile time), so one simulator can
        serve many requests reusing the same cycle/energy result — the
        batched serving runtime leans on this.
        """
        if self._timed is None:
            self._timed = priced(self.design, program_timing(self.program))
        return self._timed

    def _functional_executor(self, batched: bool = False) -> QuantizedExecutor:
        """The bit-level executor, built once and reset per request.

        A batched run hands the executor the shared plan, if the session
        was given one, before it would pack its own.
        """
        if self.weights is None:
            raise SimulationError("functional run needs the trained weights")
        if self._executor is None:
            self._executor = QuantizedExecutor.from_program(
                self.program, self.weights)
        if batched and self._plan is not None and self._executor._plan is None:
            self._executor._plan = self._plan()
        self._executor.reset_state()
        return self._executor

    def warm(self, functional: bool = True) -> None:
        """Populate the per-simulator caches before the first request."""
        self._timing()
        if functional and self.weights is not None:
            self._functional_executor(batched=True).plan()

    def run(self, inputs: np.ndarray | None = None,
            functional: bool = True,
            all_blobs: bool = False) -> SimulationResult:
        """Simulate one forward propagation.

        ``functional=False`` skips the bit-level execution (used by the
        performance sweeps where only timing/energy are measured).
        ``all_blobs=True`` keeps every intermediate blob in ``outputs``;
        by default only the network output (and the ``"__output__"``
        alias) is dequantized and returned.
        """
        outputs = None
        if functional:
            if inputs is None:
                raise SimulationError("functional run needs an input array")
            executor = self._functional_executor()
            blobs = executor.forward(inputs, all_blobs=all_blobs)
            output_blob = self.design.resolved.output
            outputs = dict(blobs)
            outputs["__output__"] = blobs[output_blob]
        return replace(self._timing(), outputs=outputs)

    def run_batch(self, batch: "list[np.ndarray] | np.ndarray",
                  functional: bool = True,
                  all_blobs: bool = False) -> list[SimulationResult]:
        """Simulate one forward propagation per input in ``batch``.

        The whole batch runs through one vectorized
        :meth:`~repro.sim.quantized.QuantizedExecutor.forward_batch`
        pass over the shared execution plan, and the input-independent
        timing pass is replayed once for all requests.  Every request
        starts from clean recurrent state — batch entries are
        independent requests, not timesteps of one sequence.
        """
        if not functional:
            return [self.run(functional=False) for _ in batch]
        timed = self._timing()
        executor = self._functional_executor(batched=True)
        stacked = executor.forward_batch(batch, all_blobs=all_blobs)
        output_blob = self.design.resolved.output
        results = []
        for index in range(len(batch)):
            outputs = {blob: array[index]
                       for blob, array in stacked.items()}
            outputs["__output__"] = outputs[output_blob]
            results.append(replace(timed, outputs=outputs))
        return results

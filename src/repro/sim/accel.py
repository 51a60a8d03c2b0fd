"""The accelerator timing model and simulator.

Each coordinator state (fold phase) is a load stage (main AGU moving
the fold's tiles over the AXI port) and a compute stage (datapath
beats).  Double buffering lets phase *i+1*'s load overlap phase *i*'s
compute, exactly the behaviour the two-bank buffers and the
context-buffer triggers implement in hardware.  With one main AGU and
one shared datapath that pipeline is a two-term recurrence,
:func:`pipeline_timing`, which both the simulator and the analytic
estimator (:mod:`repro.estimate`) evaluate; they differ only in where
each phase's :class:`PhaseTraffic` comes from.  The simulator reads it
off the compiled address plans.

Functional output is produced by the bit-level
:class:`~repro.sim.quantized.QuantizedExecutor` (the two views describe
the same machine; splitting them keeps big networks simulable at full
scale on a laptop — see DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.compiler.address import PhaseAddressPlan
from repro.compiler.program import ControlProgram
from repro.errors import SimulationError
from repro.nngen.design import AcceleratorDesign, FoldPhase
from repro.sim.datapath import buffer_stream_beats, compute_beats
from repro.sim.memory import DRAMModel
from repro.sim.plan import ExecutionPlan
from repro.sim.power import EnergyModel, EnergyReport
from repro.sim.quantized import QuantizedExecutor


@dataclass(frozen=True)
class PhaseTraffic:
    """DRAM/SRAM footprint of one fold phase, at datapath word granularity."""

    dram_read_words: int
    dram_write_words: int
    bursts: int
    sram_read_words: int


@dataclass
class PhaseTrace:
    """Timing record of one executed fold phase."""

    layer: str
    phase_index: int
    load_cycles: int
    compute_cycles: int
    start_cycle: float
    end_cycle: float
    macs: int = 0


@dataclass
class SimulationResult:
    """Outcome of one forward propagation on the simulated accelerator."""

    cycles: int
    time_s: float
    energy: EnergyReport
    phase_traces: list[PhaseTrace] = field(default_factory=list)
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
        per_layer: dict[str, float] = {}
        for trace in self.phase_traces:
            per_layer[trace.layer] = per_layer.get(trace.layer, 0.0) \
                + trace.compute_cycles
        return per_layer

    def layer_report(self, peak_macs_per_cycle: int | None = None) -> str:
        """Per-layer breakdown: folds, cycles, load/compute balance.

        ``peak_macs_per_cycle`` (the datapath's multiplier count) adds a
        utilization column — achieved MACs per busy cycle over peak.
        """
        per_layer: dict[str, dict[str, float]] = {}
        for trace in self.phase_traces:
            entry = per_layer.setdefault(trace.layer, {
                "folds": 0, "compute": 0.0, "load": 0.0, "macs": 0})
            entry["folds"] += 1
            entry["compute"] += trace.compute_cycles
            entry["load"] += trace.load_cycles
            entry["macs"] += trace.macs
        lines = ["layer            folds  compute    load       bound    "
                 + ("util" if peak_macs_per_cycle else "")]
        for layer, entry in per_layer.items():
            bound = "memory" if entry["load"] > entry["compute"] \
                else "compute"
            util = ""
            if peak_macs_per_cycle:
                achieved = entry["macs"] / max(1.0, entry["compute"])
                util = f"{achieved / peak_macs_per_cycle:6.1%}"
            lines.append(
                f"{layer:15s}  {entry['folds']:5d}  {entry['compute']:9.0f}"
                f"  {entry['load']:9.0f}  {bound:8s} {util}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        return (
            f"{self.cycles} cycles = {self.time_s * 1e3:.3f} ms, "
            f"{self.macs} MACs, {self.dram_words} DRAM words, "
            f"energy {self.energy}"
        )


def pipeline_timing(
    design: AcceleratorDesign,
    phases: Iterable[tuple[FoldPhase, PhaseTraffic]],
) -> tuple[int, list[PhaseTrace], EnergyModel]:
    """Cycles, phase traces and activity counts of one fold schedule.

    One main AGU loads the folds back to back, so ``load_finish[i] =
    load_finish[i-1] + load[i]``, the first load starting after the
    fixed DMA/launch overhead the host ARM core pays before the first
    pattern trigger reaches the coordinator; the shared datapath
    computes fold *i* once its operands are on chip and fold *i-1*
    retired, so ``start[i] = max(load_finish[i], end[i-1])`` and
    ``end[i] = start[i] + compute[i]``.  Total cycles are the last
    fold's end.
    """
    device = design.budget.device
    dram = DRAMModel.for_device(device)
    word_bytes = -(-design.datapath.data_width // 8)
    energy_model = EnergyModel(device, design, word_bytes=word_bytes)
    traces: list[PhaseTrace] = []
    load_finish = float(device.invocation_overhead_cycles)
    compute_finish = 0.0
    for phase, traffic in phases:
        dram_words = traffic.dram_read_words + traffic.dram_write_words
        load_cycles = dram.burst_cycles(dram_words * word_bytes,
                                        bursts=max(1, traffic.bursts))
        compute_cycles = max(compute_beats(design, phase),
                             buffer_stream_beats(design, phase))
        load_finish += load_cycles
        start = max(load_finish, compute_finish)
        compute_finish = start + compute_cycles
        energy_model.count_phase(
            macs=phase.macs,
            sram_words=traffic.sram_read_words + phase.output_words,
            dram_words=dram_words,
        )
        traces.append(PhaseTrace(
            layer=phase.layer,
            phase_index=phase.phase_index,
            load_cycles=load_cycles,
            compute_cycles=compute_cycles,
            start_cycle=start,
            end_cycle=compute_finish,
            macs=phase.macs,
        ))
    if not traces:
        raise SimulationError("fold schedule has no phases")
    return int(round(compute_finish)), traces, energy_model


def plan_traffic(plan: PhaseAddressPlan) -> PhaseTraffic:
    """The traffic a compiled phase's address patterns move."""
    return PhaseTraffic(
        dram_read_words=plan.dram_read_words(),
        dram_write_words=plan.dram_write_words(),
        bursts=len(plan.main_feature_reads) + len(plan.main_weight_reads)
        + len(plan.main_writes),
        sram_read_words=plan.buffer_read_words(),
    )


class AcceleratorSimulator:
    """Simulates one generated accelerator running its control program."""

    def __init__(
        self, program: ControlProgram,
        weights: Mapping[str, dict[str, np.ndarray]] | None = None,
        plan: Callable[[], ExecutionPlan] | None = None,
    ) -> None:
        self.program = program
        self.design = program.design
        self.weights = weights
        self.device = self.design.budget.device
        self._timing_cache: tuple[int, list[PhaseTrace], EnergyModel] | None \
            = None
        self._executor: QuantizedExecutor | None = None
        #: Lazy provider of a shared execution plan for the functional
        #: executor (a served model hands its sessions the one plan it
        #: packs), asked only when a batched or warmed run needs it.
        self._plan = plan

    # ------------------------------------------------------------------

    def _timing(self) -> tuple[int, list[PhaseTrace], EnergyModel]:
        """The timing/energy pass, computed once per simulator.

        The control program is input-independent (the fold schedule and
        address streams are fixed at compile time), so one simulator can
        serve many requests reusing the same cycle/energy result — the
        batched serving runtime leans on this.
        """
        if self._timing_cache is None:
            self._timing_cache = pipeline_timing(
                self.design,
                [(plan.phase, plan_traffic(plan))
                 for plan in self.program.address_plans])
        return self._timing_cache

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
        cycles, traces, energy_model = self._timing()
        energy = energy_model.report(cycles)
        outputs = None
        if functional:
            if inputs is None:
                raise SimulationError("functional run needs an input array")
            executor = self._functional_executor()
            blobs = executor.forward(inputs, all_blobs=all_blobs)
            output_blob = self.design.resolved.output
            outputs = dict(blobs)
            outputs["__output__"] = blobs[output_blob]
        return SimulationResult(
            cycles=cycles,
            time_s=cycles / self.device.clock_hz,
            energy=energy,
            phase_traces=traces,
            outputs=outputs,
            dram_words=energy_model.dram_words,
            macs=energy_model.macs,
        )

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
        cycles, traces, energy_model = self._timing()
        energy = energy_model.report(cycles)
        executor = self._functional_executor(batched=True)
        stacked = executor.forward_batch(batch, all_blobs=all_blobs)
        output_blob = self.design.resolved.output
        results = []
        for index in range(len(batch)):
            outputs = {blob: array[index]
                       for blob, array in stacked.items()}
            outputs["__output__"] = outputs[output_blob]
            results.append(SimulationResult(
                cycles=cycles,
                time_s=cycles / self.device.clock_hz,
                energy=energy,
                phase_traces=traces,
                outputs=outputs,
                dram_words=energy_model.dram_words,
                macs=energy_model.macs,
            ))
        return results

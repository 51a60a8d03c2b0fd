"""One-call facade over the DeepBurning flow.

Every consumer of the pipeline used to hand-wire the same five steps —
parse the descriptive script, infer shapes, run NN-Gen under a budget,
compile the control program, construct a simulator.  :func:`build`
collapses that chain into a single call returning a
:class:`BuildArtifacts` bundle, and :func:`simulate` runs one forward
propagation on it::

    import repro

    artifacts = repro.build(script, device="Z-7020", fraction=0.3)
    result = repro.simulate(artifacts)
    print(result.summary())

Since the stage-memoized pipeline (:mod:`repro.pipeline`) landed,
``build`` is a thin wrapper over a shared
:class:`~repro.pipeline.BuildPipeline`: repeated builds of the same
network reuse graph resolution, seeded weights, weight quantization,
generated designs and compiled control programs stage by stage, and the
returned artifacts carry ``stage_seconds``/``stage_keys`` describing
where the time went and which memoized intermediates they reference.
Results are bit-identical to the monolithic chain the wrapper replaced.

The CLI, the design-space explorer, the experiment runner, the baselines
and the examples all route through this module; only the compiler
package itself and :mod:`repro.pipeline` construct the chain by hand.
The batched serving runtime (:mod:`repro.runtime`) wraps the same
artifacts in a :class:`~repro.runtime.model.CompiledModel` for request
streams.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.compiler.program import ControlProgram
from repro.devices.device import Device, ResourceBudget
from repro.fixedpoint.format import QFormat
from repro.frontend import load as load_graph
from repro.frontend.graph import NetworkGraph
from repro.nngen.design import AcceleratorDesign
from repro.sim.accel import AcceleratorSimulator, SimulationResult

if TYPE_CHECKING:
    from repro.pipeline import BuildPipeline

#: Sentinel for ``build(weights=...)``: draw Gaussian weights from the
#: build seed (what every untrained flow did by hand before the facade).
RANDOM_WEIGHTS = "random"


@dataclass(frozen=True)
class BuildArtifacts:
    """Everything the flow produced for one (network, budget) pair.

    Immutable bundle of the parsed graph, the generated design (with the
    resolved graph), the compiled control program, the weights the program
    was compiled against (``None`` for a weightless timing-only build) and
    the resource budget.  Hand it to :func:`simulate`, to
    :mod:`repro.rtl.emit` for Verilog, or to the serving runtime.
    """

    graph: NetworkGraph
    design: AcceleratorDesign
    program: ControlProgram
    budget: ResourceBudget
    #: The float weights, ``{layer: {"weight", "bias", ...}}``: the
    #: caller's dict, or for a seeded build a read-only
    #: :class:`~repro.nn.reference.SeededWeights` that draws them (once,
    #: exactly ``init_weights``' arrays) only when a key is read.  The
    #: build itself draws seeded weights straight into
    #: ``program.dram_image``, which the simulator, the verifier and the
    #: serving runtime read, so a flow that reads no key holds no float
    #: copy.  ``None`` for a weightless timing-only build.
    weights: Mapping[str, dict[str, np.ndarray]] | None = None
    seed: int = 0
    #: Per-stage build time split (``parse_s``, ``resolve_s``,
    #: ``nngen_s``, ``quantize_s``, ``compile_s``); a stage served from
    #: the pipeline cache reads 0.0.  Diagnostic only — excluded from
    #: equality.
    stage_seconds: dict[str, float] | None = field(default=None,
                                                   compare=False)
    #: Content addresses of the memoized intermediates this bundle was
    #: assembled from (``fingerprint``, ``design``, ``seeded``); None
    #: when built outside the staged pipeline.  Excluded from equality.
    stage_keys: dict[str, object] | None = field(default=None,
                                                 compare=False)

    @property
    def input_blob(self) -> str:
        return self.graph.inputs()[0].tops[0]

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.design.resolved.shapes[self.input_blob].dims

    def random_input(self, seed: int | None = None) -> np.ndarray:
        """A uniform [-1, 1) input tensor of the network's input shape.

        Defaults to ``build`` seed + 1, matching the convention every
        hand-wired call site used, so facade runs are bit-identical to
        the code they replaced.
        """
        rng = np.random.default_rng(
            self.seed + 1 if seed is None else seed)
        return rng.uniform(-1.0, 1.0, self.input_shape)

    def summary(self) -> str:
        return f"{self.design.summary()}\n{self.program.summary()}"


def _as_graph(script_or_graph: str | NetworkGraph) -> NetworkGraph:
    """Accept a parsed graph, source text in any registered frontend
    format (descriptive script, ONNX-style JSON document), or a path to
    such a file — all routed through :func:`repro.frontend.load`."""
    return load_graph(script_or_graph)


def build(
    script_or_graph: str | NetworkGraph,
    *,
    device: str | Device = "Z-7045",
    fraction: float = 0.3,
    budget: ResourceBudget | None = None,
    data_format: QFormat | None = None,
    weight_format: QFormat | None = None,
    max_lanes: int = 0,
    max_simd: int = 0,
    fold_capacity_scale: float = 1.0,
    weights: dict[str, dict[str, np.ndarray]] | str | None = RANDOM_WEIGHTS,
    calibration_inputs: list[np.ndarray] | None = None,
    seed: int = 0,
    label: str = "",
    check: bool = False,
    pipeline: BuildPipeline | None = None,
) -> BuildArtifacts:
    """Run the whole flow: script/graph + constraint → build artifacts.

    ``script_or_graph`` is a :class:`NetworkGraph`, the text of a
    descriptive script, or a path to a ``*.prototxt`` file.  The budget
    is either ``budget`` directly or carved from ``device`` (name or
    :class:`Device`) by ``fraction``.  ``weights`` is a trained weight
    dict, :data:`RANDOM_WEIGHTS` (Gaussian init from ``seed``, the
    default) or ``None`` for a weightless timing-only build.
    ``check=True`` runs the static verifier (:mod:`repro.analysis`)
    over the finished artifacts and raises
    :class:`~repro.errors.VerificationError` on any error-severity
    finding.  The remaining knobs pass straight through to
    :meth:`~repro.nngen.generator.NNGen.generate` and
    :meth:`~repro.compiler.compiler.DeepBurningCompiler.compile`.

    The build runs on a :class:`~repro.pipeline.BuildPipeline` —
    ``pipeline`` directly, or the process-wide default — so stages
    shared with previous builds (same network, seed, formats, budget)
    come out of the stage cache instead of being recomputed.
    """
    # Imported lazily: the pipeline module imports this one for the
    # BuildArtifacts contract.
    from repro.pipeline import default_pipeline

    artifacts = (pipeline or default_pipeline()).build(
        script_or_graph,
        device=device,
        fraction=fraction,
        budget=budget,
        data_format=data_format,
        weight_format=weight_format,
        max_lanes=max_lanes,
        max_simd=max_simd,
        fold_capacity_scale=fold_capacity_scale,
        weights=weights,
        calibration_inputs=calibration_inputs,
        seed=seed,
        label=label,
    )
    if check:
        # Imported lazily: the verifier is an optional stage and the
        # analysis package itself builds designs through this facade.
        from repro.analysis import require_clean, verify_artifacts
        require_clean(verify_artifacts(artifacts))
    return artifacts


def simulator(artifacts: BuildArtifacts) -> AcceleratorSimulator:
    """A fresh simulator over the artifacts' program and weights.

    Its batched runs pack a private execution plan; the serving runtime
    (:class:`~repro.runtime.model.CompiledModel`) shares one plan across
    its worker sessions instead.
    """
    return AcceleratorSimulator(artifacts.program, weights=artifacts.weights)


def simulate(
    artifacts: BuildArtifacts,
    inputs: np.ndarray | None = None,
    *,
    functional: bool = True,
    all_blobs: bool = False,
) -> SimulationResult:
    """One forward propagation on the built accelerator.

    ``functional=True`` (the default) runs the bit-level fixed-point
    execution as well as timing/energy; with ``inputs=None`` a random
    input from :meth:`BuildArtifacts.random_input` is used.
    ``all_blobs=True`` dequantizes and returns every intermediate blob
    instead of just the network output.
    """
    if functional and inputs is None:
        inputs = artifacts.random_input()
    return simulator(artifacts).run(inputs, functional=functional,
                                    all_blobs=all_blobs)


def estimate(artifacts: BuildArtifacts) -> SimulationResult:
    """Analytic latency/energy report, no compiled program needed.

    Evaluates the simulator's pipeline recurrence with the analytic
    model's per-fold traffic (:mod:`repro.estimate`) over the
    artifacts' realized design — fold schedule, AGU access-pattern
    arithmetic, DRAM traffic — and returns a
    :class:`~repro.sim.accel.SimulationResult` (cycles, columnar
    phase traces, energy) with ``outputs=None``.  It reads only the design,
    so it is a second, independent source of the simulator's traffic
    and costs about as much as the simulator's timing pass: the oracle
    ``repro estimate --validate`` and ``--all-zoo`` check the compiled
    program against.
    """
    from repro.estimate import AnalyticEstimator
    return AnalyticEstimator(artifacts.design).report()


def simulate_batch(
    artifacts: BuildArtifacts,
    batch: "list[np.ndarray] | np.ndarray",
    *,
    functional: bool = True,
    all_blobs: bool = False,
) -> list[SimulationResult]:
    """One forward propagation per input, vectorized across the batch.

    All inputs run through a single
    :meth:`~repro.sim.accel.AcceleratorSimulator.run_batch` pass over
    the shared execution plan; each entry is an independent request
    starting from clean recurrent state, and the per-sample results are
    bit-identical to running :func:`simulate` once per input.
    """
    return simulator(artifacts).run_batch(batch, functional=functional,
                                          all_blobs=all_blobs)

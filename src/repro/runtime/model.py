"""The immutable serving handle: one built accelerator, many requests.

A :class:`CompiledModel` wraps the :class:`~repro.api.BuildArtifacts`
bundle (graph, design, control program, weights, memory layout) behind a
request-oriented interface.  The artifacts never change after
construction; every mutable piece of simulation state lives in
per-worker :class:`~repro.sim.accel.AcceleratorSimulator` sessions, so
N workers can serve the same model concurrently without sharing state.
The sessions share the model's timing-only result, computed when the
model is, and its execution plan, which the model packs from its own
artifacts on first use and owns: it is freed with the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import threading

import numpy as np

from repro import api
from repro.sim.accel import AcceleratorSimulator, SimulationResult
from repro.sim.plan import ExecutionPlan
from repro.sim.quantized import QuantizedExecutor


@dataclass(frozen=True)
class CompiledModel:
    """One generated accelerator, packaged for the serving runtime."""

    artifacts: api.BuildArtifacts
    name: str = ""
    _local: threading.local = field(default_factory=threading.local,
                                    repr=False, compare=False)
    _plan_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False, compare=False)
    _plan: ExecutionPlan | None = field(default=None, init=False,
                                        repr=False, compare=False)
    _timed: SimulationResult | None = field(default=None, init=False,
                                            repr=False, compare=False)

    def __post_init__(self) -> None:
        # The program is input-independent: one timing-only result
        # serves every session and request.
        object.__setattr__(self, "_timed",
                           api.simulate(self.artifacts, functional=False))

    @classmethod
    def build(cls, script_or_graph, name: str = "",
              **build_kwargs) -> "CompiledModel":
        """Run :func:`repro.api.build` and wrap the result."""
        artifacts = api.build(script_or_graph, **build_kwargs)
        return cls(artifacts=artifacts, name=name or artifacts.graph.name)

    @classmethod
    def from_zoo(cls, benchmark: str, **build_kwargs) -> "CompiledModel":
        """Build a zoo benchmark network (e.g. ``"mnist"``) for serving."""
        from repro.zoo import benchmark_graph
        graph = benchmark_graph(benchmark)
        return cls.build(graph, name=benchmark, **build_kwargs)

    # ------------------------------------------------------------------

    @property
    def input_shape(self) -> tuple[int, ...]:
        return self.artifacts.input_shape

    @property
    def execution_plan(self) -> ExecutionPlan | None:
        """The model's execution plan; ``None`` for a timing-only model.

        Packed from the model's own artifacts on first use, exactly
        once even when every worker session asks at the same moment,
        and owned by the model: it is freed with the model.
        """
        if self.artifacts.weights is None:
            return None
        return self._packed_plan()

    def _packed_plan(self) -> ExecutionPlan:
        with self._plan_lock:
            plan = self._plan
            if plan is None:
                plan = QuantizedExecutor.from_program(
                    self.artifacts.program, self.artifacts.weights).plan()
                object.__setattr__(self, "_plan", plan)
            return plan

    def new_session(self) -> AcceleratorSimulator:
        """A fresh simulator session (one per worker thread).

        Each session caches its own quantized executor, but all sessions
        share the model's timing and its :attr:`execution_plan` —
        weights are packed once per model, not once per worker, and only
        when a session first warms or batch-runs.
        """
        return AcceleratorSimulator(self.artifacts.program,
                                    weights=self.artifacts.weights,
                                    plan=self._packed_plan,
                                    timed=self._timed)

    def session(self) -> AcceleratorSimulator:
        """The calling thread's private session, created on first use."""
        session = getattr(self._local, "session", None)
        if session is None:
            session = self.new_session()
            self._local.session = session
        return session

    def warm_session(self, functional: bool = True) -> AcceleratorSimulator:
        """Pre-build this thread's session caches (timing + executor)."""
        session = self.session()
        session.warm(functional=functional)
        return session

    def run(self, inputs: np.ndarray,
            functional: bool = True,
            all_blobs: bool = False) -> SimulationResult:
        """One forward propagation on this thread's session."""
        return self.session().run(inputs, functional=functional,
                                  all_blobs=all_blobs)

    def run_batch(self, batch: list[np.ndarray],
                  functional: bool = True,
                  all_blobs: bool = False) -> list[SimulationResult]:
        """One vectorized forward propagation over the whole batch.

        All requests ride one
        :meth:`~repro.sim.accel.AcceleratorSimulator.run_batch` pass on
        this thread's session; each starts from clean recurrent state.
        """
        return self.session().run_batch(batch, functional=functional,
                                        all_blobs=all_blobs)

    def random_requests(self, count: int, seed: int = 0) -> list[np.ndarray]:
        """``count`` random input tensors (a synthetic request stream)."""
        rng = np.random.default_rng(seed)
        return [rng.uniform(-1.0, 1.0, self.input_shape)
                for _ in range(count)]

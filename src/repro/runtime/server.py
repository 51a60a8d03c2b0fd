"""The batched inference server.

An :class:`InferenceServer` owns a bounded request queue with a dynamic
micro-batcher (:class:`~repro.runtime.batcher.MicroBatcher`), a pool of
N worker threads each holding its own simulator session over one
:class:`~repro.runtime.model.CompiledModel`, and a
:class:`~repro.runtime.metrics.MetricsRegistry`.

Request lifecycle::

    pending = server.submit(x)          # QueueFullError = backpressure
    response = pending.result()         # InferenceResponse
    response.status                     # "ok" | "timeout" | "error"

A per-request timeout turns a late answer into a structured
:class:`RequestTimeout` response instead of an exception — a slow or
wedged simulation never crashes the serving loop.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import DeepBurningError, ServingError
from repro.runtime.batcher import MicroBatcher
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.model import CompiledModel


@dataclass(frozen=True)
class InferenceResponse:
    """The terminal state of one request."""

    request_id: int
    status: str = "ok"                # "ok" | "timeout" | "error"
    latency_s: float = 0.0            # wall time from submit to completion
    batch_size: int = 0               # size of the micro-batch it rode in
    output: np.ndarray | None = None  # functional output ("ok" only)
    cycles: int = 0                   # simulated accelerator cycles
    sim_time_s: float = 0.0           # simulated on-board latency
    energy_j: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class RequestTimeout(InferenceResponse):
    """A request that exceeded its deadline (in queue or in flight)."""

    status: str = "timeout"


@dataclass
class _Request:
    """Internal queue entry: inputs plus completion machinery."""

    id: int
    inputs: np.ndarray
    submitted_at: float
    timeout_s: float | None
    done: threading.Event = field(default_factory=threading.Event)
    response: InferenceResponse | None = None
    #: Invoked (from a worker thread) exactly once after completion;
    #: the async gateway bridges to event-loop futures through this.
    on_complete: Callable[[InferenceResponse], None] | None = None

    def complete(self, response: InferenceResponse) -> None:
        self.response = response
        self.done.set()
        if self.on_complete is not None:
            try:
                self.on_complete(response)
            except Exception:
                # A broken observer must not take down the worker; the
                # blocking result() path is already satisfied above.
                pass

    def expired(self, now: float) -> bool:
        return self.timeout_s is not None \
            and (now - self.submitted_at) > self.timeout_s


class PendingRequest:
    """Caller-side handle for an in-flight request."""

    def __init__(self, request: _Request) -> None:
        self._request = request

    @property
    def request_id(self) -> int:
        return self._request.id

    def done(self) -> bool:
        return self._request.done.is_set()

    def result(self, timeout: float | None = None) -> InferenceResponse:
        """Block until the server completes the request.

        ``timeout`` bounds only this wait; the server still owns the
        request and will complete it eventually.
        """
        if not self._request.done.wait(timeout):
            raise ServingError(
                f"request {self._request.id} not completed within {timeout}s"
            )
        assert self._request.response is not None
        return self._request.response


class InferenceServer:
    """Batched request serving over one compiled model.

    ``workers`` simulator sessions drain micro-batches formed by the
    queue policy (flush on ``max_batch_size`` or ``batch_timeout_s``);
    ``max_queue_depth`` bounds the number of queued requests
    (``submit`` raises :class:`~repro.errors.QueueFullError` beyond it);
    ``request_timeout_s`` is the default per-request deadline.
    """

    def __init__(
        self,
        model: CompiledModel,
        *,
        workers: int = 4,
        max_batch_size: int = 8,
        max_queue_depth: int = 64,
        batch_timeout_s: float = 0.005,
        request_timeout_s: float | None = None,
        functional: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ServingError(f"workers must be >= 1, got {workers}")
        self.model = model
        self.workers = workers
        self.functional = functional
        self.request_timeout_s = request_timeout_s
        self.metrics = metrics or MetricsRegistry()
        self._batcher = MicroBatcher(max_queue_depth, max_batch_size,
                                     batch_timeout_s)
        self._pool: ThreadPoolExecutor | None = None
        self._dispatcher: threading.Thread | None = None
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._inflight: list = []

    # ------------------------------------------------------------------

    def start(self, warm: bool = True) -> "InferenceServer":
        if self._dispatcher is not None:
            raise ServingError("server is already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-runtime-worker",
        )
        if warm:
            self._warm_sessions()
            self._publish_plan_stats()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-runtime-batcher",
            daemon=True,
        )
        self._dispatcher.start()
        return self

    def _warm_sessions(self) -> None:
        """Build every worker's session state before requests arrive.

        Each worker thread pays its timing replay and executor
        construction here, not on the first live request.
        """
        assert self._pool is not None
        barrier = threading.Barrier(self.workers)

        def warm() -> None:
            barrier.wait()  # pin one warmup per pool thread
            self.model.warm_session(functional=self.functional)

        futures = [self._pool.submit(warm) for _ in range(self.workers)]
        for future in futures:
            future.result()

    def _publish_plan_stats(self) -> None:
        """Mirror the shared plan's optimizer stats into gauges, once at
        warm-up: they are fixed when the plan is built."""
        if not self.functional:
            return
        artifacts = getattr(self.model, "artifacts", None)
        if artifacts is None or artifacts.weights is None:
            return
        plan = self.model.execution_plan
        if plan is None:
            return
        stats = plan.stats()
        self.metrics.gauge("plan_total_steps").set(stats["total_steps"])
        self.metrics.gauge("plan_fused_steps").set(stats["fused_steps"])

    def stop(self) -> None:
        """Drain the queue, run everything in flight, release workers."""
        self._batcher.close()
        if self._dispatcher is not None:
            self._dispatcher.join()
            self._dispatcher = None
        if self._pool is not None:
            for future in self._inflight:
                future.result()
            self._inflight.clear()
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------

    def submit(self, inputs: np.ndarray,
               timeout_s: float | None = None,
               on_complete: Callable[[InferenceResponse], None] | None = None,
               ) -> PendingRequest:
        """Enqueue one request; raises ``QueueFullError`` at capacity.

        Requests may be submitted before :meth:`start`; they wait in the
        queue and are batched as soon as the server starts.
        ``on_complete`` is invoked once, from the completing worker
        thread, with the terminal :class:`InferenceResponse` — callers
        that cannot block on :meth:`PendingRequest.result` (the async
        gateway) observe completion through it.
        """
        with self._id_lock:
            self._next_id += 1
            request_id = self._next_id
        request = _Request(
            id=request_id,
            inputs=inputs,
            submitted_at=time.perf_counter(),
            timeout_s=self.request_timeout_s if timeout_s is None
            else timeout_s,
            on_complete=on_complete,
        )
        depth = self._batcher.put(request)
        self.metrics.counter("requests_submitted").inc()
        self.metrics.histogram("queue_depth").observe(depth)
        return PendingRequest(request)

    def infer(self, inputs: np.ndarray,
              timeout_s: float | None = None) -> InferenceResponse:
        """Submit one request and block for its response."""
        return self.submit(inputs, timeout_s=timeout_s).result()

    def queue_depth(self) -> int:
        """Requests currently waiting in the micro-batcher queue."""
        return self._batcher.depth()

    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._batcher.next_batch()
            if not batch:
                return
            self.metrics.counter("batches_formed").inc()
            self.metrics.histogram("batch_size").observe(len(batch))
            assert self._pool is not None
            self._inflight.append(self._pool.submit(self._run_batch, batch))
            # Completed futures need no bookkeeping beyond stop().
            self._inflight = [f for f in self._inflight if not f.done()]

    def _run_batch(self, batch: list[_Request]) -> None:
        try:
            self._run_batch_inner(batch)
        except Exception:
            # Session construction (or anything else outside the
            # per-request guards) failed; every request still pending
            # must get a terminal response or its caller hangs forever.
            error = traceback.format_exc(limit=3)
            for request in batch:
                if not request.done.is_set():
                    self._complete_error(request, len(batch), error)

    def _run_batch_inner(self, batch: list[_Request]) -> None:
        session = self.model.session()
        now = time.perf_counter()
        live = []
        for request in batch:
            if request.expired(now):
                self._complete_timeout(request, len(batch), "in queue")
            else:
                live.append(request)
        if not live:
            return
        try:
            results = session.run_batch([r.inputs for r in live],
                                        functional=self.functional)
        except Exception:
            # The vectorized pass is all-or-nothing (one malformed
            # input fails the stacked forward); fall back to serving
            # each request alone so one bad request cannot take down
            # its batch-mates.
            for request in live:
                self._serve_one(session, request, len(batch))
            return
        for request, result in zip(live, results):
            self._complete_result(request, result, len(batch))

    def _serve_one(self, session, request: _Request,
                   batch_size: int) -> None:
        now = time.perf_counter()
        if request.expired(now):
            self._complete_timeout(request, batch_size, "in queue")
            return
        try:
            (result,) = session.run_batch([request.inputs],
                                          functional=self.functional)
        except DeepBurningError as error:
            self._complete_error(request, batch_size, str(error))
            return
        except Exception:
            self._complete_error(request, batch_size,
                                 traceback.format_exc(limit=3))
            return
        self._complete_result(request, result, batch_size)

    # -- completion helpers (shared by the batch and isolation paths) --

    def _complete_timeout(self, request: _Request, batch_size: int,
                          where: str) -> None:
        self.metrics.counter("requests_timeout").inc()
        request.complete(RequestTimeout(
            request_id=request.id,
            latency_s=time.perf_counter() - request.submitted_at,
            batch_size=batch_size,
            error=f"deadline of {request.timeout_s}s exceeded {where}",
        ))

    def _complete_error(self, request: _Request, batch_size: int,
                        error: str) -> None:
        self.metrics.counter("requests_error").inc()
        request.complete(InferenceResponse(
            request_id=request.id, status="error",
            latency_s=time.perf_counter() - request.submitted_at,
            batch_size=batch_size, error=error,
        ))

    def _complete_result(self, request: _Request, result,
                         batch_size: int) -> None:
        finished = time.perf_counter()
        latency = finished - request.submitted_at
        if request.expired(finished):
            self._complete_timeout(request, batch_size, "in flight")
            return
        self.metrics.counter("requests_completed").inc()
        self.metrics.histogram("latency_s").observe(latency)
        self.metrics.histogram("simulated_cycles").observe(result.cycles)
        request.complete(InferenceResponse(
            request_id=request.id, status="ok", latency_s=latency,
            batch_size=batch_size,
            output=result.outputs["__output__"] if result.outputs else None,
            cycles=result.cycles, sim_time_s=result.time_s,
            energy_j=result.energy.total_j,
        ))

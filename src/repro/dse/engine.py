"""The sweep engine: enumerate, dedupe, cache-check, evaluate, aggregate.

Each sweep point takes one path in every estimator mode: the staged
build pipeline (:mod:`repro.pipeline`) through the
:func:`repro.api.build` facade, then the timing of its compiled program
priced for its design, then one :class:`PointResult`.  Points of one
sweep share every build stage they have in common — weight init,
quantization, datapath selection, fold schedules and their compiled
programs and timings when budgets buy the same buffers, even
whole realized designs when different cap values clamp to the same
effective datapath.  The engine exploits that sharing three ways
before any evaluation runs:

1. persistent-cache hits (:class:`~repro.dse.cache.DesignCache`) are
   resolved up front, so a fully warm sweep never spawns a process;
2. exact-duplicate points are deduped (evaluated once, replicated);
3. remaining points are grouped by their *realized-design* content
   address — every metric in a :class:`PointResult` is a function of
   the realized design (plus the sweep-wide seed), so one evaluation
   per group serves every member.

Parallel sweeps (``--jobs N``) dispatch contiguous chunks of group
representatives to a process pool primed once per sweep: under the
``fork`` start method the workers inherit the parent's pipeline --
graph, weights, datapath choices -- copy-on-write,
and only the small :class:`~repro.dse.spec.SweepPoint` deltas travel
per chunk; under ``spawn`` an initializer ships the sweep context once
per worker instead of once per point.  Results come back in point
order regardless of completion order, so parallel, serial, cold and
warm sweeps are all bit-identical.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from repro import api
from repro.devices.device import budget_fraction, device_by_name
from repro.dse.cache import DesignCache
from repro.dse.result import (
    PointResult,
    SweepResult,
    frontier_knee,
    knee_neighborhood,
    pareto_frontier,
)
from repro.dse.spec import SweepPoint, SweepSpec
from repro.errors import DeepBurningError
from repro.frontend.graph import NetworkGraph
from repro.nngen.generator import NNGen
from repro.pipeline import BuildPipeline, declaration_order, \
    default_pipeline
from repro.sim.accel import priced

#: Evaluation modes.  Every mode reports the same memoized timing of the
#: compiled program; they differ only in the ``estimator`` label, in
#: whether its seconds count as ``estimate_s`` or ``simulate_s``, and in
#: ``hybrid`` replaying the Pareto frontier and knee neighborhood as
#: ``exact`` rows.
ESTIMATORS = ("exact", "analytic", "hybrid")


def _check_estimator(estimator: str, functional: bool) -> None:
    if estimator not in ESTIMATORS:
        raise DeepBurningError(
            f"unknown estimator '{estimator}'; options: {ESTIMATORS}")
    if estimator == "analytic" and functional:
        raise DeepBurningError(
            "the analytic estimator never executes the network; use "
            "estimator='hybrid' to score fidelity on the replayed "
            "frontier, or estimator='exact'")


def evaluate_point(graph: NetworkGraph, point: SweepPoint,
                   functional: bool = False, seed: int = 0,
                   static_filter: bool = False,
                   pipeline: BuildPipeline | None = None,
                   estimator: str = "exact") -> PointResult:
    """Run one point through the build facade, then report on the design.

    Any :class:`~repro.errors.DeepBurningError` — a budget that cannot
    fit the minimal datapath, an unsupported layer, a compile failure —
    becomes a structured ``infeasible`` result carrying the reason, so a
    sweep always completes.  With ``static_filter=True`` the built
    design runs the static verifier first; a design with error-severity
    findings becomes a ``rejected`` result without ever being reported on.

    Every mode builds the same artifacts (weightless unless
    ``functional``) and reports the same timing: the pipeline's
    ``timing`` stage, memoized per compiled program, SIMD width and
    device, priced per design (:func:`~repro.sim.accel.priced`).
    ``estimator="analytic"`` counts its seconds as ``estimate_s``, any
    other mode as ``simulate_s``.  A ``functional`` point also runs the
    simulator, for its output only, and scores it against the float
    reference.

    ``pipeline`` carries the stage cache shared across the sweep (the
    process-wide default when omitted); the result's ``stage_s`` records
    the per-stage build time, 0.0 for memoized stages, plus the
    ``estimate_s``/``simulate_s`` evaluation time.
    """
    _check_estimator(estimator, functional)
    pipe = pipeline or default_pipeline()
    label = "analytic" if estimator == "analytic" else "exact"
    try:
        device = device_by_name(point.device)
        artifacts = api.build(
            graph,
            budget=budget_fraction(device, point.fraction),
            data_format=point.data_format,
            weight_format=point.weight_format,
            max_lanes=point.max_lanes,
            max_simd=point.max_simd,
            fold_capacity_scale=point.fold_capacity_scale,
            weights=api.RANDOM_WEIGHTS if functional else None,
            seed=seed,
            pipeline=pipe,
        )
        stage_s = _stage_split(artifacts)
        if static_filter:
            from repro.analysis import verify_artifacts
            verdict = verify_artifacts(artifacts)
            if not verdict.ok:
                first = verdict.errors[0]
                return PointResult(
                    point=point, status="rejected",
                    reason=(f"{len(verdict.errors)} static error(s); first: "
                            f"{first.rule} at {first.where}: "
                            f"{first.message}"),
                    estimator=label, stage_s=stage_s,
                )
        design = artifacts.design
        used = design.resource_report()
        timing, seconds = pipe.timing(artifacts)
        report = priced(design, timing, occupied_lut=used.lut)
        accuracy = None
        if functional:
            started = time.perf_counter()
            output = api.simulate(artifacts).output
            seconds += time.perf_counter() - started
            accuracy = _fidelity(
                np.asarray(output, dtype=float),
                np.asarray(pipe.reference_output(artifacts), dtype=float))
        stage_s["estimate_s" if label == "analytic" else "simulate_s"] = \
            seconds
        return PointResult(
            point=point,
            status="ok",
            lanes=design.datapath.lanes,
            simd=design.datapath.simd,
            folds=len(design.folding),
            dsp=used.dsp,
            lut=used.lut,
            ff=used.ff,
            bram_bits=used.bram_bits,
            cycles=report.cycles,
            time_s=report.time_s,
            energy_j=report.energy.total_j,
            power_w=report.energy.average_power_w,
            macs=report.macs,
            accuracy=accuracy,
            estimator=label,
            stage_s=stage_s,
        )
    except DeepBurningError as error:
        return PointResult(point=point, status="infeasible",
                           reason=str(error), estimator=label)


def _stage_split(artifacts: api.BuildArtifacts) -> dict[str, float]:
    """The point's build-time split: total plus the per-stage shares."""
    timings = artifacts.stage_seconds or {}
    split = {stage: timings.get(stage, 0.0)
             for stage in ("nngen_s", "quantize_s", "compile_s")}
    split["build_s"] = sum(timings.values())
    return split


def _fidelity(quantized: np.ndarray, reference: np.ndarray) -> float:
    """Output agreement in [0, 1]: 1 - relative RMS error, floored at 0."""
    scale = float(np.sqrt(np.mean(np.square(reference))))
    if scale == 0.0:
        return 1.0 if not np.any(quantized) else 0.0
    error = float(np.sqrt(np.mean(np.square(quantized - reference))))
    return max(0.0, 1.0 - error / scale)


# ---------------------------------------------------------------------------
# Shared-artifact worker protocol

#: Sweep context shared by every worker of one pool: set in the parent
#: before a fork-based pool is created (children inherit it
#: copy-on-write, stage cache included) or installed per worker by the
#: spawn initializer.
_WORKER_STATE: dict | None = None


def _prime_worker(payload: tuple | None = None) -> None:
    """Pool initializer for start methods without memory inheritance.

    Under ``spawn`` the pickled sweep context arrives here once per
    worker — each worker then builds its own stage cache, still shared
    across every chunk it evaluates.  Under ``fork`` the parent set
    :data:`_WORKER_STATE` before the pool existed and ``payload`` is
    ``None``.
    """
    global _WORKER_STATE
    if payload is not None:
        graph, functional, seed, static_filter, estimator = payload
        _WORKER_STATE = {
            "graph": graph,
            "functional": functional,
            "seed": seed,
            "static_filter": static_filter,
            "estimator": estimator,
            "pipeline": BuildPipeline(),
        }


def _evaluate_chunk(
        chunk: list[tuple[int, SweepPoint]]) -> list[tuple[int, PointResult]]:
    """Process-pool entry point: evaluate one chunk of indexed points."""
    state = _WORKER_STATE
    if state is None:
        raise RuntimeError("sweep worker was not primed")
    return [
        (index, evaluate_point(state["graph"], point,
                               functional=state["functional"],
                               seed=state["seed"],
                               static_filter=state["static_filter"],
                               pipeline=state["pipeline"],
                               estimator=state.get("estimator", "exact")))
        for index, point in chunk
    ]


def _chunked(items: list, parts: int) -> list[list]:
    """At most ``parts`` contiguous, near-equal chunks (order kept)."""
    size = -(-len(items) // parts)
    return [items[i:i + size] for i in range(0, len(items), size)]


def _design_group_key(pipe: BuildPipeline, graph: NetworkGraph, fp: str,
                      point: SweepPoint, memo: dict) -> str:
    """The content address of the realized design ``point`` maps to.

    Every canonical :class:`PointResult` field is a function of the
    realized design plus the sweep-wide (functional, seed,
    static_filter, estimator) settings, so points sharing this key
    share one evaluation.  ``memo`` holds per-sweep lookaside tables
    (budget, datapath config, design key) so a thousand-point grid
    pays the hashing once per *distinct* configuration, not per point.
    Points that fail before design realisation group only with exact
    duplicates (their error text may mention any raw knob).
    """
    try:
        NNGen.validate_knobs(max_lanes=point.max_lanes,
                             max_simd=point.max_simd,
                             fold_capacity_scale=point.fold_capacity_scale)
        budgets = memo.setdefault("budget", {})
        budget_key = (point.device, point.fraction)
        budget = budgets.get(budget_key)
        if budget is None:
            budget = budget_fraction(device_by_name(point.device),
                                     point.fraction)
            budgets[budget_key] = budget
        configs = memo.setdefault("config", {})
        config_key = (point.device, point.fraction, point.data_bits,
                      point.weight_bits)
        config = configs.get(config_key)
        if config is None:
            config, _ = pipe.datapath(pipe.resolve(graph, fp), fp, budget,
                                      point.data_format, point.weight_format)
            configs[config_key] = config
        config = NNGen.apply_caps(config, point.max_lanes, point.max_simd)
        keys = memo.setdefault("key", {})
        effective = (config_key, config.lanes, config.simd,
                     point.fold_capacity_scale)
        key = keys.get(effective)
        if key is None:
            key = "design:" + pipe.design_key(
                fp, pipe.resolve(graph, fp), budget, config,
                point.fold_capacity_scale)
            keys[effective] = key
        return key
    except DeepBurningError:
        return "point:" + repr(point)


def _prime_parent(pipe: BuildPipeline, graph: NetworkGraph, fp: str,
                  spec: SweepSpec) -> None:
    """Draw the float weights a functional sweep reads, once, before
    any point is evaluated.

    Every point's fidelity score reads them through the float
    reference, so drawing them first lets each DRAM image quantize from
    them instead of drawing the weights again, and fork-started
    children inherit them copy-on-write instead of drawing them once
    per process.  A failure is deliberately swallowed: the points hit
    it again and report it as structured infeasible results.
    """
    if not spec.functional:
        return
    try:
        weights, _ = pipe.weights(pipe.resolve(graph, fp), fp, spec.seed)
        weights.arrays()
    except DeepBurningError:
        pass


def _evaluate_points(graph: NetworkGraph,
                     indexed: list[tuple[int, SweepPoint]],
                     spec: SweepSpec, estimator: str, jobs: int,
                     cache: DesignCache | None, pipe: BuildPipeline,
                     use_pool: bool | None
                     ) -> tuple[dict[int, PointResult], int, int]:
    """Evaluate indexed points once each: cache, dedupe, share, fan out.

    Persistent-cache hits are resolved first (they come back
    ``cached``); exact duplicates and points collapsing onto one
    realized design are evaluated once, in process or on a pool of
    ``jobs`` workers, and their result is replicated; fresh results are
    written back to ``cache``.  Returns ``(results by index, deduped,
    design_shared)``.
    """
    fingerprint = pipe.fingerprint(graph)
    order = declaration_order(graph)
    results: dict[int, PointResult] = {}
    pending: list[tuple[int, SweepPoint]] = []
    keys: dict[int, str] = {}
    first_of: dict[SweepPoint, int] = {}
    duplicates: dict[int, int] = {}
    for index, point in indexed:
        if cache is not None:
            key = DesignCache.key(fingerprint, point,
                                  functional=spec.functional, seed=spec.seed,
                                  static_filter=spec.static_filter,
                                  estimator=estimator, order=order)
            keys[index] = key
            hit = cache.load(key)
            if hit is not None:
                results[index] = hit
                continue
        first = first_of.get(point)
        if first is not None:
            duplicates[index] = first
            continue
        first_of[point] = index
        pending.append((index, point))

    # Collapse pending points onto their realized-design groups: one
    # representative evaluates, the rest share its canonical result.
    pending_points = dict(pending)
    group_memo: dict = {}
    group_rep: dict[str, int] = {}
    member_of: dict[int, int] = {}
    rep_indices: list[int] = []
    for index, point in pending:
        gkey = _design_group_key(pipe, graph, fingerprint, point,
                                 group_memo)
        rep = group_rep.get(gkey)
        if rep is None:
            group_rep[gkey] = index
            rep_indices.append(index)
        else:
            member_of[index] = rep

    reps = [(index, pending_points[index]) for index in rep_indices]
    # Size the stage LRU to the sweep's working set so a warm re-sweep
    # actually hits (the default 32-entry bound thrashes on wide grids).
    pipe.cache.reserve(2 * len(reps))
    workers = min(jobs, len(reps))
    if use_pool is None:
        workers = min(workers, os.cpu_count() or 1)
        pooled = workers > 1
    else:
        pooled = use_pool and workers > 1
    if reps:
        _prime_parent(pipe, graph, fingerprint, spec)
    if pooled:
        global _WORKER_STATE
        pool_kwargs: dict = {}
        if multiprocessing.get_start_method() == "fork":
            _WORKER_STATE = {
                "graph": graph, "functional": spec.functional,
                "seed": spec.seed, "static_filter": spec.static_filter,
                "estimator": estimator, "pipeline": pipe,
            }
        else:
            pool_kwargs = {
                "initializer": _prime_worker,
                "initargs": ((graph, spec.functional, spec.seed,
                              spec.static_filter, estimator),),
            }
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     **pool_kwargs) as pool:
                for chunk in pool.map(_evaluate_chunk,
                                      _chunked(reps, workers)):
                    for index, result in chunk:
                        results[index] = result
        finally:
            _WORKER_STATE = None
    else:
        for index, point in reps:
            results[index] = evaluate_point(
                graph, point, functional=spec.functional, seed=spec.seed,
                static_filter=spec.static_filter, pipeline=pipe,
                estimator=estimator)

    # Fan shared evaluations back out.  Canonical fields are identical
    # by construction; stage timings are zeroed because shared points
    # cost nothing to build.
    for index, rep in member_of.items():
        results[index] = replace(results[rep],
                                 point=pending_points[index], stage_s={})
    for index, first in duplicates.items():
        results[index] = replace(results[first], stage_s={})

    if cache is not None:
        for index, _ in pending:
            cache.store(keys[index], results[index])
    return results, len(duplicates), len(member_of)


def _replay_indices(results: list[PointResult]) -> list[int]:
    """Indices of the Pareto frontier plus the knee's nearest neighbors.

    These are the points a designer would actually pick, so a hybrid
    sweep re-evaluates them through the simulator and every reported
    frontier point carries simulator-exact figures.
    """
    frontier = pareto_frontier(results)
    knee = frontier_knee(frontier)
    on_frontier = {id(r) for r in frontier}
    off_frontier = [r for r in results
                    if r.feasible and id(r) not in on_frontier]
    neighborhood = knee_neighborhood(off_frontier, knee)
    index_of = {id(result): index for index, result in enumerate(results)}
    return sorted(index_of[id(r)] for r in frontier + neighborhood)


def run_sweep(graph: NetworkGraph, spec: SweepSpec, jobs: int = 1,
              cache: DesignCache | None = None,
              pipeline: BuildPipeline | None = None,
              use_pool: bool | None = None,
              estimator: str = "exact") -> SweepResult:
    """Evaluate every point of ``spec``, in parallel when ``jobs > 1``.

    Results keep the spec's point order, so a parallel sweep equals a
    serial one row for row.  Persistent-cache hits skip evaluation
    before any worker spawns; exact duplicates and points collapsing
    onto one realized design are evaluated once and their results
    replicated (``deduped`` / ``design_shared`` in the outcome); fresh
    results are written back before the sweep returns.

    ``estimator`` labels the rows: ``"exact"`` and ``"analytic"`` report
    the same timing of each compiled program (:func:`evaluate_point`);
    ``"hybrid"`` sweeps as ``"analytic"`` and then evaluates the Pareto
    frontier plus the knee neighborhood again (honoring
    ``spec.functional``), recorded as ``estimator="exact"`` rows.

    With a ``cache``, every point counts as one hit or one miss: a
    replayed point by its exact lookup, any other by its own.

    ``use_pool=None`` (the default) clamps worker processes to the
    machine's cores — surplus ``jobs`` degrade to in-process evaluation
    instead of paying fork-and-pickle overhead for no parallelism.
    ``True`` forces the pool protocol (tests), ``False`` forces serial;
    either way the results are bit-identical.
    """
    if jobs < 1:
        raise DeepBurningError(f"jobs must be >= 1, got {jobs}")
    _check_estimator(estimator, spec.functional)
    started = time.perf_counter()
    pipe = pipeline or default_pipeline()
    points = spec.points()
    evaluate = partial(_evaluate_points, graph, jobs=jobs, cache=cache,
                       pipe=pipe, use_pool=use_pool)
    replay: list[int] = []
    if estimator == "hybrid":
        results, deduped, shared = evaluate(
            list(enumerate(points)), replace(spec, functional=False),
            "analytic")
        replay = _replay_indices([results[i] for i in range(len(points))])
        replayed, _, _ = evaluate(
            [(index, points[index]) for index in replay], spec, "exact")
        results.update(replayed)
    else:
        results, deduped, shared = evaluate(
            list(enumerate(points)), spec, estimator)
    ordered = [results[index] for index in range(len(points))]
    hits = sum(result.cached for result in ordered)
    return SweepResult(
        results=ordered,
        cache_hits=hits,
        cache_misses=len(points) - (hits if cache is not None else deduped),
        elapsed_s=time.perf_counter() - started,
        jobs=jobs,
        deduped=deduped,
        design_shared=shared,
        estimator=estimator,
        replayed=len(replay),
    )

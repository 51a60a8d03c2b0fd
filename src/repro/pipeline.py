"""Staged build pipeline with content-addressed stage memoization.

:func:`repro.api.build` used to run the whole parse → NN-Gen → quantize
→ compile chain monolithically: every call paid for every stage, even
when forty design-space points shared the same network, seed and weight
format and differed only in the budget knobs.  :class:`BuildPipeline`
splits the flow into explicit stages — graph resolution, weight init,
datapath selection, design realisation, control-program compilation,
DRAM-image quantization — and memoizes each stage in a
:class:`StageCache` under a key derived from *exactly* the inputs that
stage depends on:

========== =========================================================
stage      key components
========== =========================================================
resolve    graph fingerprint
weights    fingerprint, seed, declaration order (a lazy seeded source)
datapath   fingerprint, budget (device + limits + label), formats
folding    fingerprint, declaration order, lanes, per-bank feature and
           weight capacities
design     fingerprint, declaration order, budget, formats,
           *effective* lane/SIMD caps, fold-capacity scale
compile    folding key, the memory map's SIMD alignment, formats (the
           control program is weight-independent when no calibration
           inputs are given)
timing     compile key, SIMD width, device (the recurrence over the
           compiled program's fold columns; priced per design)
dram       fingerprint, seed, declaration order, weight format, the
           memory map's SIMD alignment
reference  fingerprint, seed, declaration order (float forward for
           fidelity scoring)
========== =========================================================

Keying the design stage on the *effective* datapath caps (after
clamping against what the budget supports) means a sweep over
``max_lanes = 0, 8, 16, 32`` collapses onto the distinct realized
designs instead of re-generating byte-identical hardware four times.
The budget is in the design key but in neither the folding nor the
compile key: the fold schedule reads only the buffers the budget buys,
and the control program only that schedule, the memory map and the
formats.  Many budgets buy the same buffers, so the designs of a sweep
share far fewer schedules and programs than there are designs; each
design still gets its own AGUs reduced from its program
(:meth:`BuildPipeline.compile_core`).
The fingerprint excludes the network name, so a build that hits a
design memoized for a same-topology graph under another name gets that
design and its compiled core rebound to its own graph.

The fingerprint ignores declaration order, but the seeded draw walks
the weighted layers in that order, the fold schedule and the memory map
follow it, and an in-place reader sees the write declared before it.
So the three seeded stages, the folding and the design stage (and
through the folding key the compiled core) also key on the layer names
in declaration order.

The ``dram`` stage's image, stored at the weight format's width, is the
only integer copy of the weights, and a seeded build draws its Gaussian
weights straight into it; the float weights
(:class:`~repro.nn.reference.SeededWeights`) are drawn only if
something reads them.  The functional executor and the verifier's
range pass read views of the image
(:meth:`~repro.compiler.program.ControlProgram.weight_views`).  The
batched execution plan is not a stage: a served model packs its own
from those views (``CompiledModel.execution_plan`` in
:mod:`repro.runtime.model`), so the plan lives and dies with the model.

Memoization is semantically transparent: a warm build returns
bit-identical artifacts to a cold one, which ``tests/test_pipeline.py``
asserts stage by stage.  Explicit trained-weight dicts share the
weight-independent stages only.  A build with ``calibration_inputs``
takes its design and weightless core from the stages, then calibrates
its blob formats, unmemoized: they depend on the weight values and the
calibration set, which the design and the coordinator program do not
read.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from repro.compiler.compiler import DeepBurningCompiler
from repro.compiler.memmap import port_alignment
from repro.compiler.reduce import reduce_agus
from repro.devices.device import (
    Device,
    ResourceBudget,
    budget_fraction,
    device_by_name,
)
from repro.fixedpoint.format import (
    DEFAULT_DATA_FORMAT,
    DEFAULT_WEIGHT_FORMAT,
    QFormat,
)
from repro.frontend import resolver
from repro.frontend.graph import NetworkGraph
from repro.frontend.resolver import ResolvedGraph
from repro.nn.reference import SeededWeights
from repro.nngen.folding import build_folding_plan
from repro.nngen.generator import NNGen
from repro.sim.accel import program_timing

#: Stage names, in flow order (used by stats reporting and the docs).
STAGES = ("resolve", "weights", "datapath", "folding", "design", "compile",
          "timing", "dram", "reference")


def stage_key(stage: str, **fields: object) -> str:
    """Content address of one stage evaluation: SHA-256 over the
    canonical JSON of the stage name and its key fields."""
    record = {"stage": stage, **fields}
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def declaration_order(graph: NetworkGraph) -> list[str]:
    """The layer names in the order the graph declares them: the
    fingerprint ignores it, but the fold schedule follows it."""
    return [spec.name for spec in graph.layers]


def _bits(fmt: QFormat) -> list[int]:
    return [fmt.integer_bits, fmt.fraction_bits]


def _budget_fields(budget: ResourceBudget) -> dict[str, object]:
    limit = budget.limit
    return {
        "device": budget.device.name,
        "dsp": limit.dsp,
        "lut": limit.lut,
        "ff": limit.ff,
        "bram_bits": limit.bram_bits,
        "label": budget.label,
    }


@dataclass
class StageStats:
    """Hit/miss/time accounting for one stage of one cache."""

    hits: int = 0
    misses: int = 0
    build_s: float = 0.0

    @property
    def total(self) -> int:
        return self.hits + self.misses


class StageCache:
    """Bounded, thread-safe LRU of memoized stage artifacts.

    One in-process cache can back many builds (the default pipeline
    shares one across every :func:`repro.api.build` call).  Entries are
    evicted least-recently-used per stage so a long-lived process — a
    serving runtime or a sweep over many networks — cannot grow without
    bound.  Stage builders run under the cache lock, so concurrent
    builds asking for the same artifact build it exactly once.
    """

    def __init__(self, max_entries: int = 32) -> None:
        self.max_entries = max_entries
        self._stores: dict[str, OrderedDict[str, Any]] = {}
        self.stats: dict[str, StageStats] = {}
        self._lock = threading.RLock()

    def get_or_build(self, stage: str, key: str,
                     builder: Callable[[], Any]) -> tuple[Any, float]:
        """The memoized artifact plus the seconds spent building it
        (0.0 on a cache hit)."""
        with self._lock:
            store = self._stores.setdefault(stage, OrderedDict())
            stats = self.stats.setdefault(stage, StageStats())
            if key in store:
                store.move_to_end(key)
                stats.hits += 1
                return store[key], 0.0
            started = time.perf_counter()
            value = builder()
            elapsed = time.perf_counter() - started
            stats.misses += 1
            stats.build_s += elapsed
            store[key] = value
            while len(store) > self.max_entries:
                store.popitem(last=False)
            return value, elapsed

    def reserve(self, entries: int) -> None:
        """Raise the per-stage LRU bound to at least ``entries``.

        Wide design-space sweeps touch hundreds of distinct designs;
        a 32-entry LRU would thrash (every warm pass re-realising what
        the cold pass already built).  The sweep engine reserves its
        working-set size up front; the bound never shrinks, so a later
        small sweep cannot evict a bigger one's warm entries.
        """
        with self._lock:
            if entries > self.max_entries:
                self.max_entries = entries

    def clear(self) -> None:
        with self._lock:
            self._stores.clear()
            self.stats.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(store) for store in self._stores.values())


class BuildPipeline:
    """The staged, memoizing build flow behind :func:`repro.api.build`.

    Stateless apart from its :class:`StageCache`; one pipeline object is
    safe to share across threads and cheap to carry into forked sweep
    workers (the cache rides along copy-on-write).
    """

    def __init__(self, cache: StageCache | None = None) -> None:
        self.cache = cache or StageCache()
        # Live-object fingerprint memo: graph hashing costs ~0.3 ms and
        # a sweep asks for the same graph's digest once per point.  The
        # weakref guard makes an id() collision (new graph at a dead
        # graph's address) a recompute, never a wrong answer.  Next to
        # each digest sits the lowering it hashed, which the resolve
        # stage reuses for that graph; it is held without its graph so
        # the memo never keeps a graph alive.  A lowering with errors is
        # not held: its errors would be raised again and again, each
        # raise growing a traceback whose frames hold the graph.
        self._fingerprints: dict[
            int, tuple[Any, str, ResolvedGraph | None]] = {}

    # --- generic memoization ------------------------------------------

    def memo(self, stage: str, key_fields: dict[str, object],
             builder: Callable[[], Any]) -> Any:
        """Memoize an arbitrary artifact under this pipeline's cache."""
        value, _ = self.cache.get_or_build(stage, stage_key(stage,
                                                            **key_fields),
                                           builder)
        return value

    # --- individual stages --------------------------------------------

    def fingerprint(self, graph: NetworkGraph) -> str:
        """Memoized :meth:`NetworkGraph.fingerprint` of a live graph.

        The pipeline already assumes a graph's structure is frozen for
        the lifetime of its stage entries (every stage is keyed on this
        digest), so caching the digest per live object is free.
        """
        return self._digest(graph)[0]

    def _digest(self,
                graph: NetworkGraph) -> tuple[str, ResolvedGraph | None]:
        """The live graph's fingerprint and the lowering it hashed (held
        with ``graph=None``; None if the lowering has errors)."""
        entry = self._fingerprints.get(id(graph))
        if entry is None or entry[0]() is not graph:
            lowered = resolver.lower(graph)
            if len(self._fingerprints) >= 16:
                self._fingerprints = {
                    key: value for key, value in self._fingerprints.items()
                    if value[0]() is not None}
            entry = (weakref.ref(graph), graph.fingerprint(lowered),
                     None if lowered.errors
                     else replace(lowered, graph=None))
            self._fingerprints[id(graph)] = entry
        return entry[1], entry[2]

    def resolve(self, graph: NetworkGraph, fp: str) -> ResolvedGraph:
        """The resolved graph every later stage reads: the lowering the
        fingerprint hashed, validated.  The fingerprint ignores
        declaration order, which decides the in-place write a reader
        sees, so a graph sharing it gets its own lowering."""
        def own() -> ResolvedGraph:
            held = self._digest(graph)[1]
            return resolver.resolve(
                graph, None if held is None else replace(held, graph=graph))

        value, _ = self.cache.get_or_build(
            "resolve", stage_key("resolve", fp=fp), own)
        return value if value.graph is graph else own()

    def weights(self, resolved: ResolvedGraph, fp: str, seed: int):
        """Seeded Gaussian weights (the ``RANDOM_WEIGHTS`` default), as a
        :class:`SeededWeights` that draws them only when read."""
        return self.cache.get_or_build(
            "weights", stage_key("weights", fp=fp, seed=seed,
                                 order=declaration_order(resolved.graph)),
            lambda: SeededWeights(resolved, seed))

    def datapath(self, resolved: ResolvedGraph, fp: str,
                 budget: ResourceBudget, data_format: QFormat,
                 weight_format: QFormat):
        """The budget-driven datapath choice, before explorer caps."""
        key = stage_key(
            "datapath", fp=fp, budget=_budget_fields(budget),
            data_bits=_bits(data_format), weight_bits=_bits(weight_format),
        )
        gen = NNGen()
        return self.cache.get_or_build(
            "datapath", key,
            lambda: gen.datapath(resolved, budget, data_format=data_format,
                                 weight_format=weight_format))

    def design_key(self, fp: str, resolved: ResolvedGraph,
                   budget: ResourceBudget, config,
                   fold_capacity_scale: float) -> str:
        """Content address of a *realized* design.

        Keyed on the effective (post-cap) datapath configuration, so cap
        values above what the budget supports collapse onto one entry,
        and on the layer names in declaration order, which the fold
        schedule follows.
        """
        return stage_key(
            "design", fp=fp, order=declaration_order(resolved.graph),
            budget=_budget_fields(budget),
            data_bits=_bits(config.data_format),
            weight_bits=_bits(config.weight_format),
            lanes=config.lanes, simd=config.simd,
            fold_capacity_scale=fold_capacity_scale,
        )

    def folding(self, resolved: ResolvedGraph, fp: str, config,
                feature_capacity: int, weight_capacity: int):
        """The memoized fold schedule; returns ``(plan, key)``.

        :func:`~repro.nngen.folding.build_folding_plan` reads the
        resolved graph (and its declaration order), the lane count and
        the two per-bank capacities, and nothing else: budgets that buy
        the same buffers share one plan.
        """
        key = stage_key("folding", fp=fp,
                        order=declaration_order(resolved.graph),
                        lanes=config.lanes,
                        feature_capacity=feature_capacity,
                        weight_capacity=weight_capacity)
        plan, _ = self.cache.get_or_build(
            "folding", key,
            lambda: build_folding_plan(resolved, config, feature_capacity,
                                       weight_capacity))
        return plan, key

    def design(self, resolved: ResolvedGraph, fp: str,
               budget: ResourceBudget, data_format: QFormat,
               weight_format: QFormat, max_lanes: int = 0, max_simd: int = 0,
               fold_capacity_scale: float = 1.0):
        """datapath + realise, memoized; returns ``(design, keys,
        seconds, realised)``.

        ``keys`` holds the ``design`` key and the ``compile`` key of the
        design's control program; ``realised`` is True when this call
        realised the design rather than finding it memoized.
        """
        gen = NNGen()
        gen.validate_knobs(max_lanes=max_lanes, max_simd=max_simd,
                           fold_capacity_scale=fold_capacity_scale)
        config, choose_s = self.datapath(resolved, fp, budget, data_format,
                                         weight_format)
        config = NNGen.apply_caps(config, max_lanes, max_simd)
        key = self.design_key(fp, resolved, budget, config,
                              fold_capacity_scale)

        realised = False

        def realise():
            nonlocal realised
            realised = True
            folded: list[str] = []

            def fold(resolved, config, feature_capacity, weight_capacity):
                plan, fold_key = self.folding(resolved, fp, config,
                                              feature_capacity,
                                              weight_capacity)
                folded.append(fold_key)
                return plan

            design = gen.realise_design(resolved, budget, config,
                                        fold_capacity_scale, fold)
            return design, self.compile_key(design, folded[-1])

        (design, compile_key), realise_s = self.cache.get_or_build(
            "design", key, realise)
        keys = {"design": key, "compile": compile_key}
        return design, keys, choose_s + realise_s, realised

    @staticmethod
    def compile_key(design, folding_key: str) -> str:
        """Content address of a design's weight-independent control
        program.

        With no calibration inputs the coordinator program, memory map,
        routed blocks, blob formats and LUTs read the fold schedule
        (``folding_key``), the memory map's SIMD alignment
        (:func:`~repro.compiler.memmap.port_alignment`) and the data and
        weight formats.  The budget beyond the buffers it buys is not
        among them: it prices the design, not its program.
        """
        datapath = design.datapath
        return stage_key(
            "compile", folding=folding_key,
            alignment=port_alignment(design.resolved, datapath.simd),
            data_bits=_bits(datapath.data_format),
            weight_bits=_bits(datapath.weight_format),
        )

    def compile_core(self, design, key: str, realised: bool):
        """The weight-independent control program (``dram_image=None``)
        bound to ``design``; returns ``(program, seconds)``.

        One compiled core serves every design under the compile ``key``
        (:meth:`compile_key`) and every weight set.  Its AGU reduction
        is per design: a design ``realised`` by this build that hits
        another design's core installs its own reduced AGUs from the
        core's table summaries (a memoized design got them when it was
        realised), so resources and static power stay the design's own.
        """
        core, seconds = self.cache.get_or_build(
            "compile", key,
            lambda: DeepBurningCompiler().compile(design, weights=None))
        if core.design is not design:
            if realised:
                reduce_agus(design, core.table_summaries)
            core = replace(core, design=design)
        return core, seconds

    def timing(self, artifacts):
        """The recurrence over the artifacts' compiled program
        (:func:`~repro.sim.accel.program_timing`), memoized; returns
        ``(timing, seconds)``.

        It reads the coordinator program (the compile key), the
        datapath's SIMD width and the device, not the design's area, so
        designs sharing those share one timing;
        :func:`~repro.sim.accel.priced` prices it per design.
        """
        design = artifacts.design
        return self.cache.get_or_build(
            "timing",
            stage_key("timing", compile=artifacts.stage_keys["compile"],
                      simd=design.datapath.simd,
                      device=design.budget.device.name),
            lambda: program_timing(artifacts.program))

    def dram_image(self, design, core, fp: str, seed: int,
                   weights, weight_format: QFormat,
                   memoize: bool = True):
        """The quantized weight DRAM image for one compiled core.

        The image layout depends on the memory map (graph × the SIMD
        alignment :func:`~repro.compiler.memmap.port_alignment` gives),
        the weight values (fingerprint × declaration order × seed) and
        the weight format — nothing else, so sweep points that share an
        alignment share one image, whatever their SIMD widths.
        """
        builder = DeepBurningCompiler()

        def build() -> np.ndarray:
            return builder._build_dram_image(design, core.memory_map,
                                             weights, weight_format)

        if not memoize:
            started = time.perf_counter()
            return build(), time.perf_counter() - started
        key = stage_key(
            "dram", fp=fp, seed=seed,
            order=declaration_order(design.graph),
            weight_bits=_bits(weight_format),
            alignment=port_alignment(design.resolved, design.datapath.simd),
        )
        return self.cache.get_or_build("dram", key, build)

    # --- the composed flow --------------------------------------------

    def build(
        self,
        script_or_graph: "str | NetworkGraph",
        *,
        device: "str | Device" = "Z-7045",
        fraction: float = 0.3,
        budget: ResourceBudget | None = None,
        data_format: QFormat | None = None,
        weight_format: QFormat | None = None,
        max_lanes: int = 0,
        max_simd: int = 0,
        fold_capacity_scale: float = 1.0,
        weights="random",
        calibration_inputs: "list[np.ndarray] | None" = None,
        seed: int = 0,
        label: str = "",
    ):
        """Run the staged flow; same contract as :func:`repro.api.build`.

        Returns :class:`~repro.api.BuildArtifacts` whose
        ``stage_seconds`` records where the build time went (0.0 for
        memoized stages) and whose ``stage_keys`` lets downstream
        consumers (the float reference, the DSE engine) address the
        memoized intermediates.
        """
        from repro import api

        timings: dict[str, float] = {
            "parse_s": 0.0, "resolve_s": 0.0, "nngen_s": 0.0,
            "quantize_s": 0.0, "compile_s": 0.0,
        }
        started = time.perf_counter()
        graph = api._as_graph(script_or_graph)
        timings["parse_s"] = time.perf_counter() - started
        if budget is None:
            if isinstance(device, str):
                device = device_by_name(device)
            budget = budget_fraction(device, fraction, label)
        data_format = data_format or DEFAULT_DATA_FORMAT
        weight_format = weight_format or DEFAULT_WEIGHT_FORMAT

        if isinstance(weights, str):
            if weights != api.RANDOM_WEIGHTS:
                raise ValueError(
                    f"weights must be a dict, None or "
                    f"'{api.RANDOM_WEIGHTS}', got '{weights}'"
                )
            seeded = True
        else:
            seeded = False

        fp = self.fingerprint(graph)
        resolve_t0 = time.perf_counter()
        resolved = self.resolve(graph, fp)
        timings["resolve_s"] = time.perf_counter() - resolve_t0

        design, keys, timings["nngen_s"], realised = self.design(
            resolved, fp, budget, data_format, weight_format,
            max_lanes=max_lanes, max_simd=max_simd,
            fold_capacity_scale=fold_capacity_scale)
        if design.resolved is not resolved:
            # A hit on a same-fingerprint graph under another name:
            # report and run this build's graph.
            design = replace(design, resolved=resolved)
        core, compile_s = self.compile_core(design, keys["compile"],
                                            realised)
        timings["compile_s"] = compile_s

        if seeded:
            weights, weights_s = self.weights(resolved, fp, seed)
            timings["quantize_s"] += weights_s
        program = core  # a weightless core has dram_image=None
        if calibration_inputs:
            # Blob formats calibrated on the weights, per build: the
            # design and the core do not read them.
            started = time.perf_counter()
            compiler = DeepBurningCompiler()
            formats = compiler._calibrate_blobs(design, weights,
                                                calibration_inputs)
            program = replace(core, blob_formats=formats,
                              luts=compiler._build_luts(design, formats))
            timings["compile_s"] += time.perf_counter() - started
        if weights is not None:
            dram, dram_s = self.dram_image(
                design, core, fp, seed, weights, weight_format,
                memoize=seeded)
            timings["quantize_s"] += dram_s
            program = replace(program, dram_image=dram)

        return api.BuildArtifacts(
            graph=graph,
            design=design,
            program=program,
            budget=budget,
            weights=weights,
            seed=seed,
            stage_seconds=timings,
            stage_keys={"fingerprint": fp, **keys, "seeded": seeded},
        )

    # --- downstream stages --------------------------------------------

    def reference_output(self, artifacts):
        """Float-reference output for the artifacts' default input.

        Depends only on (network, declaration order, seed) — every
        design point of one sweep shares it, so fidelity scoring pays
        the float forward pass once.
        """
        from repro.nn.reference import ReferenceNetwork

        keys = artifacts.stage_keys or {}
        def build() -> np.ndarray:
            return np.asarray(
                ReferenceNetwork(artifacts.design.graph, artifacts.weights)
                .output(artifacts.random_input()), dtype=float)

        if not keys.get("seeded"):
            return build()
        return self.memo(
            "reference",
            {"fp": keys["fingerprint"], "seed": artifacts.seed,
             "order": declaration_order(artifacts.graph)},
            build)


# --- the shared default -----------------------------------------------

_default_pipeline: BuildPipeline | None = None
_default_lock = threading.Lock()


def default_pipeline() -> BuildPipeline:
    """The process-wide pipeline behind :func:`repro.api.build`.

    Shared so repeated builds — serving sessions warm-starting, sweep
    follow-ups, tests — reuse each other's stages.  Forked sweep workers
    inherit whatever the parent primed, copy-on-write.
    """
    global _default_pipeline
    with _default_lock:
        if _default_pipeline is None:
            _default_pipeline = BuildPipeline()
        return _default_pipeline


def reset_default_pipeline() -> None:
    """Drop the shared cache (tests; long-lived processes under memory
    pressure)."""
    global _default_pipeline
    with _default_lock:
        _default_pipeline = None

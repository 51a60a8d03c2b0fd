"""Result model of a design-space exploration.

Every evaluated :class:`~repro.dse.spec.SweepPoint` yields a
:class:`PointResult` — including infeasible points, which record the
failure reason instead of aborting the sweep.  A :class:`SweepResult`
aggregates them, computes the latency-vs-resource Pareto frontier and
renders the report table.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.dse.spec import SweepPoint
from repro.experiments.report import format_energy, format_time, render_table

#: Result schema version, bumped whenever the JSON layout changes so a
#: stale cache entry is treated as a miss rather than misread.
#: 2: ``estimator`` provenance field (exact | analytic).
RESULT_SCHEMA = 2


@dataclass(frozen=True)
class PointResult:
    """Outcome of evaluating one sweep point."""

    point: SweepPoint
    status: str  # "ok" | "infeasible" | "rejected" (static verifier)
    reason: str = ""
    # Design shape
    lanes: int = 0
    simd: int = 0
    folds: int = 0
    # Resource bill
    dsp: int = 0
    lut: int = 0
    ff: int = 0
    bram_bits: int = 0
    # Timing / energy
    cycles: int = 0
    time_s: float = 0.0
    energy_j: float = 0.0
    power_w: float = 0.0
    macs: int = 0
    #: Output fidelity vs the float reference in [0, 1]; None when the
    #: sweep ran timing-only.
    accuracy: float | None = None
    #: The sweep mode's label, ``"exact"`` or ``"analytic"``; both
    #: report the timing of the compiled program.  A hybrid sweep's
    #: replayed frontier points read ``"exact"``.
    estimator: str = "exact"
    #: True when this result came out of the design cache.
    cached: bool = False
    #: Where the evaluation's time went: ``build_s`` total plus the
    #: ``nngen_s``/``quantize_s``/``compile_s`` build split
    #: and the ``estimate_s``/``simulate_s`` evaluation split (0.0 for
    #: pipeline-memoized stages, empty for cached or shared results).
    #: Diagnostic only — excluded from equality, JSON and the design
    #: cache so cold/warm/serial/parallel sweeps stay byte-identical.
    stage_s: dict[str, float] = field(default_factory=dict, compare=False)

    @property
    def feasible(self) -> bool:
        return self.status == "ok"

    def to_json(self) -> dict:
        return {
            "schema": RESULT_SCHEMA,
            "point": self.point.params(),
            "status": self.status,
            "reason": self.reason,
            "lanes": self.lanes,
            "simd": self.simd,
            "folds": self.folds,
            "dsp": self.dsp,
            "lut": self.lut,
            "ff": self.ff,
            "bram_bits": self.bram_bits,
            "cycles": self.cycles,
            "time_s": self.time_s,
            "energy_j": self.energy_j,
            "power_w": self.power_w,
            "macs": self.macs,
            "accuracy": self.accuracy,
            "estimator": self.estimator,
        }

    @staticmethod
    def from_json(data: dict, cached: bool = False) -> "PointResult":
        return PointResult(
            point=SweepPoint.from_params(data["point"]),
            status=str(data["status"]),
            reason=str(data["reason"]),
            lanes=int(data["lanes"]),
            simd=int(data["simd"]),
            folds=int(data["folds"]),
            dsp=int(data["dsp"]),
            lut=int(data["lut"]),
            ff=int(data["ff"]),
            bram_bits=int(data["bram_bits"]),
            cycles=int(data["cycles"]),
            time_s=float(data["time_s"]),
            energy_j=float(data["energy_j"]),
            power_w=float(data["power_w"]),
            macs=int(data["macs"]),
            accuracy=(None if data.get("accuracy") is None
                      else float(data["accuracy"])),
            estimator=str(data.get("estimator", "exact")),
            cached=cached,
        )

    def as_cached(self) -> "PointResult":
        return replace(self, cached=True)


def pareto_frontier(
    results: Sequence[PointResult],
    latency: Callable[[PointResult], float] = lambda r: r.time_s,
    resource: Callable[[PointResult], float] = lambda r: r.lut,
) -> list[PointResult]:
    """Non-dominated feasible points, minimizing latency and resource.

    A point is dominated when another feasible point is no worse on both
    axes and strictly better on at least one.  The frontier is returned
    sorted by rising resource (so latency falls along it), with the
    point label as a stable secondary key so coordinate ties resolve
    the same way regardless of input order.
    """
    feasible = [r for r in results if r.feasible]
    # Plane sweep by rising (resource, latency, label): a point joins
    # the staircase iff it is strictly faster than everything cheaper
    # or equal in resource.  Equivalent to the quadratic all-pairs
    # dominance check (plus its coordinate-tie dedupe, which the sort's
    # label key resolves order-independently), but O(n log n) — wide
    # analytic sweeps hand this thousands of points.
    feasible.sort(key=lambda r: (resource(r), latency(r), r.point.label))
    frontier: list[PointResult] = []
    best_latency = float("inf")
    for result in feasible:
        if latency(result) < best_latency:
            frontier.append(result)
            best_latency = latency(result)
    return frontier


def frontier_knee(
    frontier: Sequence[PointResult],
    latency: Callable[[PointResult], float] = lambda r: r.time_s,
    resource: Callable[[PointResult], float] = lambda r: r.lut,
) -> PointResult | None:
    """The balanced point: nearest to the origin in normalized axes.

    Distance ties resolve on the point label, so analytic and exact
    sweeps over equal frontiers always report the same knee.
    """
    if not frontier:
        return None
    lat = [latency(r) for r in frontier]
    res = [resource(r) for r in frontier]
    lat_span = max(lat) - min(lat) or 1.0
    res_span = max(res) - min(res) or 1.0
    best = None
    best_rank: tuple[float, str] = (float("inf"), "")
    for result, l, c in zip(frontier, lat, res):
        distance = (((l - min(lat)) / lat_span) ** 2
                    + ((c - min(res)) / res_span) ** 2) ** 0.5
        rank = (distance, result.point.label)
        if rank < best_rank:
            best, best_rank = result, rank
    return best


def knee_neighborhood(
    results: Sequence[PointResult],
    knee: PointResult | None,
    count: int = 2,
    latency: Callable[[PointResult], float] = lambda r: r.time_s,
    resource: Callable[[PointResult], float] = lambda r: r.lut,
) -> list[PointResult]:
    """The ``count`` feasible points nearest the knee, knee excluded.

    Distances are measured in axes normalized over the feasible span
    (the same scaling the knee selection uses) and ties resolve on the
    point label, so the neighborhood is deterministic.  A hybrid sweep
    replays these alongside the frontier as ``exact`` rows (with the
    functional simulation, if the sweep asks for it).
    """
    if knee is None:
        return []
    feasible = [r for r in results if r.feasible and r is not knee]
    if not feasible:
        return []
    lat = [latency(r) for r in feasible] + [latency(knee)]
    res = [resource(r) for r in feasible] + [resource(knee)]
    lat_span = max(lat) - min(lat) or 1.0
    res_span = max(res) - min(res) or 1.0
    ranked = sorted(
        feasible,
        key=lambda r: (
            (((latency(r) - latency(knee)) / lat_span) ** 2
             + ((resource(r) - resource(knee)) / res_span) ** 2) ** 0.5,
            r.point.label,
        ),
    )
    return ranked[:max(0, count)]


@dataclass
class SweepResult:
    """Aggregate outcome of one exploration run."""

    results: list[PointResult] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0
    jobs: int = 1
    #: Points skipped because an identical point appeared earlier in the
    #: same sweep (the duplicate reuses the first evaluation's result).
    deduped: int = 0
    #: Points that collapsed onto an already-evaluated realized design
    #: (same effective datapath under this budget) and shared its
    #: canonical metrics instead of rebuilding.
    design_shared: int = 0
    #: Which evaluator the sweep ran: "exact", "analytic" or "hybrid".
    estimator: str = "exact"
    #: Hybrid only: points re-evaluated through the exact simulator
    #: (the Pareto frontier plus the knee neighborhood).
    replayed: int = 0

    @property
    def feasible(self) -> list[PointResult]:
        return [r for r in self.results if r.feasible]

    @property
    def infeasible(self) -> list[PointResult]:
        return [r for r in self.results if not r.feasible]

    @property
    def rejected(self) -> list[PointResult]:
        """Points the static verifier filtered out before evaluation."""
        return [r for r in self.results if r.status == "rejected"]

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def frontier(self) -> list[PointResult]:
        return pareto_frontier(self.results)

    def knee(self) -> PointResult | None:
        return frontier_knee(self.frontier())

    def cache_summary(self) -> str:
        total = self.cache_hits + self.cache_misses
        summary = (f"cache: {self.cache_hits} hits, {self.cache_misses} "
                   f"misses ({self.cache_hit_rate:.0%} of {total} points)")
        if self.deduped or self.design_shared:
            summary += (f"; {self.deduped} duplicate points deduped, "
                        f"{self.design_shared} shared a realized design")
        return summary

    def stage_split(self) -> dict[str, float]:
        """Total seconds spent per stage across evaluated points.

        Memoized stages contribute 0.0 and cached/shared results carry
        no timings, so the split shows exactly where fresh work went —
        including the ``estimate_s``/``simulate_s`` evaluation split
        that tells a hybrid sweep's analytic time from its replay time.
        ``plan_s`` is always 0.0 (no build stage packs an execution
        plan); the key stays for readers that still sum it.
        """
        split = {"build_s": 0.0, "nngen_s": 0.0, "quantize_s": 0.0,
                 "compile_s": 0.0, "plan_s": 0.0, "estimate_s": 0.0,
                 "simulate_s": 0.0}
        for result in self.results:
            for stage, seconds in result.stage_s.items():
                split[stage] = split.get(stage, 0.0) + seconds
        return split

    def stage_summary(self) -> str:
        split = self.stage_split()
        detail = " ".join(
            f"{stage.removesuffix('_s')} {split[stage]:.3f}s"
            for stage in ("nngen_s", "quantize_s", "compile_s"))
        evaluate = " ".join(
            f"{stage.removesuffix('_s')} {split[stage]:.3f}s"
            for stage in ("estimate_s", "simulate_s"))
        return (f"build stages: {split['build_s']:.3f}s total ({detail}); "
                f"evaluation: {evaluate}")

    def render(self, title: str = "design space") -> str:
        """The report table plus cache and frontier summaries."""
        frontier = self.frontier()
        on_frontier = {id(r) for r in frontier}
        headers = ["point", "status", "lanes x simd", "folds", "DSP",
                   "LUT", "time", "energy", "power", "pareto"]
        has_accuracy = any(r.accuracy is not None for r in self.results)
        if has_accuracy:
            headers.insert(9, "fidelity")
        has_stages = any(r.stage_s for r in self.results)
        if has_stages:
            headers.insert(9, "build")
        rows = []
        for result in self.results:
            if result.feasible:
                row = [
                    result.point.label,
                    "ok" + (" (cached)" if result.cached else ""),
                    f"{result.lanes}x{result.simd}",
                    result.folds,
                    result.dsp,
                    result.lut,
                    format_time(result.time_s),
                    format_energy(result.energy_j),
                    f"{result.power_w:.2f}W",
                ]
                if has_stages:
                    if result.cached:
                        row.append("-")
                    elif not result.stage_s:
                        row.append("shared")
                    else:
                        row.append(
                            f"{result.stage_s.get('build_s', 0.0):.3f}s")
                if has_accuracy:
                    row.append("-" if result.accuracy is None
                               else f"{result.accuracy:.3f}")
                row.append("*" if id(result) in on_frontier else "")
            else:
                row = [result.point.label, result.status, "-", "-", "-", "-",
                       "-", "-", "-"]
                if has_stages:
                    row.append("-")
                if has_accuracy:
                    row.append("-")
                row.append("")
            rows.append(row)
        lines = [render_table(headers, rows, title=title)]
        if self.estimator != "exact":
            note = f"estimator: {self.estimator}"
            if self.estimator == "hybrid":
                note += (f" ({self.replayed} frontier/knee points replayed "
                         "as exact)")
            lines.append(note)
        lines.append(self.cache_summary())
        if has_stages:
            lines.append(self.stage_summary())
        knee = self.knee()
        if knee is not None:
            lines.append(
                f"frontier: {len(frontier)} of {len(self.feasible)} feasible "
                f"points; knee at {knee.point.label} "
                f"({format_time(knee.time_s)}, {knee.lut} LUT)"
            )
        rejected = self.rejected
        if rejected:
            lines.append(f"static filter: {len(rejected)} points rejected "
                         "before evaluation (see status column)")
        plain_infeasible = len(self.infeasible) - len(rejected)
        if plain_infeasible:
            lines.append(f"infeasible: {plain_infeasible} points "
                         "(see status column)")
        return "\n".join(lines)

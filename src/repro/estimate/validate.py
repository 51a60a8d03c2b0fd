"""Estimator-vs-simulator cross-validation.

Mirrors the static-vs-dynamic verifier check: build every zoo network
(timing-only), run both the simulator and the analytic model, and
report the relative cycle error plus the activity-counter agreement.
``repro estimate --all-zoo --max-error 0`` gates this in CI: the two
traffic sources must agree exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import api
from repro.frontend.graph import NetworkGraph
from repro.pipeline import BuildPipeline


def zoo_networks() -> list[str]:
    """Every zoo benchmark name, in registry order."""
    from repro.zoo.models import BENCHMARKS
    return list(BENCHMARKS)


@dataclass(frozen=True)
class NetValidation:
    """Estimator accuracy on one network."""

    network: str
    estimated_cycles: int
    simulated_cycles: int
    rel_error: float
    counters_match: bool
    estimate_s: float
    simulate_s: float


@dataclass
class ValidationReport:
    """Zoo-wide estimator accuracy summary."""

    rows: list[NetValidation] = field(default_factory=list)
    tolerance: float = 0.05

    @property
    def max_rel_error(self) -> float:
        return max((row.rel_error for row in self.rows), default=0.0)

    @property
    def mean_rel_error(self) -> float:
        if not self.rows:
            return 0.0
        return sum(row.rel_error for row in self.rows) / len(self.rows)

    @property
    def ok(self) -> bool:
        return (self.max_rel_error <= self.tolerance
                and all(row.counters_match for row in self.rows))

    def to_json(self) -> dict[str, object]:
        return {
            "tolerance": self.tolerance,
            "max_rel_cycle_error": self.max_rel_error,
            "mean_rel_cycle_error": self.mean_rel_error,
            "per_net": {row.network: row.rel_error for row in self.rows},
            "ok": self.ok,
        }

    def render(self) -> str:
        lines = ["network          estimated     simulated     rel err  "
                 "counters  est/sim time"]
        for row in self.rows:
            speedup = (row.simulate_s / row.estimate_s
                       if row.estimate_s > 0 else 0.0)
            lines.append(
                f"{row.network:15s}  {row.estimated_cycles:12d}"
                f"  {row.simulated_cycles:12d}  {row.rel_error:8.4%}"
                f"  {'match' if row.counters_match else 'DIFFER':8s}"
                f"  {speedup:6.1f}x faster"
            )
        lines.append(
            f"max rel cycle error {self.max_rel_error:.4%}, "
            f"mean {self.mean_rel_error:.4%} "
            f"(tolerance {self.tolerance:.0%}): "
            + ("PASS" if self.ok else "FAIL")
        )
        return "\n".join(lines)


def validate_network(
    graph_or_name: "str | NetworkGraph",
    device: str = "Z-7045",
    fraction: float = 0.3,
    pipeline: BuildPipeline | None = None,
) -> NetValidation:
    """Estimator-vs-simulator comparison for one network."""
    if isinstance(graph_or_name, str):
        from repro.zoo.models import benchmark_graph
        graph = benchmark_graph(graph_or_name)
        name = graph_or_name
    else:
        graph = graph_or_name
        name = graph.name
    artifacts = api.build(graph, device=device, fraction=fraction,
                          weights=None, pipeline=pipeline)
    started = time.perf_counter()
    simulated = api.simulate(artifacts, functional=False)
    simulate_s = time.perf_counter() - started
    started = time.perf_counter()
    estimated = api.estimate(artifacts)
    estimate_s = time.perf_counter() - started
    rel_error = (abs(estimated.cycles - simulated.cycles)
                 / max(1, simulated.cycles))
    counters_match = (estimated.macs == simulated.macs
                      and estimated.dram_words == simulated.dram_words)
    return NetValidation(
        network=name,
        estimated_cycles=estimated.cycles,
        simulated_cycles=simulated.cycles,
        rel_error=rel_error,
        counters_match=counters_match,
        estimate_s=estimate_s,
        simulate_s=simulate_s,
    )


def cross_validate(
    networks: "list[str] | None" = None,
    device: str = "Z-7045",
    fraction: float = 0.3,
    tolerance: float = 0.05,
    pipeline: BuildPipeline | None = None,
) -> ValidationReport:
    """Validate the analytic model against the simulator per network.

    Defaults to the full zoo — including the modern depthwise/eltwise
    topologies — on one shared pipeline so builds reuse stages.
    """
    pipe = pipeline or BuildPipeline()
    report = ValidationReport(tolerance=tolerance)
    for name in (networks if networks is not None else zoo_networks()):
        report.rows.append(validate_network(
            name, device=device, fraction=fraction, pipeline=pipe))
    return report

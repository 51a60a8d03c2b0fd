"""The verification orchestrator behind ``repro verify``.

:func:`analyze` runs the four static passes over one compiled
:class:`~repro.compiler.program.ControlProgram` — fixed-point range
analysis, memory safety, control-program analysis, IR lint — and
aggregates their findings into one severity-ranked
:class:`~repro.analysis.report.AnalysisReport`.  Nothing is simulated
and no input data is needed; the whole proof comes from the compiled
artifacts.

:func:`verify_artifacts` is the convenience entry over an
:class:`~repro.api.BuildArtifacts` bundle.  The range pass takes exact
per-row worst cases from the program's DRAM image whenever the build
has weights.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.control import analyze_control
from repro.analysis.lint import LintContext, analyze_lint
from repro.analysis.memory import analyze_memory
from repro.analysis.ranges import analyze_ranges
from repro.analysis.report import AnalysisReport
from repro.compiler.program import ControlProgram
from repro.errors import VerificationError

#: All pass names, in execution order.
ALL_PASSES = ("lint", "ranges", "memory", "control")


def analyze(
    program: ControlProgram,
    *,
    passes: Iterable[str] | None = None,
    suppress: Iterable[str] = (),
) -> AnalysisReport:
    """Statically verify one compiled program.

    ``passes`` selects a subset of :data:`ALL_PASSES` (default: all);
    ``suppress`` is a set of rule ids whose findings are counted but
    dropped from the report.
    """
    selected = tuple(passes) if passes is not None else ALL_PASSES
    unknown = [name for name in selected if name not in ALL_PASSES]
    if unknown:
        raise VerificationError(
            f"unknown analysis pass(es) {unknown}; options: {ALL_PASSES}")
    suppressed = frozenset(suppress)
    report = AnalysisReport(design_name=program.design.graph.name,
                            passes_run=selected)
    design = program.design
    for name in selected:
        if name == "lint":
            ctx = LintContext(graph=design.graph, design=design,
                              program=program)
            findings = analyze_lint(ctx)
        elif name == "ranges":
            findings = analyze_ranges(program)
        elif name == "memory":
            findings = analyze_memory(program)
        else:
            findings = analyze_control(program)
        report.extend(name, findings, suppressed)
    return report


def verify_artifacts(
    artifacts: "repro.api.BuildArtifacts",  # noqa: F821 - documentation only
    *,
    passes: Iterable[str] | None = None,
    suppress: Iterable[str] = (),
) -> AnalysisReport:
    """Statically verify one build (exact range bounds when it has
    weights, read from its program's DRAM image)."""
    return analyze(artifacts.program, passes=passes, suppress=suppress)


def require_clean(report: AnalysisReport) -> AnalysisReport:
    """Raise :class:`VerificationError` on any error-severity finding."""
    if not report.ok:
        first = report.errors[0]
        raise VerificationError(
            f"static verification of '{report.design_name}' found "
            f"{len(report.errors)} error(s); first: "
            f"{first.rule} at {first.where}: {first.message}")
    return report

"""IR lint (pass "lint"): an extensible rule registry over the graph.

Each rule is a plain function registered under a stable id with
:func:`rule`; it receives a :class:`LintContext` and yields
:class:`Finding` records.  Rules run in registration order; callers
suppress individual ids through the verifier's ``suppress=`` set, and
third parties extend the pass by registering new rules:

::

    from repro.analysis.lint import rule, LintContext

    @rule("lint.my-rule")
    def my_rule(ctx: LintContext):
        ...

Built-in rules: ``lint.duplicate-layer``, ``lint.dangling-blob``,
``lint.shape-mismatch``, ``lint.eltwise-arity``,
``lint.residual-mismatch``, ``lint.depthwise-multiplier``,
``lint.concat-mismatch`` (ERROR); ``lint.dead-layer``,
``lint.degenerate-conv``, ``lint.degenerate-pool``,
``lint.dropout-ratio``, ``lint.lrn-size``, ``lint.unused-input``
(WARNING); ``lint.format-missing`` (ERROR, needs a compiled program).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from repro.analysis.report import Finding, Severity
from repro.compiler.program import ControlProgram
from repro.errors import DeepBurningError
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind
from repro.frontend.resolver import ResolvedGraph, lower
from repro.nngen.design import AcceleratorDesign


@dataclass
class LintContext:
    """Everything a lint rule may inspect; ``resolved`` is the design's
    resolved graph, else the graph's non-raising lowering."""

    graph: NetworkGraph
    design: AcceleratorDesign | None = None
    program: ControlProgram | None = None
    resolved: ResolvedGraph = field(init=False)

    def __post_init__(self) -> None:
        self.resolved = (self.design.resolved if self.design is not None
                         else lower(self.graph))


LintRule = Callable[[LintContext], Iterable[Finding]]

#: Registered rules in registration order, keyed by rule id.
RULES: dict[str, LintRule] = {}


def rule(rule_id: str) -> Callable[[LintRule], LintRule]:
    """Register a lint rule under ``rule_id`` (latest wins)."""

    def register(fn: LintRule) -> LintRule:
        RULES[rule_id] = fn
        return fn

    return register


def _finding(rule_id: str, severity: Severity, where: str, message: str,
             **details: object) -> Finding:
    return Finding(rule=rule_id, severity=severity, where=where,
                   message=message, details=details)


# ---------------------------------------------------------------------------
# built-in rules


@rule("lint.duplicate-layer")
def duplicate_layer(ctx: LintContext) -> Iterator[Finding]:
    seen: dict[str, int] = {}
    for spec in ctx.graph.layers:
        seen[spec.name] = seen.get(spec.name, 0) + 1
    for name, count in seen.items():
        if count > 1:
            yield _finding(
                "lint.duplicate-layer", Severity.ERROR, name,
                f"{count} layers share the name '{name}'; references are "
                "ambiguous", count=count)


@rule("lint.dangling-blob")
def dangling_blob(ctx: LintContext) -> Iterator[Finding]:
    produced = {top for spec in ctx.graph.layers for top in spec.tops}
    for spec in ctx.graph.layers:
        for bottom in spec.bottoms:
            if bottom not in produced:
                yield _finding(
                    "lint.dangling-blob", Severity.ERROR, spec.name,
                    f"layer consumes blob '{bottom}' that no layer "
                    "produces", blob=bottom)


@rule("lint.dead-layer")
def dead_layer(ctx: LintContext) -> Iterator[Finding]:
    graph = ctx.graph
    outputs = graph.outputs()
    if not outputs:
        return
    # Every producer of a blob keeps it alive — graph.producers() is
    # latest-wins, which would hide the original writer behind an
    # in-place layer (ReLU with top == bottom) and mark it dead.
    producers: dict[str, list[str]] = {}
    for spec in graph.layers:
        for top in spec.tops:
            producers.setdefault(top, []).append(spec.name)
    live: set[str] = set()
    frontier = [spec.name for spec in outputs]
    while frontier:
        name = frontier.pop()
        if name in live:
            continue
        live.add(name)
        try:
            spec = graph.layer(name)
        except DeepBurningError:
            continue
        for bottom in spec.bottoms:
            for producer in producers.get(bottom, ()):
                if producer not in live:
                    frontier.append(producer)
    for spec in graph.layers:
        if spec.name not in live and spec.kind is not LayerKind.DATA:
            yield _finding(
                "lint.dead-layer", Severity.WARNING, spec.name,
                "layer contributes to no network output but still costs "
                "cycles and resources")


@rule("lint.unused-input")
def unused_input(ctx: LintContext) -> Iterator[Finding]:
    consumed = set(ctx.graph.consumers())
    for spec in ctx.graph.inputs():
        if spec.tops and not any(top in consumed for top in spec.tops):
            yield _finding(
                "lint.unused-input", Severity.WARNING, spec.name,
                f"input blob(s) {list(spec.tops)} are never consumed")


@rule("lint.shape-mismatch")
def shape_mismatch(ctx: LintContext) -> Iterator[Finding]:
    if ctx.resolved.errors:
        yield _finding(
            "lint.shape-mismatch", Severity.ERROR, ctx.graph.name,
            f"shape inference fails: {ctx.resolved.errors[0]}")


@rule("lint.eltwise-arity")
def eltwise_arity(ctx: LintContext) -> Iterator[Finding]:
    for spec in ctx.graph.layers:
        if spec.kind is LayerKind.ELTWISE and len(spec.bottoms) < 2:
            yield _finding(
                "lint.eltwise-arity", Severity.ERROR, spec.name,
                f"elementwise layer sums {len(spec.bottoms)} input(s); a "
                "residual join needs at least two",
                bottoms=list(spec.bottoms))


@rule("lint.residual-mismatch")
def residual_mismatch(ctx: LintContext) -> Iterator[Finding]:
    # Lowering still resolves the *branch* shapes when the join itself
    # is what breaks resolution.
    shapes = ctx.resolved.shapes
    for spec in ctx.graph.layers:
        if spec.kind is not LayerKind.ELTWISE:
            continue
        known = [(b, shapes[b]) for b in spec.bottoms if b in shapes]
        dims = {shape.dims for _, shape in known}
        if len(dims) > 1:
            yield _finding(
                "lint.residual-mismatch", Severity.ERROR, spec.name,
                "elementwise inputs differ in shape: "
                + ", ".join(f"{b}={shape}" for b, shape in known),
                shapes={b: list(shape.dims) for b, shape in known})


@rule("lint.depthwise-multiplier")
def depthwise_multiplier(ctx: LintContext) -> Iterator[Finding]:
    shapes = ctx.resolved.shapes
    for spec in ctx.graph.layers:
        if spec.kind is not LayerKind.DEPTHWISE_CONVOLUTION \
                or not spec.bottoms:
            continue
        in_shape = shapes.get(spec.bottoms[0])
        if in_shape is None or not in_shape.is_spatial:
            continue
        if spec.num_output % in_shape.channels != 0:
            yield _finding(
                "lint.depthwise-multiplier", Severity.ERROR, spec.name,
                f"num_output {spec.num_output} is not an integer multiple "
                f"of the {in_shape.channels} input channels; the channel "
                "multiplier must be whole",
                num_output=spec.num_output, channels=in_shape.channels)


@rule("lint.concat-mismatch")
def concat_mismatch(ctx: LintContext) -> Iterator[Finding]:
    shapes = ctx.resolved.shapes
    for spec in ctx.graph.layers:
        if spec.kind is not LayerKind.CONCAT:
            continue
        known = [(b, shapes[b]) for b in spec.bottoms if b in shapes]
        spatial = [(b, s) for b, s in known if s.is_spatial]
        if len(spatial) < 2 or len(spatial) != len(known):
            continue
        planes = {(s.height, s.width) for _, s in spatial}
        if len(planes) > 1:
            yield _finding(
                "lint.concat-mismatch", Severity.ERROR, spec.name,
                "channel concat inputs differ spatially: "
                + ", ".join(f"{b}={s}" for b, s in spatial),
                shapes={b: list(s.dims) for b, s in spatial})


@rule("lint.degenerate-conv")
def degenerate_conv(ctx: LintContext) -> Iterator[Finding]:
    for spec in ctx.graph.layers:
        if spec.kind.is_convolution \
                and spec.stride > spec.kernel_size:
            yield _finding(
                "lint.degenerate-conv", Severity.WARNING, spec.name,
                f"stride {spec.stride} exceeds kernel {spec.kernel_size}; "
                "input pixels are skipped entirely",
                stride=spec.stride, kernel=spec.kernel_size)


@rule("lint.degenerate-pool")
def degenerate_pool(ctx: LintContext) -> Iterator[Finding]:
    for spec in ctx.graph.layers:
        if spec.kind is not LayerKind.POOLING:
            continue
        if spec.stride > spec.kernel_size:
            yield _finding(
                "lint.degenerate-pool", Severity.WARNING, spec.name,
                f"stride {spec.stride} exceeds window {spec.kernel_size}; "
                "input pixels are skipped entirely",
                stride=spec.stride, kernel=spec.kernel_size)
        elif spec.kernel_size == 1 and spec.stride == 1:
            yield _finding(
                "lint.degenerate-pool", Severity.WARNING, spec.name,
                "1x1 stride-1 pooling is an identity; drop the layer")


@rule("lint.dropout-ratio")
def dropout_ratio(ctx: LintContext) -> Iterator[Finding]:
    for spec in ctx.graph.layers:
        if spec.kind is LayerKind.DROPOUT and spec.dropout_ratio >= 0.9:
            yield _finding(
                "lint.dropout-ratio", Severity.WARNING, spec.name,
                f"dropout_ratio {spec.dropout_ratio} suppresses nearly "
                "every activation during training",
                ratio=spec.dropout_ratio)


@rule("lint.lrn-size")
def lrn_size(ctx: LintContext) -> Iterator[Finding]:
    for spec in ctx.graph.layers:
        if spec.kind is LayerKind.LRN and spec.local_size % 2 == 0:
            yield _finding(
                "lint.lrn-size", Severity.WARNING, spec.name,
                f"LRN local_size {spec.local_size} is even; the "
                "normalisation window cannot centre on a channel",
                local_size=spec.local_size)


@rule("lint.format-missing")
def format_missing(ctx: LintContext) -> Iterator[Finding]:
    if ctx.program is None:
        return
    for blob in ctx.resolved.shapes:
        if blob not in ctx.program.blob_formats:
            yield _finding(
                "lint.format-missing", Severity.ERROR, blob,
                "blob has no calibrated fixed-point format; the "
                "functional model cannot quantize it", blob=blob)


# ---------------------------------------------------------------------------


def analyze_lint(ctx: LintContext) -> list[Finding]:
    """Run every registered rule over one lint context."""
    findings: list[Finding] = []
    for rule_fn in RULES.values():
        findings.extend(rule_fn(ctx))
    return findings

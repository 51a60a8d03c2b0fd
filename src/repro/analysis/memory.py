"""Memory-safety analysis (pass "memory").

Statically proves every compiled :class:`AccessPattern` lands inside the
DRAM region it is supposed to touch — no replay, the affine form gives
the exact address envelope in closed form:

* ``mem.region-overlap`` (ERROR) — two DRAM regions alias;
* ``mem.region-bounds`` (ERROR) — a region exceeds the declared DRAM
  footprint;
* ``mem.dram-oob`` (ERROR) — a main-AGU pattern leaves the DRAM map;
  reported once per coordinator main-table row, naming the row's table
  index and fold event;
* ``mem.feature-read-oob`` / ``mem.weight-read-oob`` /
  ``mem.write-oob`` (ERROR) — a pattern escapes the region(s) its layer
  owns (feature reads may touch the layer's bottoms and tops — the
  recurrent state lives in the output region; weight reads must stay in
  the layer's weight rows; writes must stay in a top blob);
* ``mem.read-overfetch`` (WARNING) — a convolution band read starts in
  its input region but sweeps past the region end (band addressing
  rounds up to whole tile rows near the image bottom; the tail words
  are fetched and discarded, never consumed);
* ``mem.phase-alias`` (ERROR) — a fold writes DRAM words it also reads
  in the same phase without being an in-place layer;
* ``mem.buffer-overflow`` (ERROR) — a fold's declared input+output (or
  weight) words exceed the on-chip buffer capacity.

The buffer check mirrors the folding planner's invariant: buffered
kinds (conv / pool / dense / recurrent / associative) stage an input
band plus an output band per feature bank and a weight block per
weight bank; elementwise folds stream the whole map and are exempt.
The data/weight AGU replay addresses are relative sweeps whose
absolute placement the buffer controller owns.
"""

from __future__ import annotations

from repro.analysis.report import Finding, Severity
from repro.compiler.control import CoordinatorState
from repro.compiler.patterns import AccessPattern
from repro.compiler.program import ControlProgram
from repro.frontend.layers import LayerKind

#: Fold kinds whose buffer footprint the planner bounds; every other
#: kind is streamed through the datapath without staging the full map.
_BUFFERED_KINDS = frozenset({
    LayerKind.CONVOLUTION,
    LayerKind.DEPTHWISE_CONVOLUTION,
    LayerKind.POOLING,
    LayerKind.INNER_PRODUCT,
    LayerKind.RECURRENT,
    LayerKind.ASSOCIATIVE,
})


def pattern_span(pattern: AccessPattern) -> tuple[int, int]:
    """Closed-form [lowest, highest] address of one affine sweep."""
    x_reach = (pattern.x_length - 1) * pattern.stride
    y_reach = (pattern.y_length - 1) * pattern.offset
    lo = pattern.start_address + min(0, x_reach) + min(0, y_reach)
    hi = pattern.start_address + max(0, x_reach) + max(0, y_reach)
    return lo, hi


def _overlaps(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


class _MemoryPass:
    def __init__(self, program: ControlProgram) -> None:
        self.program = program
        self.memory_map = program.memory_map
        self.resolved = program.design.resolved
        self.findings: list[Finding] = []
        #: name -> inclusive element span, for features and weights.
        self.feature_spans: dict[str, tuple[int, int]] = {
            blob: (base, base + layout.total_elements - 1)
            for blob, (base, layout) in self.memory_map.feature_regions.items()
        }
        self.weight_spans: dict[str, tuple[int, int]] = {
            layer: (region.base_address,
                    region.base_address + region.total_elements - 1)
            for layer, region in self.memory_map.weight_regions.items()
        }

    def _emit(self, rule: str, severity: Severity, where: str,
              message: str, **details: object) -> None:
        self.findings.append(Finding(rule=rule, severity=severity,
                                     where=where, message=message,
                                     details=details))

    # -- the map itself --------------------------------------------------

    def _check_regions(self) -> None:
        named = [(f"blob '{name}'", span)
                 for name, span in self.feature_spans.items()]
        named += [(f"weights '{name}'", span)
                  for name, span in self.weight_spans.items()]
        total = self.memory_map.total_elements
        for name, (lo, hi) in named:
            if lo < 0 or hi >= total:
                self._emit(
                    "mem.region-bounds", Severity.ERROR, name,
                    f"region [{lo}, {hi}] leaves the {total}-element "
                    "DRAM map", span=[lo, hi], total_elements=total,
                )
        ordered = sorted(named, key=lambda item: item[1])
        for (name_a, span_a), (name_b, span_b) in zip(ordered, ordered[1:]):
            if _overlaps(span_a, span_b):
                self._emit(
                    "mem.region-overlap", Severity.ERROR,
                    f"{name_a} / {name_b}",
                    f"regions {list(span_a)} and {list(span_b)} alias",
                    spans=[list(span_a), list(span_b)],
                )

    def _check_main_table(self) -> None:
        # The coordinator's main table is what the hardware AGU actually
        # replays, and every state's main rows are rows of it; bound each
        # row against DRAM here, once (the dynamic checker enforces the
        # same invariant by replay).
        total = self.memory_map.total_elements
        for index, pattern in enumerate(self.program.coordinator.main_table):
            span = pattern_span(pattern)
            if span[0] < 0 or span[1] >= total:
                self._emit(
                    "mem.dram-oob", Severity.ERROR,
                    f"main table[{index}] ({pattern.event})",
                    f"table pattern sweeps [{span[0]}, {span[1]}] outside "
                    f"the {total}-element DRAM map",
                    span=list(span), total_elements=total,
                )

    # -- per-phase pattern containment -----------------------------------

    def _inside_any(self, span: tuple[int, int],
                    spans: dict[str, tuple[int, int]],
                    names: tuple[str, ...]) -> str | None:
        for name in names:
            region = spans.get(name)
            if region and region[0] <= span[0] and span[1] <= region[1]:
                return name
        return None

    def _check_state(self, state: CoordinatorState) -> None:
        spec = self.resolved.layer(state.phase.layer)
        where = state.event or f"{spec.name}#{state.phase.phase_index}"
        total = self.memory_map.total_elements
        # Recurrent state is read from the output region, so feature
        # reads may legally touch both sides of the layer.
        readable = tuple(dict.fromkeys(spec.bottoms + spec.tops))
        read_spans: list[tuple[int, int]] = []
        write_spans: list[tuple[int, int]] = []

        main = self.program.coordinator.main_table
        for group, patterns in (
            ("feature read", main[state.main.start:state.weight_reads_at]),
            ("weight read", main[state.weight_reads_at:state.writes_at]),
            ("write", main[state.writes_at:state.main.stop]),
        ):
            for pattern in patterns:
                span = pattern_span(pattern)
                if span[0] < 0 or span[1] >= total:
                    continue  # a main-table row: _check_main_table reports it
                if group == "feature read":
                    home = next(
                        (name for name in readable
                         if (region := self.feature_spans.get(name))
                         and region[0] <= span[0] <= region[1]),
                        None)
                    if home is None:
                        read_spans.append(span)
                        self._emit(
                            "mem.feature-read-oob", Severity.ERROR, where,
                            f"feature read [{span[0]}, {span[1]}] starts "
                            f"outside the regions of blobs {list(readable)}",
                            span=list(span), blobs=list(readable),
                        )
                        continue
                    home_hi = self.feature_spans[home][1]
                    if span[1] > home_hi:
                        if spec.kind.is_convolution:
                            # Band addressing rounds up to whole tile
                            # rows; the tail is fetched then discarded.
                            self._emit(
                                "mem.read-overfetch", Severity.WARNING,
                                where,
                                f"band read [{span[0]}, {span[1]}] sweeps "
                                f"{span[1] - home_hi} words past the end "
                                f"of blob '{home}'; the tail is never "
                                "consumed",
                                span=list(span), blob=home,
                                overfetch=span[1] - home_hi,
                            )
                        else:
                            self._emit(
                                "mem.feature-read-oob", Severity.ERROR,
                                where,
                                f"feature read [{span[0]}, {span[1]}] "
                                f"escapes the region of blob '{home}' "
                                f"{list(self.feature_spans[home])}",
                                span=list(span), blob=home,
                            )
                    # Alias analysis only cares about words actually
                    # consumed, so clip the over-fetched tail.
                    read_spans.append((span[0], min(span[1], home_hi)))
                elif group == "weight read":
                    region = self.weight_spans.get(spec.name)
                    if region is None or not (region[0] <= span[0]
                                              and span[1] <= region[1]):
                        self._emit(
                            "mem.weight-read-oob", Severity.ERROR, where,
                            f"weight read [{span[0]}, {span[1]}] escapes "
                            f"the weight region of layer '{spec.name}'"
                            + (f" {list(region)}" if region else
                               " (layer has no weight region)"),
                            span=list(span),
                        )
                else:
                    write_spans.append(span)
                    if self._inside_any(span, self.feature_spans,
                                        spec.tops) is None:
                        self._emit(
                            "mem.write-oob", Severity.ERROR, where,
                            f"write [{span[0]}, {span[1]}] escapes the "
                            f"output regions of blobs {list(spec.tops)}",
                            span=list(span), blobs=list(spec.tops),
                        )

        in_place = bool(set(spec.bottoms) & set(spec.tops))
        if not in_place:
            for write in write_spans:
                for read in read_spans:
                    if _overlaps(write, read):
                        self._emit(
                            "mem.phase-alias", Severity.ERROR, where,
                            f"write span {list(write)} overlaps read span "
                            f"{list(read)} in the same fold of a "
                            "non-in-place layer",
                            write=list(write), read=list(read),
                        )

    # -- on-chip buffers --------------------------------------------------

    def _buffer_capacity(self, instance: str, element_bits: int) -> int | None:
        buffer = self.program.design.components.get(instance)
        if buffer is None:
            return None
        depth = getattr(buffer, "depth_words", None)
        word_bits = getattr(buffer, "word_bits", None)
        if depth is None or word_bits is None:
            return None
        return depth * word_bits // max(1, element_bits)

    def _check_buffers(self) -> None:
        design = self.program.design
        feature_capacity = self._buffer_capacity(
            design.feature_buffer, design.datapath.data_width)
        weight_capacity = self._buffer_capacity(
            design.weight_buffer, design.datapath.weight_width)
        for state in self.program.coordinator.states:
            phase = state.phase
            if phase.kind not in _BUFFERED_KINDS:
                continue  # streamed through the datapath, never staged
            where = state.event or f"{phase.layer}#{phase.phase_index}"
            staged = phase.input_words + phase.output_words
            if feature_capacity is not None and staged > feature_capacity:
                self._emit(
                    "mem.buffer-overflow", Severity.ERROR, where,
                    f"fold stages {phase.input_words}+{phase.output_words} "
                    f"feature words but the feature buffer holds "
                    f"{feature_capacity}",
                    words=staged, capacity=feature_capacity,
                    buffer=design.feature_buffer,
                )
            if weight_capacity is not None \
                    and phase.weight_words > weight_capacity:
                self._emit(
                    "mem.buffer-overflow", Severity.ERROR, where,
                    f"fold stages {phase.weight_words} weight words but "
                    f"the weight buffer holds {weight_capacity}",
                    words=phase.weight_words, capacity=weight_capacity,
                    buffer=design.weight_buffer,
                )

    def run(self) -> list[Finding]:
        self._check_regions()
        self._check_main_table()
        states = self.program.coordinator.states
        for state in states:
            self._check_state(state)
        self._check_buffers()
        if not self.findings:
            self.findings.append(Finding(
                rule="mem.proof", severity=Severity.INFO, where="memmap",
                message=(
                    f"{len(states)} fold plans proved "
                    f"in bounds over {len(self.feature_spans)} feature and "
                    f"{len(self.weight_spans)} weight regions"),
            ))
        return self.findings


def analyze_memory(program: ControlProgram) -> list[Finding]:
    """Run the memory-safety pass over one compiled program."""
    return _MemoryPass(program).run()

"""Static verifier tests: report model, rule registry, and one
deliberately-broken design per analysis pass.

Each pass must catch its own class of defect: a narrowed accumulator
(range), an out-of-bounds AGU pattern (memory), an empty FSM and one
tampered coordinator program per control rule (control) and a dangling
blob (lint).  The clean builds of the zoo networks are covered by
``tests/test_analysis_zoo.py``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import api
from repro.analysis import (
    ALL_PASSES,
    AnalysisReport,
    Finding,
    Interval,
    LintContext,
    RULES,
    Severity,
    analyze,
    analyze_lint,
    pattern_span,
    require_clean,
    rule,
    verify_artifacts,
)
from repro.analysis.ranges import (
    _mac_bound,
    _signed_row_sums,
    requantize_interval,
)
from repro.cli import main as cli_main
from repro.compiler.patterns import AccessPattern
from repro.errors import VerificationError
from repro.fixedpoint.ops import quantize_to_ints
from repro.fixedpoint.format import QFormat
from repro.frontend.graph import NetworkGraph
from repro.frontend.layers import LayerKind, LayerSpec
from repro.pipeline import BuildPipeline
from repro.zoo.models import benchmark_graph


def build_small():
    """A fresh, independently tamperable build of the smallest zoo net.

    Built on a private pipeline: these tests mutate the realized design
    in place, which must never reach the shared memoized stage cache.
    """
    return api.build(benchmark_graph("ann0"), pipeline=BuildPipeline())


def _replace_first_state(coordinator, **fields):
    coordinator.states[0] = coordinator.states[0]._replace(**fields)


#: One tamper of a fresh build per control rule: the rule, the severity
#: it must be reported at, and the edit of the coordinator program.
CONTROL_TAMPERS = [
    ("ctl.fold-unscheduled", Severity.ERROR,
     lambda coordinator: coordinator.states.pop()),
    ("ctl.orphan-state", Severity.ERROR,
     lambda coordinator: _replace_first_state(
         coordinator, phase=dataclasses.replace(
             coordinator.states[0].phase, phase_index=999))),
    ("ctl.fold-duplicate", Severity.ERROR,
     lambda coordinator: coordinator.states.append(
         coordinator.states[0])),
    ("ctl.event-collision", Severity.ERROR,
     lambda coordinator: coordinator.states.append(
         coordinator.states[0])),
    ("ctl.pattern-id", Severity.ERROR,
     lambda coordinator: _replace_first_state(
         coordinator, main=range(len(coordinator.main_table),
                                 len(coordinator.main_table) + 2))),
    ("ctl.pattern-unused", Severity.WARNING,
     lambda coordinator: coordinator.data_table.append(
         AccessPattern(start_address=0, x_length=1))),
    ("ctl.traffic-mismatch", Severity.ERROR,
     lambda coordinator: _replace_first_state(
         coordinator, read_words=coordinator.states[0].read_words + 1)),
    ("ctl.route-missing", Severity.ERROR,
     lambda coordinator: _replace_first_state(
         coordinator,
         route=coordinator.states[0].route + ("ghost_block",))),
]


# ---------------------------------------------------------------------------
# report model


class TestReportModel:
    def test_severity_ordering_and_labels(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.ERROR.label == "error"

    def test_findings_sorted_errors_first(self):
        report = AnalysisReport(design_name="x", passes_run=("lint",))
        report.extend("lint", [
            Finding("a.note", Severity.INFO, "n", "note"),
            Finding("a.err", Severity.ERROR, "e", "boom"),
            Finding("a.warn", Severity.WARNING, "w", "hmm"),
        ], frozenset())
        assert [f.rule for f in report.findings] == \
            ["a.err", "a.warn", "a.note"]
        assert not report.ok
        assert report.counts()["lint"] == \
            {"errors": 1, "warnings": 1, "info": 1}

    def test_suppression_counts_but_hides(self):
        report = AnalysisReport(design_name="x", passes_run=("lint",))
        report.extend("lint", [
            Finding("a.err", Severity.ERROR, "e", "boom"),
        ], frozenset({"a.err"}))
        assert report.ok
        assert report.findings == []
        assert report.suppressed == {"a.err": 1}

    def test_json_shape(self):
        report = AnalysisReport(design_name="net", passes_run=ALL_PASSES)
        payload = json.loads(report.json_text())
        assert payload["design"] == "net"
        assert payload["ok"] is True
        assert set(payload["counts"]) == set(ALL_PASSES)

    def test_interval_helpers(self):
        fmt = QFormat(7, 8)
        full = Interval.full(fmt)
        assert full.lo == fmt.min_int and full.hi == fmt.max_int
        narrowed, clips = requantize_interval(
            Interval(-(1 << 30), 1 << 30), QFormat(15, 16), fmt)
        assert clips
        assert narrowed == Interval(fmt.min_int, fmt.max_int)

    def test_pattern_span_closed_form(self):
        pattern = AccessPattern(start_address=100, x_length=4, stride=3,
                                y_length=2, offset=50)
        lo, hi = pattern_span(pattern)
        addresses = pattern.expand()
        assert (lo, hi) == (min(addresses), max(addresses))


# ---------------------------------------------------------------------------
# the orchestrator


class TestOrchestrator:
    def test_clean_build_passes_every_pass(self):
        report = verify_artifacts(build_small())
        assert report.ok
        assert report.passes_run == ALL_PASSES
        # Each pass leaves its proof note on a clean design.
        rules = {f.rule for f in report.infos}
        assert "ctl.proof" in rules
        assert "mem.proof" in rules
        assert any(r.startswith("range.accumulator-proof") for r in rules)

    def test_pass_subset_and_unknown_pass(self):
        artifacts = build_small()
        report = analyze(artifacts.program, passes=("lint",))
        assert report.passes_run == ("lint",)
        assert set(report.counts()) == {"lint"}
        with pytest.raises(VerificationError):
            analyze(artifacts.program, passes=("lint", "vibes"))

    def test_suppress_by_rule_id(self):
        artifacts = build_small()
        noisy = verify_artifacts(artifacts)
        target = noisy.warnings[0].rule if noisy.warnings else "range.lut-domain"
        quiet = verify_artifacts(artifacts, suppress=(target,))
        assert target not in {f.rule for f in quiet.findings}
        assert quiet.suppressed.get(target, 0) >= 1

    def test_require_clean_raises_with_locus(self):
        artifacts = build_small()
        artifacts.program.design.datapath = dataclasses.replace(
            artifacts.program.design.datapath, accumulator_width=8)
        report = verify_artifacts(artifacts)
        with pytest.raises(VerificationError, match="accumulator-overflow"):
            require_clean(report)

    def test_api_build_check_flag(self):
        artifacts = api.build(benchmark_graph("ann0"), check=True)
        assert artifacts.program is not None


# ---------------------------------------------------------------------------
# one deliberately-broken design per pass


class TestRangeBounds:
    def test_exact_bounds_exactly_when_the_program_has_an_image(self):
        pipe = BuildPipeline()
        graph = benchmark_graph("ann0")

        def bases(artifacts):
            report = verify_artifacts(artifacts, passes=("ranges",))
            return {finding.message.rsplit("(", 1)[1].rstrip(")")
                    for finding in report.by_rule("range.accumulator-proof")}

        weighted = api.build(graph, pipeline=pipe)
        weightless = api.build(graph, weights=None, pipeline=pipe)
        assert weighted.program.dram_image is not None
        assert bases(weighted) == {"actual quantized weights"}
        assert weightless.program.dram_image is None
        assert bases(weightless) == {"weight format bound"}

    def test_mac_bound_on_a_min_int_weight(self):
        """-min_int overflows a narrow dtype; the bound widens instead."""
        fmt = QFormat(3, 12)
        weight = np.empty((2, 2), dtype=fmt.storage_dtype)
        quantize_to_ints(np.array([[-9.0, 5 * fmt.scale],
                                   [3 * fmt.scale, -2 * fmt.scale]]),
                         fmt, out=weight)
        assert weight[0, 0] == fmt.min_int
        inputs = Interval(-100, 50)
        bound = _mac_bound(weight, 2, 0, None, 0, inputs, fmt)
        assert bound == _mac_bound(weight.astype(np.int64), 2, 0, None, 0,
                                   inputs, fmt)
        assert bound.single_term == 32768 * 100
        # Row 0: +5 and -32768; row 1: +3 and -2.
        assert bound.acc == Interval(5 * -100 - 32768 * 50,
                                     5 * 50 + 32768 * 100)
        assert bound.exact and bound.terms == 2


    def test_signed_row_sums_match_the_masked_formula(self):
        fmt = QFormat(3, 12)
        rng = np.random.default_rng(5)
        matrix = rng.integers(fmt.min_int, fmt.max_int + 1, (6, 9),
                              dtype=np.int64).astype(fmt.storage_dtype)
        matrix[0] = fmt.min_int            # every entry min_int
        matrix[1, ::2] = fmt.min_int       # min_int among mixed signs
        matrix[2] = 0                      # all-zero row
        matrix[3] = rng.integers(1, fmt.max_int + 1, 9)   # all positive
        matrix[4] = rng.integers(fmt.min_int, 0, 9)       # all negative
        matrix[4, 0] = fmt.min_int
        assert matrix.dtype == np.int16
        pos, neg = _signed_row_sums(matrix)
        wide = matrix.astype(np.int64)
        want_pos = np.sum(wide, axis=1, where=wide > 0)
        np.testing.assert_array_equal(pos, want_pos)
        np.testing.assert_array_equal(neg, np.sum(wide, axis=1) - want_pos)
        assert pos.dtype == neg.dtype == np.int64
        assert pos[0] == 0 and neg[0] == 9 * fmt.min_int
        assert pos[2] == neg[2] == 0
        assert neg[3] == 0 and pos[4] == 0


class TestBrokenDesigns:
    def test_range_narrowed_accumulator_overflows(self):
        artifacts = build_small()
        # An 8-bit accumulator cannot even hold one Q7.8 x Q3.12 product.
        artifacts.program.design.datapath = dataclasses.replace(
            artifacts.program.design.datapath, accumulator_width=8)
        report = verify_artifacts(artifacts)
        overflows = report.by_rule("range.accumulator-overflow")
        assert overflows and overflows[0].severity is Severity.ERROR
        assert not report.ok

    def test_range_wide_accumulator_still_proves(self):
        artifacts = build_small()
        artifacts.program.design.datapath = dataclasses.replace(
            artifacts.program.design.datapath, accumulator_width=60)
        report = verify_artifacts(artifacts)
        assert report.ok
        assert not report.by_rule("range.accumulator-saturation")

    def test_memory_out_of_bounds_pattern(self):
        artifacts = build_small()
        program = artifacts.program
        total = program.memory_map.total_elements
        state = next(s for s in program.coordinator.states
                     if s.weight_reads_at > s.main.start)
        # States hold index ranges: tamper through the table they index.
        table = program.coordinator.main_table
        table[state.main.start] = table[state.main.start].rebased(total + 7)
        report = verify_artifacts(artifacts)
        oob = report.by_rule("mem.dram-oob")
        assert oob and oob[0].severity is Severity.ERROR

    def test_memory_main_table_bounded_like_dynamic_replay(self):
        artifacts = build_small()
        program = artifacts.program
        table = program.coordinator.main_table
        total = program.memory_map.total_elements
        table[0] = table[0].rebased(total + 1)
        static = verify_artifacts(artifacts)
        assert not static.ok
        from repro.sim.program_check import verify_program
        assert not verify_program(program).ok

    def test_control_unreachable_state(self):
        # A state's index is its list position, so the one unreachable
        # FSM left to detect is an empty one.
        artifacts = build_small()
        states = artifacts.program.coordinator.states
        assert len(states) > 1
        states.clear()
        report = verify_artifacts(artifacts)
        order = report.by_rule("ctl.state-order")
        assert order and order[0].severity is Severity.ERROR

    def test_control_unflushed_partials(self):
        artifacts = build_small()
        states = artifacts.program.coordinator.states
        for index, state in enumerate(states):
            states[index] = state._replace(
                phase=dataclasses.replace(state.phase, partial=True))
        report = analyze(artifacts.program, passes=("control",))
        assert report.by_rule("ctl.partial-not-flushed")

    @pytest.mark.parametrize("rule, severity, tamper", CONTROL_TAMPERS,
                             ids=[rule for rule, _, _ in CONTROL_TAMPERS])
    def test_control_tampered_program(self, rule, severity, tamper):
        artifacts = build_small()
        tamper(artifacts.program.coordinator)
        report = analyze(artifacts.program, passes=("control",))
        found = report.by_rule(rule)
        assert found and all(f.severity is severity for f in found)

    def test_lint_dangling_blob(self):
        graph = NetworkGraph(name="broken", layers=[
            LayerSpec(name="data", kind=LayerKind.DATA, tops=("d",),
                      input_shape=(4,)),
            LayerSpec(name="fc", kind=LayerKind.INNER_PRODUCT,
                      bottoms=("ghost",), tops=("o",), num_output=2),
        ])
        findings = analyze_lint(LintContext(graph=graph))
        dangling = [f for f in findings if f.rule == "lint.dangling-blob"]
        assert dangling and dangling[0].severity is Severity.ERROR
        assert "ghost" in dangling[0].message

    def test_lint_dead_layer_found_and_inplace_chain_live(self):
        graph = NetworkGraph(name="deadwood", layers=[
            LayerSpec(name="data", kind=LayerKind.DATA, tops=("d",),
                      input_shape=(4,)),
            LayerSpec(name="fc", kind=LayerKind.INNER_PRODUCT,
                      bottoms=("d",), tops=("h",), num_output=4),
            # In-place activation re-produces "h"; fc must stay live.
            LayerSpec(name="act", kind=LayerKind.RELU,
                      bottoms=("h",), tops=("h",)),
            LayerSpec(name="out", kind=LayerKind.INNER_PRODUCT,
                      bottoms=("h",), tops=("o",), num_output=2),
            # No tops: never an output, never consumed — provably dead.
            LayerSpec(name="probe", kind=LayerKind.RELU, bottoms=("h",)),
        ])
        findings = analyze_lint(LintContext(graph=graph))
        dead = {f.where for f in findings if f.rule == "lint.dead-layer"}
        assert dead == {"probe"}

    def test_lint_format_missing_with_program(self):
        artifacts = build_small()
        blob = next(iter(artifacts.program.blob_formats))
        del artifacts.program.blob_formats[blob]
        report = analyze(artifacts.program, passes=("lint",))
        missing = report.by_rule("lint.format-missing")
        assert missing and blob in missing[0].message + missing[0].where


# ---------------------------------------------------------------------------
# rule registry extensibility


class TestRuleRegistry:
    def test_register_and_run_custom_rule(self):
        @rule("lint.test-custom")
        def custom(ctx: LintContext):
            yield Finding("lint.test-custom", Severity.WARNING,
                          ctx.graph.name, "custom rule ran")

        try:
            graph = benchmark_graph("ann0")
            findings = analyze_lint(LintContext(graph=graph))
            assert any(f.rule == "lint.test-custom" for f in findings)
        finally:
            del RULES["lint.test-custom"]

    def test_builtin_rules_registered(self):
        for rule_id in ("lint.dangling-blob", "lint.dead-layer",
                        "lint.shape-mismatch", "lint.format-missing"):
            assert rule_id in RULES


# ---------------------------------------------------------------------------
# CLI surface


class TestVerifyCLI:
    def test_verify_model_passes(self, capsys):
        assert cli_main(["verify", "--model", "ann0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_verify_json_output(self, capsys):
        assert cli_main(["verify", "--model", "ann0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert set(payload["counts"]) == set(ALL_PASSES)

    def test_verify_needs_a_network(self, capsys):
        assert cli_main(["verify"]) == 1
        assert "verify needs" in capsys.readouterr().err

    def test_verify_pass_subset_and_suppress(self, capsys):
        code = cli_main(["verify", "--model", "ann0",
                         "--passes", "lint,control",
                         "--suppress", "ctl.pattern-shared"])
        assert code == 0
        assert "passes: lint, control" in capsys.readouterr().out

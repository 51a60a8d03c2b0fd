"""Tests for the control-program verifier."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyze
from repro.compiler import DeepBurningCompiler
from repro.compiler.patterns import AccessPattern
from repro.devices import Z7020, Z7045, budget_fraction
from repro.errors import SimulationError
from repro.experiments.config import scheme_budget
from repro.frontend import load
from repro.nngen import NNGen
from repro.sim.agu_model import AGUHardwareModel
from repro.sim.program_check import (
    ProgramCheckReport,
    _replay_table,
    verify_program,
)
from repro.zoo import benchmark_graph

MLP_TEXT = """
name: "mlp"
layers { name: "data" type: DATA top: "data" param { dim: 16 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 32 } }
layers { name: "sig1" type: SIGMOID bottom: "ip1" top: "ip1" }
layers { name: "ip2" type: INNER_PRODUCT bottom: "ip1" top: "ip2" param { num_output: 8 } }
"""


@pytest.fixture(scope="module")
def mlp_program():
    design = NNGen().generate(load(MLP_TEXT, format="prototxt"),
                              budget_fraction(Z7020, 0.3))
    return DeepBurningCompiler().compile(design)


class TestVerifyProgram:
    def test_mlp_program_verifies(self, mlp_program):
        report = verify_program(mlp_program)
        assert report.ok, report.errors
        assert report.states_checked == len(mlp_program.coordinator.states)
        assert report.patterns_replayed > 0
        assert report.words_streamed > 0

    @pytest.mark.parametrize("name", ["mnist", "cifar", "hopfield", "cmac"])
    def test_benchmark_programs_verify(self, name):
        design = NNGen().generate(benchmark_graph(name), scheme_budget("DB"))
        program = DeepBurningCompiler().compile(design)
        report = verify_program(program)
        assert report.ok, (name, report.errors[:3])

    def test_tampered_main_table_detected(self, mlp_program):
        program = mlp_program
        original = program.coordinator.main_table[0]
        program.coordinator.main_table[0] = AccessPattern(
            start_address=program.memory_map.total_elements + 500,
            x_length=original.x_length,
            stride=original.stride,
            y_length=original.y_length,
            offset=original.offset,
            event=original.event,
        )
        try:
            report = verify_program(program)
            assert not report.ok
            assert any("DRAM map" in error for error in report.errors)
        finally:
            program.coordinator.main_table[0] = original

    def test_tampered_word_count_detected(self, mlp_program):
        program = mlp_program
        table = program.coordinator.main_table
        original = table[-1]
        table[-1] = AccessPattern(
            start_address=original.start_address,
            x_length=original.x_length + 1,
            stride=original.stride,
            y_length=original.y_length,
            offset=original.offset,
            event=original.event,
        )
        try:
            report = verify_program(program)
            assert not report.ok
            assert any("declares" in error for error in report.errors)
        finally:
            table[-1] = original

    def test_main_range_past_table_reported(self):
        # A main range past the table is an error line, as the static
        # pass's ``ctl.pattern-id`` is, never an IndexError.
        design = NNGen().generate(benchmark_graph("mnist"),
                                  budget_fraction(Z7045, 0.3))
        program = DeepBurningCompiler().compile(design)
        coordinator = program.coordinator
        rows = len(coordinator.main_table)
        coordinator.states[0] = coordinator.states[0]._replace(
            main=range(rows, rows + 2))
        findings = analyze(program, passes=("control",))
        assert findings.by_rule("ctl.pattern-id")
        report = verify_program(program)
        assert not report.ok
        assert f"state 0: pattern id {rows} outside its table" \
            in report.errors
        assert f"state 0: pattern id {rows + 1} outside its table" \
            in report.errors

    def test_raise_on_error(self, mlp_program):
        program = mlp_program
        table = program.coordinator.main_table
        original = table[0]
        table[0] = AccessPattern(
            start_address=program.memory_map.total_elements + 1,
            x_length=original.x_length,
        )
        try:
            report = verify_program(program)
            assert not report.ok
            with pytest.raises(SimulationError):
                report.raise_on_error()
        finally:
            table[0] = original

    def test_clean_report_raises_nothing(self, mlp_program):
        verify_program(mlp_program).raise_on_error()


class TestReplayOncePerShape:
    """The check clocks one row per pattern shape; it rests on the AGU
    model being translation-invariant in the start address."""

    @given(
        start=st.integers(0, 10_000),
        x_length=st.integers(1, 20),
        stride=st.integers(-8, 8),
        y_length=st.integers(1, 10),
        offset=st.integers(-300, 300),
    )
    @settings(max_examples=200)
    def test_stream_from_start_is_stream_from_zero_shifted(
            self, start, x_length, stride, y_length, offset):
        at_zero = AccessPattern(start_address=0, x_length=x_length,
                                stride=stride, y_length=y_length,
                                offset=offset)
        model = AGUHardwareModel([at_zero, at_zero.rebased(start)])
        from_zero = model.run_pattern(0)
        assert model.run_pattern(1) == [address + start
                                        for address in from_zero]

    def test_words_streamed_counts_every_row(self):
        design = NNGen().generate(benchmark_graph("mnist"),
                                  scheme_budget("DB"))
        program = DeepBurningCompiler().compile(design)
        coordinator = program.coordinator
        tables = (coordinator.main_table, coordinator.data_table,
                  coordinator.weight_table)
        report = verify_program(program)
        assert report.ok, report.errors
        assert report.patterns_replayed == sum(len(t) for t in tables)
        assert report.words_streamed == sum(
            p.footprint for table in tables for p in table)

    def test_duplicate_shape_moved_past_dram_detected(self):
        design = NNGen().generate(benchmark_graph("mnist"),
                                  scheme_budget("DB"))
        program = DeepBurningCompiler().compile(design)
        table = program.coordinator.main_table
        top = program.memory_map.total_elements
        first_of_shape = {}
        for index, pattern in enumerate(table):
            first = first_of_shape.setdefault(pattern.shape, index)
            if first != index:
                break
        else:
            pytest.fail("mnist's main table has no repeated shape")
        # Row ``index`` is not clocked: the row ``first`` of its shape
        # is.  Move it so only its last rows cross the DRAM top.
        reach = max(table[first].expand()) - table[first].start_address
        table[index] = table[index].rebased(top - reach)
        report = verify_program(program)
        assert not report.ok
        assert report.errors == [
            f"main pattern {index}: address {top} outside the "
            f"{top}-element DRAM map"]

    def test_duplicate_shape_bounded_on_both_sides(self):
        # Only the first row is clocked; the others are bounded by their
        # start plus the replay's lowest and highest offset (-30, 0).
        first = AccessPattern(start_address=500, x_length=4, stride=-10)
        table = [first, first.rebased(20), first.rebased(100),
                 first.rebased(1000)]
        report = ProgramCheckReport()
        _replay_table(table, "main", report, dram_top=1000)
        assert report.errors == [
            "main pattern 1: address -10 outside the 1000-element DRAM map",
            "main pattern 3: address 1000 outside the 1000-element DRAM "
            "map",
        ]
        assert report.patterns_replayed == 4
        assert report.words_streamed == 16

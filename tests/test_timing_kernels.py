"""Property tests for the columnar timing kernels: the pipeline
recurrence, the DRAM port's burst cost and the empty-schedule guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.devices import DEVICES, Z7045, budget_fraction
from repro.errors import SimulationError
from repro.frontend import load
from repro.nngen import NNGen
from repro.pipeline import BuildPipeline
from repro.sim.accel import (
    FoldColumns,
    pipeline_ends,
    pipeline_timing,
    program_columns,
    program_timing,
)
from repro.sim.memory import DRAMModel
from repro.zoo.models import benchmark_graph

counts = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=200, deadline=None)
@given(folds=st.lists(st.tuples(counts, counts), min_size=1, max_size=50),
       overhead=counts)
def test_recurrence_matches_the_two_term_loop(folds, overhead):
    load_cycles = [load for load, _ in folds]
    compute_cycles = [compute for _, compute in folds]
    expected = []
    load_finish, compute_finish = overhead, 0
    for load, compute in folds:
        load_finish += load
        start = max(load_finish, compute_finish)
        compute_finish = start + compute
        expected.append(compute_finish)
    ends = pipeline_ends(np.array(load_cycles, dtype=np.int64),
                         np.array(compute_cycles, dtype=np.int64), overhead)
    assert ends.tolist() == expected


@pytest.mark.parametrize("name", sorted(DEVICES))
@settings(max_examples=100, deadline=None)
@given(transfers=st.lists(st.tuples(st.integers(0, 10**10),
                                    st.integers(0, 10**4)),
                          min_size=1, max_size=20))
def test_burst_cycles_match_scalar_arithmetic(name, transfers):
    model = DRAMModel.for_device(DEVICES[name])
    transfers = [(0, 0), (0, 5), (7, 0)] + transfers
    expected = [
        0 if n_bytes == 0 else
        int(model.latency_cycles * max(1, bursts)
            + -(-n_bytes // model.bytes_per_cycle))
        for n_bytes, bursts in transfers]
    n_bytes, bursts = np.array(transfers, dtype=np.int64).T
    assert model.burst_cycles(n_bytes, bursts).tolist() == expected


def test_burst_cycles_reject_negative_bursts():
    model = DRAMModel.for_device(Z7045)
    with pytest.raises(SimulationError):
        model.burst_cycles(np.array([8, 8]), np.array([1, -1]))


def test_empty_schedule_raises():
    graph = load("""
name: "net"
layers { name: "data" type: DATA top: "data" param { dim: 8 } }
layers { name: "ip1" type: INNER_PRODUCT bottom: "data" top: "ip1" param { num_output: 4 } }
""", format="prototxt")
    design = NNGen().generate(graph, budget_fraction(Z7045, 0.3))
    with pytest.raises(SimulationError, match="fold schedule has no phases"):
        pipeline_timing(design, FoldColumns.of([], []))


def test_columns_shared_by_designs_of_one_program_and_read_only():
    """Two SIMD widths of one fold schedule share a compiled program,
    so they share its columns; neither the columns nor a timing's
    traces can be written through."""
    pipe = BuildPipeline()
    graph = benchmark_graph("mnist")
    base = api.build(graph, fraction=0.3, weights=None, pipeline=pipe)
    narrow = api.build(graph, fraction=0.3, max_simd=8, weights=None,
                       pipeline=pipe)
    assert narrow.design.datapath.simd != base.design.datapath.simd
    assert narrow.program.coordinator is base.program.coordinator
    columns = program_columns(base.program)
    assert program_columns(narrow.program) is columns
    _, traces, _ = program_timing(narrow.program)
    for array in (columns.macs, columns.dram_words, traces.start,
                  traces.load):
        with pytest.raises(ValueError):
            array[0] = 0

"""Zoo-wide verification: static verdicts cross-validated against the
dynamic program-check replay.

The acceptance bar for the static verifier: every zoo network builds to
zero error-severity findings at the default formats, and the static
verdict never contradicts :func:`repro.sim.program_check.verify_program`
— a design the static pass calls safe must replay cleanly, and a replay
failure must be caught statically.
"""

from repro import api
from repro.analysis import verify_artifacts
from repro.pipeline import BuildPipeline
from repro.sim.program_check import verify_program
from repro.zoo.models import BENCHMARKS, benchmark_graph


def test_static_and_dynamic_agree_on_every_zoo_net():
    verdicts = {}
    for name in sorted(BENCHMARKS):
        artifacts = api.build(benchmark_graph(name))
        static = verify_artifacts(artifacts)
        dynamic = verify_program(artifacts.program)
        # Acceptance: zero error-severity findings at default formats.
        assert static.ok, (
            f"{name}: static verifier found errors: "
            f"{[f.render() for f in static.errors]}")
        # Cross-validation: static "safe" must never contradict a
        # dynamic replay failure.
        assert dynamic.ok, f"{name}: dynamic replay failed: {dynamic.errors}"
        assert static.ok == dynamic.ok
        verdicts[name] = static.counts()
    assert len(verdicts) == len(BENCHMARKS)
    # Every pass ran on every network.
    for counts in verdicts.values():
        assert set(counts) == {"lint", "ranges", "memory", "control"}


def test_dynamic_failure_is_caught_statically():
    """The reverse direction: a program the replay rejects must not be
    called safe by the static pass."""
    # Private pipeline: this test corrupts the coordinator table in
    # place, which must never reach the shared memoized stage cache.
    artifacts = api.build(benchmark_graph("ann0"),
                          pipeline=BuildPipeline())
    program = artifacts.program
    table = program.coordinator.main_table
    total = program.memory_map.total_elements
    table[0] = table[0].rebased(total + 3)
    assert not verify_program(program).ok
    assert not verify_artifacts(artifacts).ok

"""Shared test configuration.

Hypothesis deadlines are disabled globally: several property tests drive
whole generate/compile pipelines whose first call warms caches, and
per-example deadlines would flake on slow machines.  The session-wide
``zoo_programs`` fixture compiles every zoo net once for the compile
tests that check all of them.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def zoo_programs():
    """Weightless control programs of every zoo net on the Z-7045 at
    budget fractions 0.05 (starved), 0.3 (the default) and 1.0, keyed
    ``(name, fraction)``; read-only."""
    from repro.compiler import DeepBurningCompiler
    from repro.devices import Z7045, budget_fraction
    from repro.nngen import NNGen
    from repro.zoo import BENCHMARKS, benchmark_graph

    return {
        (name, fraction): DeepBurningCompiler().compile(NNGen().generate(
            benchmark_graph(name), budget_fraction(Z7045, fraction)))
        for name in sorted(BENCHMARKS) for fraction in (0.05, 0.3, 1.0)
    }

"""Closed-form latency/energy estimation of generated accelerators.

The simulator's timing is one double-buffered load/compute pipeline:
with one main AGU, load *i* starts when load *i-1* finished, and the
shared datapath computes fold *i* as soon as its operands are on chip
and the previous fold retired.  :class:`~repro.estimate.model.
AnalyticEstimator` hands the same recurrence
(:func:`~repro.sim.accel.pipeline_timing`) the fold schedule's
columns (:class:`~repro.sim.accel.FoldColumns`), with traffic columns
it derives fold by fold from the realized design — fold schedule and
AGU access-pattern arithmetic — without reading a control program or
weights.  That makes it a second, independent source of the
simulator's traffic, which must match the compiled program's fold for
fold; it costs about as much as the simulator's timing pass.  The
design-space explorer does not use it: every sweep mode reports the
timing of the compiled program (:func:`~repro.sim.accel.program_timing`).

:func:`~repro.estimate.validate.cross_validate` checks the model against
the simulator across the zoo, mirroring the static-vs-dynamic verifier
cross-validation.
"""

from repro.estimate.model import AnalyticEstimator
from repro.estimate.validate import (
    NetValidation,
    ValidationReport,
    cross_validate,
    validate_network,
)

__all__ = [
    "AnalyticEstimator",
    "NetValidation",
    "ValidationReport",
    "cross_validate",
    "validate_network",
]

"""Per-fold datapath timing, over a fold schedule's columns.

Compute beats of each fold on the shared data-driven datapath: the
functional blocks on the fold's route each contribute their beat count;
MAC-dominated folds are bounded by the synergy-neuron array, streaming
folds by the slowest block they traverse, plus a pipeline fill/drain of
a few cycles per block.  Each layer kind's rule is one masked
expression over the folds of that kind
(:class:`~repro.sim.accel.FoldColumns`), built on the blocks'
elementwise ``beats_for``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SimulationError
from repro.frontend.layers import LayerKind
from repro.nngen.design import AcceleratorDesign

if TYPE_CHECKING:
    from repro.sim.accel import FoldColumns

#: Pipeline registers each routed block adds (fill + drain).
PIPELINE_FILL_PER_BLOCK = 3

#: The integer code of each layer kind in a fold column: its index here.
_KINDS = tuple(LayerKind)
KIND_CODES: dict[LayerKind, int] = {
    kind: code for code, kind in enumerate(_KINDS)}

_MAC_KINDS = (LayerKind.CONVOLUTION, LayerKind.DEPTHWISE_CONVOLUTION,
              LayerKind.INNER_PRODUCT, LayerKind.RECURRENT,
              LayerKind.ASSOCIATIVE, LayerKind.INCEPTION)


def _mac_beats(components, kind, folds):
    neurons = components.get("neurons")
    if neurons is None:
        raise SimulationError("design has no synergy-neuron array")
    out = folds.out_count
    beats = neurons.beats_for(folds.macs_per_output, out)
    # Activation of the produced outputs rides the same pipeline for
    # ReLU; LUT-backed activations serialise through the shared table.
    activation = components.get("activation")
    if activation is not None and activation.needs_lut:
        beats = beats + (folds.partial == 0) \
            * activation.beats_for(out, "sigmoid")
    return beats + 2 * PIPELINE_FILL_PER_BLOCK


def _pooling_beats(components, kind, folds):
    pool = components.get("pooling")
    if pool is None:
        raise SimulationError("design has no pooling unit")
    kernel = np.maximum(1, np.rint(
        np.sqrt(folds.macs_per_output)).astype(np.int64))
    return pool.beats_for(folds.out_count, kernel) + PIPELINE_FILL_PER_BLOCK


def _lrn_beats(components, kind, folds):
    lrn = components.get("lrn")
    if lrn is None:
        raise SimulationError("design has no LRN unit")
    return lrn.beats_for(folds.out_count) + PIPELINE_FILL_PER_BLOCK


def _dropout_beats(components, kind, folds):
    dropout = components.get("dropout")
    if dropout is None:
        return folds.out_count
    return dropout.beats_for(folds.out_count) + PIPELINE_FILL_PER_BLOCK


def _activation_beats(components, kind, folds):
    activation = components.get("activation")
    if activation is None:
        raise SimulationError("design has no activation unit")
    function = {"RELU": "relu", "SIGMOID": "sigmoid",
                "TANH": "tanh"}[kind.value]
    return (activation.beats_for(folds.out_count, function)
            + PIPELINE_FILL_PER_BLOCK)


def _classifier_beats(components, kind, folds):
    classifier = components.get("classifier")
    out = folds.out_count
    if classifier is None:
        return out + PIPELINE_FILL_PER_BLOCK
    in_count = folds.in_count
    return classifier.beats_for(np.where(in_count != 0, in_count, out)) \
        + PIPELINE_FILL_PER_BLOCK


def _concat_beats(components, kind, folds):
    return folds.out_count + PIPELINE_FILL_PER_BLOCK


def _eltwise_beats(components, kind, folds):
    # One accumulator pass per input branch, one beat per element.
    branches = np.maximum(1, folds.macs_per_output)
    return folds.out_count * branches + PIPELINE_FILL_PER_BLOCK


#: The datapath timing rule of each layer kind:
#: ``rule(components, kind, folds)`` gives the beats every fold of
#: ``folds`` would take were it of that kind.
_RULES = {
    **{kind: _mac_beats for kind in _MAC_KINDS},
    LayerKind.POOLING: _pooling_beats,
    LayerKind.LRN: _lrn_beats,
    LayerKind.DROPOUT: _dropout_beats,
    LayerKind.RELU: _activation_beats,
    LayerKind.SIGMOID: _activation_beats,
    LayerKind.TANH: _activation_beats,
    LayerKind.SOFTMAX: _classifier_beats,
    LayerKind.CLASSIFIER: _classifier_beats,
    LayerKind.CONCAT: _concat_beats,
    LayerKind.ELTWISE: _eltwise_beats,
}


def compute_beats(design: AcceleratorDesign,
                  folds: FoldColumns) -> np.ndarray:
    """Clock cycles the datapath spends computing each fold."""
    beats = np.zeros(len(folds), dtype=np.int64)
    for code in np.flatnonzero(np.bincount(folds.kind)).tolist():
        kind = _KINDS[code]
        rule = _RULES.get(kind)
        if rule is None:
            raise SimulationError(f"no datapath timing rule for {kind}")
        np.copyto(beats, rule(design.components, kind, folds),
                  where=folds.kind == code)
    return beats


def buffer_stream_beats(design: AcceleratorDesign,
                        folds: FoldColumns) -> np.ndarray:
    """Cycles the data/weight AGUs need to stream each fold's operands.

    The feature port delivers ``simd`` words per beat and the weight port
    ``lanes * simd`` words per beat (Method-1 alignment), so on a MAC
    fold operand streaming never outruns compute — but on streaming folds
    it can dominate.
    """
    simd = design.datapath.simd
    lanes = design.datapath.lanes
    feature_beats = -(-folds.input_words // simd)
    weight_beats = -(-folds.weight_words // (lanes * simd))
    return np.maximum(feature_beats, weight_beats)

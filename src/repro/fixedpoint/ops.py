"""Quantization and exact fixed-point arithmetic on numpy arrays.

All functions operate on raw integer arrays (``numpy.int64``) paired with
a :class:`~repro.fixedpoint.format.QFormat`, which is how the simulator
carries accelerator data, or on float arrays when converting in and out
of the fixed-point domain.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import QuantizationError
from repro.fixedpoint.format import QFormat

#: Elements per block when a whole weight matrix is processed a block of
#: rows at a time (AlexNet's fc6 holds 37.7 M weights).
ROW_BLOCK_ELEMENTS = 1 << 18


def row_blocks(matrix: np.ndarray) -> Iterator[slice]:
    """Slices over the rows of ``matrix``, each block about
    :data:`ROW_BLOCK_ELEMENTS` large, so work over a block bounds its
    temporaries whatever the matrix size."""
    step = max(1, ROW_BLOCK_ELEMENTS // max(1, matrix[:1].size))
    for start in range(0, len(matrix), step):
        yield slice(start, start + step)


def quantize_to_ints(values: np.ndarray, fmt: QFormat,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Quantize float ``values`` to raw integers in ``fmt``.

    Rounds to nearest (ties to even, numpy's default) and saturates to the
    representable range, which is what the accelerator's input stage does.
    ``out`` receives the result in place (an integer array of the same
    shape and wide enough for ``fmt``, e.g. an arena buffer or a region
    of the DRAM image) instead of a fresh allocation.
    """
    values = np.asarray(values, dtype=np.float64)
    scaled = np.rint(values / fmt.scale)
    np.clip(scaled, fmt.min_int, fmt.max_int, out=scaled)
    if out is not None:
        # ``scaled`` holds exact integer-valued floats after rint/clip,
        # so the truncating cast below equals ``astype(np.int64)``.
        np.copyto(out, scaled, casting="unsafe")
        return out
    return scaled.astype(np.int64)


def quantize(values: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Quantize float ``values`` through ``fmt`` and return floats.

    Equivalent to a round trip ``dequantize(quantize_to_ints(v))`` — the
    value the hardware would actually compute with.
    """
    return dequantize(quantize_to_ints(values, fmt), fmt)


def dequantize(raw: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Convert raw integers in ``fmt`` back to real values."""
    return np.asarray(raw, dtype=np.float64) * fmt.scale


def accumulator_format(data_fmt: QFormat, weight_fmt: QFormat) -> QFormat:
    """The wide accumulator format for ``data x weight`` dot products.

    Full product precision in the fraction field, integer bits capped so
    the register stays inside the 64-bit host word with headroom for the
    summation (the synergy-neuron accumulator is at most 40 integer
    bits).
    """
    fraction = data_fmt.fraction_bits + weight_fmt.fraction_bits
    return QFormat(min(40, 62 - fraction), fraction)


#: Largest integer float64 represents exactly (53-bit mantissa).
_FLOAT_EXACT_LIMIT = float(2 ** 53)


def float_gemm_exact(reduce_dim: int, in_fmt: QFormat,
                     weight_fmt: QFormat) -> bool:
    """Whether a float64 BLAS GEMM reproduces the int64 matmul exactly.

    Every product of a data word and a weight word is an integer of at
    most ``in_bits + weight_bits`` magnitude, and any partial sum over
    the reduction axis is bounded by ``K * max|d| * max|w|``.  When that
    bound stays under 2^53 every intermediate value is an integer float64
    represents exactly, so dgemm returns the same integers as the int64
    kernel **regardless of its blocking or summation order** — and runs
    an order of magnitude faster, since numpy's integer matmul cannot
    use BLAS.  The execution plan packs its weights and the per-sample
    executor builds its GEMM operands by this one predicate.
    """
    bound = float(reduce_dim) * float(in_fmt.max_int + 1) \
        * float(weight_fmt.max_int + 1)
    return bound < _FLOAT_EXACT_LIMIT


def requantize(raw: np.ndarray, src: QFormat, dst: QFormat,
               out: np.ndarray | None = None) -> np.ndarray:
    """Convert raw integers from format ``src`` to format ``dst``.

    Implements the shift-round-saturate stage between the wide
    accumulator and the narrow inter-layer connection box.  ``out``
    receives the result in place (an ``int64`` array of the same shape —
    aliasing ``raw`` is fine) instead of a fresh allocation.
    """
    raw = np.asarray(raw, dtype=np.int64)
    shift = src.fraction_bits - dst.fraction_bits
    if out is not None:
        # Temp-free path: stage the shifted value in ``out`` itself
        # (identical arithmetic to the allocating path below).
        if shift > 0:
            rounding = np.int64(1) << np.int64(shift - 1)
            np.add(raw, rounding, out=out)
            np.right_shift(out, np.int64(shift), out=out)
        elif shift < 0:
            np.left_shift(raw, np.int64(-shift), out=out)
        elif out is not raw:
            np.copyto(out, raw)
        np.clip(out, dst.min_int, dst.max_int, out=out)
        return out
    if shift > 0:
        # Round-half-up on the bits that are dropped, as the shifting
        # latch in the connection box does.
        rounding = np.int64(1) << np.int64(shift - 1)
        shifted = (raw + rounding) >> np.int64(shift)
    elif shift < 0:
        shifted = raw << np.int64(-shift)
    else:
        shifted = raw
    return np.clip(shifted, dst.min_int, dst.max_int).astype(np.int64)


def fixed_mul(
    a_raw: np.ndarray,
    a_fmt: QFormat,
    b_raw: np.ndarray,
    b_fmt: QFormat,
) -> tuple[np.ndarray, QFormat]:
    """Multiply two raw fixed-point arrays exactly.

    Returns the full-precision product and its format, as produced by the
    DSP multipliers before any narrowing.
    """
    out_fmt = QFormat(
        a_fmt.integer_bits + b_fmt.integer_bits + 1,
        a_fmt.fraction_bits + b_fmt.fraction_bits,
    )
    product = np.asarray(a_raw, dtype=np.int64) * np.asarray(b_raw, dtype=np.int64)
    return product, out_fmt


def fixed_add(
    a_raw: np.ndarray,
    b_raw: np.ndarray,
    fmt: QFormat,
    saturate: bool = True,
) -> np.ndarray:
    """Add raw values in a shared format, saturating on overflow."""
    total = np.asarray(a_raw, dtype=np.int64) + np.asarray(b_raw, dtype=np.int64)
    if saturate:
        total = np.clip(total, fmt.min_int, fmt.max_int)
    return total.astype(np.int64)


def fixed_dot(
    data_raw: np.ndarray,
    data_fmt: QFormat,
    weight_raw: np.ndarray,
    weight_fmt: QFormat,
    out_fmt: QFormat,
) -> np.ndarray:
    """Fixed-point matrix product ``data @ weight`` with a wide accumulator.

    ``data_raw`` is ``(batch, in)``, ``weight_raw`` is ``(in, out)``; the
    accumulation happens at full product precision (the synergy-neuron
    accumulator register is sized by :meth:`QFormat.accumulator_for`) and
    the result is requantized to ``out_fmt``.
    """
    acc_fmt = accumulator_format(data_fmt, weight_fmt)
    acc = np.asarray(data_raw, dtype=np.int64) @ np.asarray(weight_raw, dtype=np.int64)
    return requantize(acc, acc_fmt, out_fmt)


def fixed_point_error(values: np.ndarray, fmt: QFormat) -> float:
    """Max absolute error introduced by quantizing ``values`` to ``fmt``."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values - quantize(values, fmt))))


def check_exact(value: float, fmt: QFormat) -> None:
    """Raise unless ``value`` is exactly representable in ``fmt``."""
    raw = value / fmt.scale
    if raw != int(raw) or not fmt.min_int <= int(raw) <= fmt.max_int:
        raise QuantizationError(f"{value} is not exactly representable in {fmt}")

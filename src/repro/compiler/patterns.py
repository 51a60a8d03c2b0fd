"""AGU access patterns and the stream analyzer.

"The memory address flow is generated deterministically by the
DeepBurning compiler and automatically generalized into multiple access
patterns by a built-in analyzer" (paper §3.1).  An
:class:`AccessPattern` is the affine FSM of Fig. 6: a two-level nested
sweep described by ``start_address``, ``x_length``/``stride`` (inner
loop) and ``y_length``/``offset`` (outer loop); ``footprint`` is the
total word count.  :func:`infer_pattern` is the analyzer: it compresses
a raw address stream back into that form, and the pair satisfies
``expand(infer(stream)) == stream``.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from repro.errors import PatternError


class _PatternFields(NamedTuple):
    start_address: int
    x_length: int
    stride: int = 1
    y_length: int = 1
    offset: int = 0
    #: Which pre-defined event triggers this pattern (e.g. "layer0-fold0").
    event: str = ""


class AccessPattern(_PatternFields):
    """One compiled AGU pattern (paper Fig. 6 template, reduced).

    An immutable record backed by a tuple: a compiled program holds one
    per coordinator-table row, so it carries no per-instance ``__dict__``.
    Every way of making one validates it, ``_make`` and ``_replace``
    included.
    """

    __slots__ = ()

    def __new__(cls, start_address: int, x_length: int, stride: int = 1,
                y_length: int = 1, offset: int = 0,
                event: str = "") -> "AccessPattern":
        if x_length < 1 or y_length < 1:
            raise PatternError(
                f"pattern lengths must be positive, got x={x_length} "
                f"y={y_length}"
            )
        if start_address < 0:
            raise PatternError("pattern start address cannot be negative")
        return tuple.__new__(cls, (start_address, x_length, stride,
                                   y_length, offset, event))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "AccessPattern":
        return cls(*iterable)

    @property
    def footprint(self) -> int:
        """Total number of addresses the pattern emits."""
        return self.x_length * self.y_length

    def addresses(self) -> Iterator[int]:
        """Emit the address stream the hardware AGU would generate."""
        for row in range(self.y_length):
            base = self.start_address + row * self.offset
            for col in range(self.x_length):
                yield base + col * self.stride

    def expand(self) -> list[int]:
        return list(self.addresses())

    def max_address(self) -> int:
        """Largest address touched (for buffer bound checks)."""
        last = self.start_address
        if self.x_length > 1:
            last = max(last, self.start_address + (self.x_length - 1) * self.stride)
        if self.y_length > 1:
            tail = self.start_address + (self.y_length - 1) * self.offset
            last = max(last, tail,
                       tail + (self.x_length - 1) * self.stride)
        return last

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """The sweep without its start: ``(x_length, stride, y_length,
        offset)``.  Folds of one layer share a shape; the AGU reduction
        and the program check key on it."""
        return self[1:5]  # the four fields after start_address

    def fields_used(self) -> tuple[str, ...]:
        """Template fields this pattern actually exercises.

        The hardware generator reduces the template AGU to these fields.
        They depend on the :attr:`shape` alone.
        """
        x_length, stride, y_length, _ = self.shape
        fields = ["start_address", "footprint", "x_length"]
        if x_length > 1 and stride != 1:
            fields.append("stride")
        if y_length > 1:
            fields.append("y_length")
            fields.append("offset")
        return tuple(fields)

    def rebased(self, new_start: int, event: str = "") -> "AccessPattern":
        """The same sweep from a different start address.

        Folds of one layer share a pattern shape; only the start (and the
        triggering event) changes between folds.
        """
        return AccessPattern(
            start_address=new_start,
            x_length=self.x_length,
            stride=self.stride,
            y_length=self.y_length,
            offset=self.offset,
            event=event or self.event,
        )

    def same_shape(self, other: "AccessPattern") -> bool:
        return self.shape == other.shape


def _runs_of_constant_stride(stream: Sequence[int]) -> tuple[int, int]:
    """Length and stride of the maximal affine prefix of ``stream``."""
    if len(stream) == 1:
        return 1, 1
    stride = stream[1] - stream[0]
    length = 2
    while length < len(stream) and stream[length] - stream[length - 1] == stride:
        length += 1
    return length, stride


def infer_pattern(stream: Sequence[int]) -> AccessPattern:
    """Compress an address stream into one two-level affine pattern.

    Raises :class:`PatternError` when the stream is not representable —
    the caller then falls back to splitting it (:func:`infer_patterns`).
    """
    stream = list(stream)
    if not stream:
        raise PatternError("cannot infer a pattern from an empty stream")
    if any(a < 0 for a in stream):
        raise PatternError("address stream contains negative addresses")

    run, stride = _runs_of_constant_stride(stream)
    if run == len(stream):
        # Pure 1-D sweep.
        return AccessPattern(start_address=stream[0], x_length=run,
                             stride=stride if run > 1 else 1)

    # Try a 2-D sweep with inner length = run (or a divisor that tiles
    # the stream evenly).
    for x_length in range(run, 0, -1):
        if len(stream) % x_length:
            continue
        y_length = len(stream) // x_length
        if y_length == 1:
            continue
        candidate = _try_grid(stream, x_length, y_length)
        if candidate is not None:
            return candidate
    raise PatternError(
        f"stream of {len(stream)} addresses is not a two-level affine sweep"
    )


def _try_grid(stream: list[int], x_length: int, y_length: int) -> AccessPattern | None:
    start = stream[0]
    stride = stream[1] - stream[0] if x_length > 1 else 1
    offset = stream[x_length] - stream[0]
    for row in range(y_length):
        base = start + row * offset
        for col in range(x_length):
            if stream[row * x_length + col] != base + col * stride:
                return None
    return AccessPattern(start_address=start, x_length=x_length,
                         stride=stride, y_length=y_length, offset=offset)


def infer_patterns(stream: Sequence[int], max_patterns: int = 64) -> list[AccessPattern]:
    """Split a stream into a minimal-ish sequence of affine patterns.

    Greedy: repeatedly take the longest prefix that a single pattern can
    represent.  Always succeeds (a single address is a pattern), but the
    compiler rejects streams that explode past ``max_patterns`` — that
    indicates a layout bug rather than a legitimately irregular sweep.
    """
    stream = list(stream)
    if not stream:
        raise PatternError("cannot infer patterns from an empty stream")
    patterns: list[AccessPattern] = []
    position = 0
    while position < len(stream):
        if len(patterns) >= max_patterns:
            raise PatternError(
                f"stream needs more than {max_patterns} patterns; the "
                "layout is not AGU-friendly"
            )
        patterns.append(_longest_prefix_pattern(stream[position:]))
        position += patterns[-1].footprint
    return patterns


def _longest_prefix_pattern(stream: list[int]) -> AccessPattern:
    run, stride = _runs_of_constant_stride(stream)
    best = AccessPattern(start_address=stream[0], x_length=run,
                         stride=stride if run > 1 else 1)
    if best.footprint == len(stream):
        return best  # one 1-D sweep covers everything
    # Extend to a 2-D grid: rows of x_length = run (or divisors) as long
    # as the row offset stays constant.
    for x_length in (run, *range(run - 1, 0, -1)):
        rows = 1
        if x_length >= len(stream):
            continue
        offset = stream[x_length] - stream[0]
        while True:
            next_row = (rows + 1) * x_length
            if next_row > len(stream):
                break
            ok = True
            base = stream[0] + rows * offset
            inner_stride = stride if x_length > 1 else 1
            for col in range(x_length):
                if stream[rows * x_length + col] != base + col * inner_stride:
                    ok = False
                    break
            if not ok:
                break
            rows += 1
        if rows > 1 and rows * x_length > best.footprint:
            best = AccessPattern(
                start_address=stream[0], x_length=x_length,
                stride=stride if x_length > 1 else 1,
                y_length=rows, offset=offset,
            )
            if best.footprint == len(stream):
                break  # the whole stream is one pattern; stop searching
    return best


def expand_patterns(patterns: Sequence[AccessPattern]) -> list[int]:
    """Concatenate the address streams of several patterns."""
    out: list[int] = []
    for pattern in patterns:
        out.extend(pattern.addresses())
    return out

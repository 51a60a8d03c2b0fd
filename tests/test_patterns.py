"""Tests for AGU access patterns and the stream analyzer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.patterns import (
    AccessPattern,
    expand_patterns,
    infer_pattern,
    infer_patterns,
)
from repro.errors import PatternError


class TestAccessPattern:
    def test_1d_expansion(self):
        pattern = AccessPattern(start_address=10, x_length=4, stride=2)
        assert pattern.expand() == [10, 12, 14, 16]

    def test_2d_expansion(self):
        pattern = AccessPattern(start_address=0, x_length=3, stride=1,
                                y_length=2, offset=10)
        assert pattern.expand() == [0, 1, 2, 10, 11, 12]

    def test_footprint(self):
        pattern = AccessPattern(start_address=0, x_length=3, y_length=4)
        assert pattern.footprint == 12

    def test_max_address(self):
        pattern = AccessPattern(start_address=5, x_length=3, stride=2,
                                y_length=2, offset=100)
        assert pattern.max_address() == 109

    def test_rejects_empty(self):
        with pytest.raises(PatternError):
            AccessPattern(start_address=0, x_length=0)

    def test_rejects_negative_start(self):
        with pytest.raises(PatternError):
            AccessPattern(start_address=-1, x_length=1)

    def test_rebased_keeps_shape(self):
        pattern = AccessPattern(start_address=0, x_length=3, stride=2,
                                y_length=2, offset=7)
        moved = pattern.rebased(100, event="layer1-fold2")
        assert moved.same_shape(pattern)
        assert moved.start_address == 100
        assert moved.event == "layer1-fold2"

    def test_fields_used_minimal(self):
        simple = AccessPattern(start_address=0, x_length=8)
        assert "y_length" not in simple.fields_used()
        assert "stride" not in simple.fields_used()

    def test_fields_used_full(self):
        full = AccessPattern(start_address=0, x_length=8, stride=2,
                             y_length=3, offset=64)
        used = full.fields_used()
        assert "stride" in used
        assert "offset" in used


class TestInferPattern:
    def test_single_address(self):
        pattern = infer_pattern([42])
        assert pattern.expand() == [42]

    def test_contiguous_run(self):
        pattern = infer_pattern(list(range(100, 120)))
        assert pattern.x_length == 20
        assert pattern.stride == 1
        assert pattern.y_length == 1

    def test_strided_run(self):
        stream = list(range(0, 40, 4))
        pattern = infer_pattern(stream)
        assert pattern.stride == 4
        assert pattern.expand() == stream

    def test_2d_grid(self):
        stream = []
        for row in range(5):
            stream.extend(range(row * 100, row * 100 + 7))
        pattern = infer_pattern(stream)
        assert pattern.x_length == 7
        assert pattern.y_length == 5
        assert pattern.offset == 100
        assert pattern.expand() == stream

    def test_2d_grid_with_stride(self):
        stream = []
        for row in range(3):
            stream.extend(range(row * 50, row * 50 + 8, 2))
        pattern = infer_pattern(stream)
        assert pattern.stride == 2
        assert pattern.expand() == stream

    def test_irregular_rejected(self):
        with pytest.raises(PatternError):
            infer_pattern([0, 1, 2, 10, 11, 30])

    def test_empty_rejected(self):
        with pytest.raises(PatternError):
            infer_pattern([])

    def test_negative_rejected(self):
        with pytest.raises(PatternError):
            infer_pattern([-5, -4])

    def test_decreasing_stride(self):
        stream = [100, 90, 80, 70]
        pattern = infer_pattern(stream)
        assert pattern.stride == -10
        assert pattern.expand() == stream


class TestInferPatterns:
    def test_splits_two_runs(self):
        stream = list(range(0, 10)) + list(range(1000, 1005))
        patterns = infer_patterns(stream)
        assert expand_patterns(patterns) == stream
        assert len(patterns) <= 2

    def test_grid_then_tail(self):
        stream = []
        for row in range(4):
            stream.extend(range(row * 64, row * 64 + 16))
        stream.extend([9999])
        patterns = infer_patterns(stream)
        assert expand_patterns(patterns) == stream
        assert patterns[0].y_length == 4

    def test_max_patterns_enforced(self):
        # Random-ish addresses that can never merge.
        stream = [i * i * 7 % 1001 + i for i in range(300)]
        with pytest.raises(PatternError):
            infer_patterns(stream, max_patterns=4)

    def test_empty_rejected(self):
        with pytest.raises(PatternError):
            infer_patterns([])


@st.composite
def affine_patterns(draw):
    x_length = draw(st.integers(1, 12))
    y_length = draw(st.integers(1, 8))
    stride = draw(st.integers(1, 5))
    # Offset large enough that rows never interleave ambiguously is not
    # required for roundtrip: expansion equality is what matters.
    offset = draw(st.integers(0, 200))
    start = draw(st.integers(0, 1000))
    return AccessPattern(start_address=start, x_length=x_length,
                         stride=stride, y_length=y_length, offset=offset)


class TestProperties:
    @given(affine_patterns())
    @settings(max_examples=200)
    def test_infer_roundtrip_on_expansion(self, pattern):
        stream = pattern.expand()
        recovered = infer_pattern(stream)
        assert recovered.expand() == stream

    @given(affine_patterns())
    @settings(max_examples=100)
    def test_footprint_matches_expansion(self, pattern):
        assert len(pattern.expand()) == pattern.footprint

    @given(affine_patterns())
    @settings(max_examples=100)
    def test_max_address_bounds_expansion(self, pattern):
        assert max(pattern.expand()) == pattern.max_address()

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_infer_patterns_always_roundtrips(self, stream):
        patterns = infer_patterns(stream, max_patterns=len(stream))
        assert expand_patterns(patterns) == stream


#: Every way of making a pattern from field values.
CONSTRUCTIONS = {
    "keywords": lambda fields: AccessPattern(**fields),
    "positional": lambda fields: AccessPattern(*fields.values()),
    "make": lambda fields: AccessPattern._make(fields.values()),
    "replace": lambda fields: AccessPattern(0, 1)._replace(**fields),
    "rebased": lambda fields: AccessPattern(
        0, fields["x_length"], fields["stride"], fields["y_length"],
        fields["offset"]).rebased(fields["start_address"], fields["event"]),
}

GOOD = {"start_address": 3, "x_length": 4, "stride": 2, "y_length": 5,
        "offset": 64, "event": "layer0-fold1"}


class TestAccessPatternRecord:
    """The record contract the compiled tables rely on."""

    @pytest.mark.parametrize("build", CONSTRUCTIONS.values(),
                             ids=list(CONSTRUCTIONS))
    def test_every_construction_builds_the_same_pattern(self, build):
        assert build(dict(GOOD)) == AccessPattern(**GOOD)

    @pytest.mark.parametrize("bad", [
        {"x_length": 0}, {"y_length": 0}, {"x_length": -2},
        {"start_address": -1},
    ], ids=["x-zero", "y-zero", "x-negative", "start-negative"])
    @pytest.mark.parametrize("build", CONSTRUCTIONS.values(),
                             ids=list(CONSTRUCTIONS))
    def test_every_construction_validates(self, build, bad):
        # ``rebased`` cannot change the lengths, so its bad lengths are
        # rejected by the pattern it starts from.
        with pytest.raises(PatternError):
            build({**GOOD, **bad})

    def test_fields_cannot_be_assigned(self):
        pattern = AccessPattern(**GOOD)
        with pytest.raises(AttributeError):
            pattern.start_address = 9
        with pytest.raises(AttributeError):
            pattern.note = "extra"
        assert pattern == AccessPattern(**GOOD)

    @given(affine_patterns(), st.text(max_size=12))
    @settings(max_examples=100)
    def test_equal_fields_give_equal_patterns_and_hashes(self, pattern,
                                                         event):
        fields = {"start_address": pattern.start_address,
                  "x_length": pattern.x_length, "stride": pattern.stride,
                  "y_length": pattern.y_length, "offset": pattern.offset,
                  "event": event}
        one, two = AccessPattern(**fields), AccessPattern(**fields)
        assert one == two and hash(one) == hash(two)
        assert one.rebased(one.start_address + 1) != one

    def test_repr_is_the_field_listing(self):
        # The tables' digests and the checkers' messages read it.
        assert repr(AccessPattern(**GOOD)) == (
            "AccessPattern(start_address=3, x_length=4, stride=2, "
            "y_length=5, offset=64, event='layer0-fold1')")
        assert repr(AccessPattern(7, 1)) == (
            "AccessPattern(start_address=7, x_length=1, stride=1, "
            "y_length=1, offset=0, event='')")


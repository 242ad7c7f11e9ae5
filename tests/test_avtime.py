"""Temporal coordinate systems: WorldTime, ObjectTime, Timecode, Interval,
TimeMapping — the MediaValue clock substrate of paper §4.1."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.avtime import (
    AllenRelation,
    Interval,
    ObjectTime,
    Timecode,
    TimeMapping,
    WorldTime,
)
from repro.errors import TemporalError


class TestWorldTime:
    def test_arithmetic(self):
        assert (WorldTime(1.5) + WorldTime(2.5)).seconds == 4.0
        assert (WorldTime(5.0) - WorldTime(2.0)).seconds == 3.0
        assert (WorldTime(2.0) * 3).seconds == 6.0
        assert (3 * WorldTime(2.0)).seconds == 6.0
        assert (-WorldTime(2.0)).seconds == -2.0
        assert abs(WorldTime(-2.0)).seconds == 2.0

    def test_division_by_number_and_time(self):
        assert (WorldTime(6.0) / 3).seconds == 2.0
        assert WorldTime(6.0) / WorldTime(2.0) == 3.0

    def test_division_by_zero_rejected(self):
        with pytest.raises(TemporalError):
            WorldTime(1.0) / 0
        with pytest.raises(TemporalError):
            WorldTime(1.0) / WorldTime(0.0)

    def test_ordering(self):
        assert WorldTime(1.0) < WorldTime(2.0)
        assert WorldTime(2.0) >= WorldTime(2.0)
        assert WorldTime(2.0) == WorldTime(2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(TemporalError):
            WorldTime(float("nan"))
        with pytest.raises(TemporalError):
            WorldTime(math.inf)


class TestObjectTime:
    def test_integer_only(self):
        with pytest.raises(TemporalError):
            ObjectTime(1.5)  # type: ignore[arg-type]

    def test_arithmetic_and_order(self):
        assert (ObjectTime(3) + ObjectTime(4)).index == 7
        assert (ObjectTime(4) - ObjectTime(1)).index == 3
        assert ObjectTime(1) < ObjectTime(2)
        assert int(ObjectTime(9)) == 9


class TestTimecode:
    def test_parse_and_str_roundtrip(self):
        tc = Timecode.parse("01:02:03:15")
        assert tc.fields == (1, 2, 3, 15)
        assert str(tc) == "01:02:03:15"

    def test_parse_rejects_out_of_range_fields(self):
        with pytest.raises(TemporalError):
            Timecode.parse("00:61:00:00")
        with pytest.raises(TemporalError):
            Timecode.parse("00:00:00:30")  # frame 30 invalid at 30 fps
        with pytest.raises(TemporalError):
            Timecode.parse("bogus")

    def test_world_conversion(self):
        tc = Timecode(90, rate=30)  # 3 seconds
        assert tc.to_world() == WorldTime(3.0)
        assert Timecode.from_world(WorldTime(3.0)).frames == 90

    def test_negative_world_time_rejected(self):
        with pytest.raises(TemporalError):
            Timecode.from_world(WorldTime(-1.0))

    def test_arithmetic_same_rate_only(self):
        a, b = Timecode(40), Timecode(20)
        assert (a + b).frames == 60
        assert (a - b).frames == 20
        with pytest.raises(TemporalError):
            a + Timecode(10, rate=25)
        with pytest.raises(TemporalError):
            b - a  # would be negative

    @given(st.integers(0, 10**6))
    def test_fields_roundtrip(self, frames):
        tc = Timecode(frames)
        assert Timecode.parse(str(tc)).frames == frames


@pytest.mark.parametrize("mixed", [
    lambda: WorldTime(1.0) + 1.0, lambda: WorldTime(1.0) - 1.0,
    lambda: WorldTime(1.0) * WorldTime(2.0), lambda: WorldTime(1.0) / "2",
    lambda: WorldTime(1.0) < 2.0, lambda: ObjectTime(1) + 1,
    lambda: ObjectTime(1) - 1, lambda: ObjectTime(1) < 2,
    lambda: Timecode(1, 25) + 1, lambda: Timecode(1, 25) - 1,
], ids=["wt+", "wt-", "wt*", "wt/", "wt<", "ot+", "ot-", "ot<", "tc+", "tc-"])
def test_mixing_coordinate_types_is_a_type_error(mixed):
    # Each operator answers NotImplemented, so Python raises TypeError.
    with pytest.raises(TypeError):
        mixed()


class TestInterval:
    def test_between_and_end(self):
        iv = Interval.between(WorldTime(1.0), WorldTime(3.0))
        assert iv.duration == WorldTime(2.0)
        assert iv.end == WorldTime(3.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(TemporalError):
            Interval(WorldTime(0.0), WorldTime(-1.0))
        with pytest.raises(TemporalError):
            Interval.between(WorldTime(3.0), WorldTime(1.0))

    def test_half_open_containment(self):
        iv = Interval(WorldTime(1.0), WorldTime(2.0))
        assert iv.contains_time(WorldTime(1.0))
        assert iv.contains_time(WorldTime(2.9))
        assert not iv.contains_time(WorldTime(3.0))  # end excluded
        assert not iv.contains_time(WorldTime(0.5))

    def test_intersection_and_union(self):
        a = Interval(WorldTime(0.0), WorldTime(2.0))
        b = Interval(WorldTime(1.0), WorldTime(2.0))
        inter = a.intersection(b)
        assert inter == Interval.between(WorldTime(1.0), WorldTime(2.0))
        assert a.union_span(b) == Interval.between(WorldTime(0.0), WorldTime(3.0))
        c = Interval(WorldTime(5.0), WorldTime(1.0))
        assert a.intersection(c) is None

    def test_meets_has_empty_intersection(self):
        a = Interval(WorldTime(0.0), WorldTime(1.0))
        b = Interval(WorldTime(1.0), WorldTime(1.0))
        assert a.intersection(b) is None

    @pytest.mark.parametrize("a,b,expected", [
        ((0, 1), (2, 1), AllenRelation.BEFORE),
        ((2, 1), (0, 1), AllenRelation.AFTER),
        ((0, 1), (1, 1), AllenRelation.MEETS),
        ((1, 1), (0, 1), AllenRelation.MET_BY),
        ((0, 2), (1, 2), AllenRelation.OVERLAPS),
        ((1, 2), (0, 2), AllenRelation.OVERLAPPED_BY),
        ((0, 1), (0, 2), AllenRelation.STARTS),
        ((0, 2), (0, 1), AllenRelation.STARTED_BY),
        ((1, 1), (0, 3), AllenRelation.DURING),
        ((0, 3), (1, 1), AllenRelation.CONTAINS),
        ((1, 1), (0, 2), AllenRelation.FINISHES),
        ((0, 2), (1, 1), AllenRelation.FINISHED_BY),
        ((0, 2), (0, 2), AllenRelation.EQUALS),
    ])
    def test_all_thirteen_relations(self, a, b, expected):
        ia = Interval(WorldTime(float(a[0])), WorldTime(float(a[1])))
        ib = Interval(WorldTime(float(b[0])), WorldTime(float(b[1])))
        assert ia.relation_to(ib) is expected

    @given(
        st.floats(0, 100, allow_nan=False), st.floats(0.1, 50, allow_nan=False),
        st.floats(0, 100, allow_nan=False), st.floats(0.1, 50, allow_nan=False),
    )
    def test_relation_inverse_symmetry(self, s1, d1, s2, d2):
        a = Interval(WorldTime(s1), WorldTime(d1))
        b = Interval(WorldTime(s2), WorldTime(d2))
        assert a.relation_to(b).inverse is b.relation_to(a)

    def test_shift_and_scale(self):
        iv = Interval(WorldTime(1.0), WorldTime(2.0))
        assert iv.shifted(WorldTime(0.5)).start == WorldTime(1.5)
        assert iv.scaled(2.0).duration == WorldTime(4.0)
        with pytest.raises(TemporalError):
            iv.scaled(-1.0)


class TestTimeMapping:
    def test_object_world_roundtrip(self):
        mapping = TimeMapping(rate=30.0)
        assert mapping.object_to_world(ObjectTime(30)) == WorldTime(1.0)
        assert mapping.world_to_object(WorldTime(1.0)).index == 30

    def test_start_offset(self):
        mapping = TimeMapping(rate=10.0, start=WorldTime(5.0))
        assert mapping.object_to_world(ObjectTime(0)) == WorldTime(5.0)
        assert mapping.world_to_object(WorldTime(5.5)).index == 5

    def test_scale_slows_presentation(self):
        mapping = TimeMapping(rate=30.0).scaled(2.0)  # half speed
        assert mapping.object_to_world(ObjectTime(30)) == WorldTime(2.0)

    def test_translate(self):
        mapping = TimeMapping(rate=30.0).translated(WorldTime(1.0))
        assert mapping.start == WorldTime(1.0)
        assert mapping.object_to_world(ObjectTime(0)) == WorldTime(1.0)

    def test_duration_and_period(self):
        mapping = TimeMapping(rate=25.0)
        assert mapping.duration_of(50) == WorldTime(2.0)
        assert mapping.element_period() == WorldTime(0.04)
        assert mapping.duration_of(1) == mapping.element_period()
        assert mapping.scaled(2.0).element_period() == WorldTime(0.08)
        with pytest.raises(TemporalError):
            mapping.duration_of(-1)

    def test_invalid_parameters(self):
        with pytest.raises(TemporalError):
            TimeMapping(rate=0.0)
        with pytest.raises(TemporalError):
            TimeMapping(rate=30.0, scale=0.0)
        with pytest.raises(TemporalError):
            TimeMapping(rate=30.0).scaled(0.0)

    @given(st.integers(0, 100000), st.floats(1.0, 120.0),
           st.floats(0.1, 10.0))
    def test_roundtrip_property(self, index, rate, scale):
        mapping = TimeMapping(rate=rate, scale=scale)
        when = mapping.object_to_world(ObjectTime(index))
        # Mapping back lands on the same element (floor semantics).
        recovered = mapping.world_to_object(when).index
        assert recovered in (index - 1, index, index + 1)

from fractions import Fraction
from functools import lru_cache

import pytest

from isonorm import annulus
from isonorm.annulus import (Endpoint, chord, count_crossings,
                             count_self_crossings, crossing_shifts,
                             segment_intersection)
from isonorm.census import AnnulusArc, arc_intersection


def arc(start, end, twist):
    return AnnulusArc(start, end, twist)


class ScanOracle:
    """Crossing shifts against a fixed chord by scanning a wide window.

    Boundary positions increase down the left side, then up the right
    side; a chord crosses the fixed one iff exactly one of its endpoints
    lies strictly between the fixed chord's endpoints.
    """

    WINDOW = range(-20, 21)

    def __init__(self, c1):
        self.a, self.b = sorted(self.position(p) for p in c1)
        self.cache = {}

    @staticmethod
    def position(p):
        side, h = p
        return (0, -h) if side == "L" else (1, h)

    def inside_shifts(self, p):
        if p not in self.cache:
            side, h = p
            self.cache[p] = frozenset(
                k for k in self.WINDOW
                if self.a < self.position((side, h + annulus.SCALE * k))
                < self.b)
        return self.cache[p]

    def shifts(self, c2, self_pair=False):
        crossing = sorted(self.inside_shifts(c2[0])
                          ^ self.inside_shifts(c2[1]))
        return [k for k in crossing if k >= 1] if self_pair else crossing


@lru_cache(maxsize=None)
def disk_point(pt):
    """Rational point on the unit circle for a boundary position, built
    with Fractions: boundary coordinate s = -y / (1 + |y|) on the left
    and 2 + y / (1 + |y|) on the right for y = h / SCALE, and t = s - 1
    the tangent-half-angle of the circle parametrization."""
    side, h = pt
    y = Fraction(h, annulus.SCALE)
    frac = y / (1 + abs(y))
    s = -frac if side == "L" else 2 + frac
    t = s - 1
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


@lru_cache(maxsize=None)
def _frame(c):
    p, q = disk_point(c[0]), disk_point(c[1])
    return p, (q[0] - p[0], q[1] - p[1])


def segment_intersection_oracle(c1, c2):
    """Crossing (t1, t2, sign) of two straight disk chords in Fractions."""
    p1, d1 = _frame(c1)
    p2, d2 = _frame(c2)
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return None
    rx, ry = p2[0] - p1[0], p2[1] - p1[1]
    t1 = (rx * d2[1] - ry * d2[0]) / den
    t2 = (rx * d1[1] - ry * d1[0]) / den
    if not (0 < t1 < 1 and 0 < t2 < 1):
        return None
    return (t1, t2, 1 if den > 0 else -1)


class TestArcFormulas:
    """Crossing numbers of labelled arcs against the closed formulas."""

    RANGE = range(-4, 5)

    def test_parallel_sides(self):
        # both arcs run left-to-right, to non-shared end-points
        for p in self.RANGE:
            for q in self.RANGE:
                assert arc_intersection(arc("A", "B", p),
                                        arc("C", "D", q)) == abs(p - q)

    def test_antiparallel_sides(self):
        for p in self.RANGE:
            for q in self.RANGE:
                assert arc_intersection(arc("A", "B", p),
                                        arc("D", "C", q)) == abs(p + q)

    def test_crossing_pairs(self):
        for p in self.RANGE:
            for q in self.RANGE:
                assert arc_intersection(arc("A", "D", p),
                                        arc("C", "B", q)) == abs(p - q - 1)
                assert arc_intersection(arc("A", "D", p),
                                        arc("B", "C", q)) == abs(p + q - 1)
                assert arc_intersection(arc("D", "A", p),
                                        arc("C", "B", q)) == abs(q + p + 1)

    def test_pinned_values(self):
        assert arc_intersection(arc("A", "B", 2), arc("C", "D", 0)) == 2
        assert arc_intersection(arc("A", "D", 0), arc("B", "C", 0)) == 1

    def test_equal_twists_parallel_arcs_disjoint(self):
        for p in self.RANGE:
            assert arc_intersection(arc("A", "B", p),
                                    arc("C", "D", p)) == 0

    def test_shared_endpoint_rejected(self):
        with pytest.raises(ValueError):
            arc_intersection(arc("A", "B", 0), arc("B", "C", 0))

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            AnnulusArc("A", "E", 0)
        with pytest.raises(ValueError):
            AnnulusArc("A", "A", 1)


class TestChordModel:
    def test_crossing_count_is_symmetric(self):
        c1 = chord(Endpoint("L", 6), Endpoint("R", 3), 2)
        c2 = chord(Endpoint("L", 3), Endpoint("R", 6), -1)
        assert count_crossings(c1, c2) == count_crossings(c2, c1)

    def test_crossing_shifts_match_scan_oracle(self):
        ports = [Endpoint(s, h) for s in "LR" for h in (2, 3, 4, 6, 8)]
        chords = [chord(p, q, t) for p in ports for q in ports if p != q
                  for t in range(-5, 6)]
        for c1 in chords:
            oracle = ScanOracle(c1)
            assert crossing_shifts(c1, c1, self_pair=True) \
                == oracle.shifts(c1, self_pair=True)
            assert [c2 for c2 in chords
                    if crossing_shifts(c1, c2) != oracle.shifts(c2)] == []

    def test_untwisted_disjoint_chords(self):
        c1 = chord(Endpoint("L", 6), Endpoint("R", 6), 0)
        c2 = chord(Endpoint("L", 3), Endpoint("R", 3), 0)
        assert count_crossings(c1, c2) == 0

    def test_self_crossings_of_same_side_returns(self):
        # an arc leaving and re-entering the same boundary self-crosses
        # once per full turn beyond the free half-turn available in the
        # annulus: max(-t, t - 1) for a descending left-side return
        for t in range(-4, 5):
            c = chord(Endpoint("L", 6), Endpoint("L", 3), t)
            assert count_self_crossings(c) == max(-t, t - 1)

    def test_side_to_side_arcs_are_embedded(self):
        for t in range(-4, 5):
            c = chord(Endpoint("L", 6), Endpoint("R", 3), t)
            assert count_self_crossings(c) == 0

    def test_shift_translates_whole_chord(self):
        c = chord(Endpoint("L", 6), Endpoint("R", 3), 1, shift=2)
        assert c[0].height == 6 + 2 * annulus.SCALE
        assert c[1].height == 3 + 3 * annulus.SCALE

    def test_crossing_shifts_match_geometry(self):
        # the straight disk chords cross exactly at the listed shifts;
        # chords of the census never share a port, so neither do these
        ports = [Endpoint(s, h) for s in "LR" for h in (3, 6)]
        window = range(-6, 7)
        for p1 in ports:
            for q1 in ports:
                if p1 == q1:
                    continue
                for t1 in range(-2, 3):
                    c1 = chord(p1, q1, t1)
                    shifts = crossing_shifts(c1, c1, self_pair=True)
                    assert set(shifts) <= set(window)
                    assert shifts == [
                        k for k in window if k >= 1 and segment_intersection(
                            c1, chord(p1, q1, t1, shift=k)) is not None]
                    for p2 in ports:
                        for q2 in ports:
                            if len({p1, q1, p2, q2}) < 4:
                                continue
                            for t2 in (-1, 0, 1):
                                shifts = crossing_shifts(
                                    c1, chord(p2, q2, t2))
                                assert set(shifts) <= set(window)
                                assert shifts == [
                                    k for k in window
                                    if segment_intersection(
                                        c1, chord(p2, q2, t2, shift=k))
                                    is not None]

    def test_segment_intersection_exact(self):
        c1 = chord(Endpoint("L", 6), Endpoint("R", 3), 0)
        c2 = chord(Endpoint("L", 3), Endpoint("R", 6), 0)
        hit = segment_intersection(c1, c2)
        assert hit is not None
        t1, t2, sign = hit
        assert isinstance(t1, Fraction) and isinstance(t2, Fraction)
        assert 0 < t1 < 1 and 0 < t2 < 1
        assert sign in (-1, 1)
        # swapping the chords flips the frame orientation
        assert segment_intersection(c2, c1)[2] == -sign

    def test_segment_intersection_matches_fraction_oracle(self):
        ports = [Endpoint(s, h) for s in "LR" for h in (2, 3, 4, 6, 8)]
        pairs = [(p, q) for p in ports for q in ports if p != q]
        chords = [chord(p, q, t) for p, q in pairs for t in range(-3, 4)]
        # every ordered pair of twisted chords, then every relative shift
        # of the untwisted ones
        untwisted = [chord(p, q, 0) for p, q in pairs]
        shifted = [chord(p, q, 0, shift=k) for p, q in pairs
                   for k in range(-3, 4)]
        hits = 0
        for firsts, seconds in ((chords, chords), (untwisted, shifted)):
            for c1 in firsts:
                for c2 in seconds:
                    hit = segment_intersection(c1, c2)
                    assert hit == segment_intersection_oracle(c1, c2), \
                        (c1, c2)
                    hits += hit is not None
        # both outcomes occur often
        assert 0.1 < hits / (len(chords) ** 2 + len(untwisted)
                             * len(shifted)) < 0.9

    def test_parallel_segments_do_not_cross(self):
        c = chord(Endpoint("L", 6), Endpoint("R", 3), 0)
        assert segment_intersection(c, c) is None

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            Endpoint("X", 3)

import pytest

from isonorm import annulus, census
from isonorm.annulus import (KEY_BITS, chord, count_crossings,
                             count_self_crossings, crossing_shifts,
                             segment_intersection)
from isonorm.census import AnnulusArc, arc_intersection

from _helpers import floor_key, segment_intersection_oracle


def arc(start, end, twist):
    return AnnulusArc(start, end, twist)


class ScanOracle:
    """Crossing shifts against a fixed chord by scanning a wide window.

    Boundary positions increase down the left side, then up the right
    side; a chord crosses the fixed one iff exactly one of its endpoints
    lies strictly between the fixed chord's endpoints and neither is an
    endpoint of the fixed chord (there the chords only touch).
    """

    WINDOW = range(-20, 21)

    def __init__(self, c1):
        self.a, self.b = sorted(self.position(p) for p in c1)
        self.cache = {}

    @staticmethod
    def position(p):
        side, h = p
        return (0, -h) if side == "L" else (1, h)

    def moves(self, p):
        """Shifts putting p strictly inside the fixed chord, and shifts
        putting it on one of the chord's endpoints."""
        if p not in self.cache:
            side, h = p
            inside, on = set(), set()
            for k in self.WINDOW:
                q = self.position((side, h + annulus.SCALE * k))
                if self.a < q < self.b:
                    inside.add(k)
                elif q in (self.a, self.b):
                    on.add(k)
            self.cache[p] = (inside, on)
        return self.cache[p]

    def shifts(self, c2, self_pair=False):
        (inside0, on0), (inside1, on1) = self.moves(c2[0]), self.moves(c2[1])
        crossing = sorted((inside0 ^ inside1) - on0 - on1)
        return [k for k in crossing if k >= 1] if self_pair else crossing


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
    def test_shared_endpoint_is_no_crossing(self):
        c1 = (("L", 2), ("L", 13))
        c2 = (("L", 2), ("L", 4))
        # shift 0 shares L2 and shift 1 shares L13; neither crosses
        for k in (0, 1):
            assert segment_intersection(c1, chord(*c2, 0, shift=k)) is None
        assert crossing_shifts(c1, c2) == []
        assert count_crossings(c1, c2) == 0

    def test_crossing_count_is_symmetric(self):
        c1 = chord(("L", 6), ("R", 3), 2)
        c2 = chord(("L", 3), ("R", 6), -1)
        assert count_crossings(c1, c2) == count_crossings(c2, c1)

    @staticmethod
    def match_scan_oracle(chords):
        # the shift lists of every chord pair, and the counts, which
        # annulus reads off the same ranges without listing them; a chord
        # paired with itself gets the oracle's self list
        for c1 in chords:
            oracle = ScanOracle(c1)
            assert count_self_crossings(c1) == len(
                oracle.shifts(c1, self_pair=True))
            assert [c2 for c2 in chords
                    for want in [oracle.shifts(c2, self_pair=c2 == c1)]
                    if crossing_shifts(c1, c2) != want
                    or count_crossings(c1, c2) != len(want)] == []

    def test_crossing_shifts_match_scan_oracle(self):
        ports = [(s, h) for s in "LR" for h in (2, 3, 4, 6, 8)]
        self.match_scan_oracle([chord(p, q, t) for p in ports for q in ports
                                if p != q for t in range(-5, 6)])

    def test_crossing_shifts_at_lattice_heights_match_scan_oracle(self):
        # at a height that is a multiple of SCALE, an endpoint on the
        # side that a one-sided chord does not touch gets an empty range
        # of inside shifts with first > stop, which must count as empty
        ports = [(s, h) for s in "LR" for h in (0, 4, 9)]
        self.match_scan_oracle([chord(p, q, t) for p in ports for q in ports
                                if p != q for t in range(-2, 3)])

    def test_untwisted_disjoint_chords(self):
        c1 = chord(("L", 6), ("R", 6), 0)
        c2 = chord(("L", 3), ("R", 3), 0)
        assert count_crossings(c1, c2) == 0

    def test_self_crossings_of_same_side_returns(self):
        # an arc leaving and re-entering the same boundary self-crosses
        # once per full turn beyond the free half-turn available in the
        # annulus: max(-t, t - 1) for a descending left-side return
        for t in range(-4, 5):
            c = chord(("L", 6), ("L", 3), t)
            assert count_self_crossings(c) == max(-t, t - 1)

    def test_side_to_side_arcs_are_embedded(self):
        for t in range(-4, 5):
            c = chord(("L", 6), ("R", 3), t)
            assert count_self_crossings(c) == 0

    def test_chord_paired_with_itself_counts_self_crossings(self):
        # whether a pair is a self-pair is read from the pair: every
        # connector chord of the census with twists in [-3, 3] counts
        # its self-crossings once, each at one shift k >= 1
        chords = [census._connector_chord(u, v, t) for u in census.PORTS
                  for v in census.PORTS if u != v for t in range(-3, 4)]
        assert len(chords) == 392
        assert [c for c in chords
                if count_crossings(c, c) != count_self_crossings(c)
                or min(crossing_shifts(c, c), default=1) < 1] == []
        assert sum(map(count_self_crossings, chords)) > 0

    def test_shift_translates_whole_chord(self):
        c = chord(("L", 6), ("R", 3), 1, shift=2)
        assert c[0][1] == 6 + 2 * annulus.SCALE
        assert c[1][1] == 3 + 3 * annulus.SCALE

    def test_crossing_shifts_match_geometry(self):
        # the straight disk chords cross exactly at the listed shifts,
        # also where the chords share a port: a translate sharing an
        # endpoint only touches the fixed chord
        ports = [(s, h) for s in "LR" for h in (3, 6)]
        window = range(-6, 7)
        for p1 in ports:
            for q1 in ports:
                if p1 == q1:
                    continue
                for t1 in range(-2, 3):
                    c1 = chord(p1, q1, t1)
                    shifts = crossing_shifts(c1, c1)
                    assert set(shifts) <= set(window)
                    assert shifts == [
                        k for k in window if k >= 1 and segment_intersection(
                            c1, chord(p1, q1, t1, shift=k)) is not None]
                    for p2 in ports:
                        for q2 in ports:
                            for t2 in (-1, 0, 1):
                                c2 = chord(p2, q2, t2)
                                shifts = crossing_shifts(c1, c2)
                                assert set(shifts) <= set(window)
                                assert shifts == [
                                    k for k in window
                                    if (k >= 1 or c2 != c1)
                                    and segment_intersection(
                                        c1, chord(p2, q2, t2, shift=k))
                                    is not None]

    def test_segment_intersection_exact(self):
        c1 = chord(("L", 6), ("R", 3), 0)
        c2 = chord(("L", 3), ("R", 6), 0)
        hit = segment_intersection(c1, c2)
        assert hit is not None
        key1, key2, sign = hit
        assert type(key1) is int and type(key2) is int
        assert 0 < key1 < 1 << KEY_BITS and 0 < key2 < 1 << KEY_BITS
        assert sign in (-1, 1)
        # swapping the chords flips the frame orientation
        assert segment_intersection(c2, c1)[2] == -sign

    def test_segment_intersection_matches_fraction_oracle(self):
        ports = [(s, h) for s in "LR" for h in (2, 3, 4, 6, 8)]
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
                along = []  # (key, exact parameter) of each crossing on c1
                for c2 in seconds:
                    hit = segment_intersection(c1, c2)
                    expect = segment_intersection_oracle(c1, c2)
                    if expect is None:
                        assert hit is None, (c1, c2)
                        continue
                    t1, t2, sign = expect
                    assert hit == (floor_key(t1), floor_key(t2), sign), \
                        (c1, c2)
                    along.append((hit[0], t1))
                    hits += 1
                # the keys are floors, so they sort as the parameters do
                # once they tie only where the parameters are equal
                along.sort()
                assert all(t == t_next for (k, t), (k_next, t_next)
                           in zip(along, along[1:]) if k == k_next)
        # both outcomes occur often
        assert 0.1 < hits / (len(chords) ** 2 + len(untwisted)
                             * len(shifted)) < 0.9

    def test_tall_chords_raise(self):
        # a crossing parameter with denominator 2**(KEY_BITS / 2) or more
        # could share its key with a distinct one
        c1 = chord(("L", 6), ("R", 3), 0)
        low, tall = (chord(("L", 3), ("R", 6), 2 ** e)
                     for e in (40, 44))
        t1, t2, sign = segment_intersection_oracle(c1, low)
        assert segment_intersection(c1, low) \
            == (floor_key(t1), floor_key(t2), sign)
        assert segment_intersection_oracle(c1, tall) is not None
        with pytest.raises(ValueError):
            segment_intersection(c1, tall)

    def test_parallel_segments_do_not_cross(self):
        c = chord(("L", 6), ("R", 3), 0)
        assert segment_intersection(c, c) is None

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            chord(("X", 3), ("L", 2), 0)

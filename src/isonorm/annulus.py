"""Minimal-position arcs in an annulus, via the universal cover.

The annulus is modelled as the strip [0, 1] x R quotiented by the unit
vertical translation; 'L' is the boundary x = 0, 'R' is x = 1.  The cut
arc lies at integer heights, so an arc's twist index (its algebraic
crossing number with the cut, counted positively when crossing upward
along the traversal) equals the integer offset between the lift heights
of its two endpoints.

Arc endpoints sit at fixed rational heights in (0, 1), scaled by SCALE so
that every lift height is an integer.  A lift of an arc is a chord of the
strip (a disk); two chords cross iff their endpoints interleave along the
strip boundary, and the crossing number of two arcs in the annulus is the
number of integer translates of one lift that interleave with a fixed
lift of the other.  Translating a chord moves both its endpoints up, so
each endpoint lies strictly inside the fixed chord for one interval of
translates, found by floor division; the crossing translates are the
symmetric difference of the two intervals.  Chords are realized as
straight segments in a round disk with a rational boundary
parametrization, which keeps every crossing parameter and tangent
direction in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

SCALE = 9  # lift heights live in (port height) + SCALE * Z


class Endpoint(tuple):
    """A lifted arc endpoint (side, scaled height)."""

    __slots__ = ()

    def __new__(cls, side, height):
        if side not in ("L", "R"):
            raise ValueError("side must be 'L' or 'R'")
        return tuple.__new__(cls, (side, int(height)))

    @property
    def side(self):
        return self[0]

    @property
    def height(self):
        return self[1]


def chord(start, end, twist, shift=0):
    """The lift of an arc: start at its base height, end offset by the
    twist; ``shift`` translates the whole chord by that many turns."""
    (s0, h0), (s1, h1) = start, end
    d = SCALE * shift
    return (Endpoint(s0, h0 + d), Endpoint(s1, h1 + SCALE * twist + d))


def _inside(c1, side):
    """Open height interval (lo, hi) of the boundary side ``side`` lying
    strictly inside the chord c1; lo is None when unbounded below.

    The boundary runs down the left side and up the right side.  A chord
    with both ends on one side cuts off the heights between them there and
    nothing (the empty interval (0, 0)) on the other side; a chord across
    the strip cuts off, on each side, the heights below its endpoint there.
    """
    (s1, h1), (s2, h2) = c1
    if s1 == s2:
        return (min(h1, h2), max(h1, h2)) if side == s1 else (0, 0)
    return (None, h1 if side == s1 else h2)


def crossing_shifts(c1, c2, self_pair=False):
    """Translates k such that c2 shifted by k turns crosses c1, ascending.

    The chords cross iff exactly one endpoint of the shifted c2 lies
    strictly inside c1.  Endpoint (side, h) does so for the k with
    lo < h + SCALE * k < hi, a half-open range [first, stop) of k.  With
    ``self_pair`` only k >= 1 is kept (each self-crossing of an arc
    corresponds to one positive relative translate).
    """
    ranges = []
    for side, h in c2:
        lo, hi = _inside(c1, side)
        first = None if lo is None else (lo - h) // SCALE + 1
        ranges.append((first, -((h - hi) // SCALE)))
    # an unbounded range only occurs for both endpoints at once, and
    # their symmetric difference starts at the lower stop
    floor = min(stop for _, stop in ranges)
    a, b = (set(range(floor if first is None else first, stop))
            for first, stop in ranges)
    return sorted(k for k in a ^ b if k >= 1 or not self_pair)


def count_crossings(c1, c2):
    """Minimal crossing number of two distinct arcs in the annulus."""
    return len(crossing_shifts(c1, c2))


def count_self_crossings(c):
    """Minimal self-crossing number of one arc in the annulus."""
    return len(crossing_shifts(c, c, self_pair=True))


# ---------------------------------------------------------------------------
# Exact geometry: straight chords in a round disk
# ---------------------------------------------------------------------------

def disk_point(pt):
    """Rational point on the unit circle for a boundary position.

    The boundary coordinate s increases CCW (left side descending maps to
    (-1, 1), right side ascending to (1, 3)); t = s - 1 is used as the
    tangent-half-angle of the circle parametrization.
    """
    side, h = pt
    y = Fraction(h, SCALE)
    frac = y / (1 + abs(y))
    s = -frac if side == "L" else 2 + frac
    t = s - 1
    den = 1 + t * t
    return ((1 - t * t) / den, 2 * t / den)


def segment_intersection(c1, c2):
    """Crossing of two straight disk chords.

    Returns (t1, t2, sign) with t_i the affine parameter of the crossing
    along chord i and sign = +1 iff (direction of c1, direction of c2) is
    a positively oriented frame; None if the segments do not cross.
    """
    p1, q1 = disk_point(c1[0]), disk_point(c1[1])
    p2, q2 = disk_point(c2[0]), disk_point(c2[1])
    d1 = (q1[0] - p1[0], q1[1] - p1[1])
    d2 = (q2[0] - p2[0], q2[1] - p2[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return None
    rhs = (p2[0] - p1[0], p2[1] - p1[1])
    t1 = (rhs[0] * d2[1] - rhs[1] * d2[0]) / den
    t2 = (rhs[0] * d1[1] - rhs[1] * d1[0]) / den
    if not (0 < t1 < 1 and 0 < t2 < 1):
        return None
    return (t1, t2, 1 if den > 0 else -1)


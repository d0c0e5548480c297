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
parametrization.  Their endpoints are integer homogeneous points on the
circle, so a crossing is found and oriented in integer arithmetic; only
the two crossing parameters it returns are built as Fractions.
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

def _circle_point(pt):
    """Integer homogeneous point (x, y, w), w > 0, on the unit circle for a
    boundary position.

    The boundary coordinate s increases CCW (left side descending maps to
    (-1, 1), right side ascending to (1, 3)), with s = -y / (1 + |y|) on
    the left and 2 + y / (1 + |y|) on the right for y = h / SCALE.  Then
    t = s - 1 = p / q with q = SCALE + |h| is the tangent-half-angle of the
    circle parametrization ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)).
    """
    side, h = pt
    q = SCALE + abs(h)
    p = q + h if side == "R" else -(q + h)
    return (q * q - p * p, 2 * p * q, q * q + p * p)


def segment_intersection(c1, c2):
    """Crossing of two straight disk chords.

    Returns (t1, t2, sign) with t_i the affine parameter of the crossing
    along chord i and sign = +1 iff (direction of c1, direction of c2) is
    a positively oriented frame; None if the segments do not cross.

    With chord i from a_i to b_i, t1 = (a2 - a1) x d2 / (d1 x d2) and
    t2 = (a2 - a1) x d1 / (d1 x d2) for d_i = b_i - a_i.  Clearing the
    positive weights of the homogeneous endpoints leaves each parameter a
    quotient of integers, compared with 0 and 1 by cross-multiplication.
    """
    xa, ya, wa = _circle_point(c1[0])
    xb, yb, wb = _circle_point(c1[1])
    xc, yc, wc = _circle_point(c2[0])
    xd, yd, wd = _circle_point(c2[1])
    # d1, d2 and a2 - a1 scaled by wa * wb, wc * wd and wa * wc
    d1x, d1y = xb * wa - xa * wb, yb * wa - ya * wb
    d2x, d2y = xd * wc - xc * wd, yd * wc - yc * wd
    rx, ry = xc * wa - xa * wc, yc * wa - ya * wc
    den = d1x * d2y - d1y * d2x
    if den == 0:
        return None
    sign = 1 if den > 0 else -1
    # t1 = n1 / m1 and t2 = n2 / m2 with m1, m2 of the sign of den
    n1, m1 = (rx * d2y - ry * d2x) * wb * sign, wc * den * sign
    n2, m2 = (rx * d1y - ry * d1x) * wd * sign, wa * den * sign
    if not (0 < n1 < m1 and 0 < n2 < m2):
        return None
    return (Fraction(n1, m1), Fraction(n2, m2), sign)

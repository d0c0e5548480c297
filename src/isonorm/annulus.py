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
circle, so a crossing is found, oriented and keyed in integer
arithmetic: a crossing parameter n / m, with m below 2**(KEY_BITS / 2),
is keyed (n << KEY_BITS) // m.  Two distinct such parameters differ by
more than 2**-KEY_BITS, so keys order as the parameters do, and equal
keys mean equal parameters.
"""

from __future__ import annotations

SCALE = 9  # lift heights live in (port height) + SCALE * Z
KEY_BITS = 256  # bits below the binary point of a crossing key


def chord(start, end, twist, shift=0):
    """The lift of an arc between two (side, height) ends, side 'L' or
    'R': start at its base height, end offset by the twist; ``shift``
    translates the whole chord by that many turns."""
    (s0, h0), (s1, h1) = start, end
    if s0 not in ("L", "R") or s1 not in ("L", "R"):
        raise ValueError("side must be 'L' or 'R'")
    d = SCALE * shift
    return ((s0, h0 + d), (s1, h1 + SCALE * twist + d))


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


def _shift_ranges(c1, c2):
    """Two ranges of shifts k, and a set of k to leave out of them, such
    that c2 shifted by k turns crosses c1 for the k that remain.

    The chords cross iff exactly one endpoint of the shifted c2 lies
    strictly inside c1 and neither lies on an endpoint of c1 (chords
    sharing an endpoint only touch on the boundary).  Endpoint (side, h)
    lies inside for the k with lo < h + SCALE * k < hi, a half-open range
    [first, stop) of k.  The symmetric difference of two such ranges is
    [p0, p1) and [p2, p3) for their four ends in ascending order, once an
    empty range is written [stop, stop); the at most four shifts that put
    an endpoint of c2 on an endpoint of c1 are left out.  For c1 == c2
    only k >= 1 is kept (each self-crossing of an arc corresponds to one
    positive relative translate).
    """
    ranges = []
    for side, h in c2:
        lo, hi = _inside(c1, side)
        first = None if lo is None else (lo - h) // SCALE + 1
        ranges.append((first, -((h - hi) // SCALE)))
    (a0, a1), (b0, b1) = ranges
    if a0 is None:
        # an unbounded range only occurs for both endpoints at once, and
        # their symmetric difference starts at the lower stop
        a0 = b0 = min(a1, b1)
    p0, p1, p2, p3 = sorted((min(a0, a1), a1, min(b0, b1), b1))
    if c1 == c2:
        p0, p2 = max(p0, 1), max(p2, 1)
    shared = {(h1 - h) // SCALE for side, h in c2 for side1, h1 in c1
              if side == side1 and (h1 - h) % SCALE == 0}
    return (range(p0, p1), range(p2, p3)), shared


def crossing_shifts(c1, c2):
    """Translates k such that c2 shifted by k turns crosses c1, ascending;
    for c1 == c2 each self-crossing once, at its shift k >= 1."""
    spans, shared = _shift_ranges(c1, c2)
    return [k for span in spans for k in span if k not in shared]


def count_crossings(c1, c2):
    """Minimal crossing number of two arcs in the annulus, or the
    self-crossing number of one arc for c1 == c2."""
    (r1, r2), shared = _shift_ranges(c1, c2)
    return len(r1) + len(r2) - len([k for k in shared if k in r1 or k in r2])


def count_self_crossings(c):
    """Minimal self-crossing number of one arc in the annulus."""
    return count_crossings(c, c)


def arc_class(c):
    """A chord up to translation and orientation, as (shape, turns).

    The chord's ends are put in boundary order and translated so that the
    first lies in [0, SCALE).  A chord with both ends on one side keeps
    that whole normalised lift as its shape, and its turns are None.  A
    chord across the annulus keeps only its two ports, as the heights of
    its left and right ends modulo SCALE, and its turns: how many times
    its right end lies a full turn above its left end.
    """
    (s0, h0), (s1, h1) = sorted(c)
    h1 -= h0 // SCALE * SCALE
    h0 %= SCALE
    if s0 == s1:
        return (s0, h0, h1), None
    return (h0, h1 % SCALE), h1 // SCALE


def pair_class(k1, k2):
    """The key of an ordered pair of chords with four distinct ports, from
    their :func:`arc_class` values; pairs with one key cross equally often.

    A crossing number in the annulus does not change when either arc is
    translated or reversed, nor under the Dehn twist about the core, which
    adds one turn to every chord across.  So two chords across count by
    their ports and the difference of their turns.  When a chord has both
    ends on one side, the twist moves it by a translation at most, so a
    chord across beside it counts by its ports alone.
    """
    (a, s), (b, t) = k1, k2
    if s is None or t is None:
        return a, b
    return a, b, s - t


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

    Returns (k1, k2, sign), k_i the key of the crossing's parameter along
    chord i (see the module docstring) and sign = +1 iff (direction of
    c1, direction of c2) is a positively oriented frame; None if the
    segments do not cross.

    With chord i from a_i to b_i, t1 = (a2 - a1) x d2 / (d1 x d2) and
    t2 = (a2 - a1) x d1 / (d1 x d2) for d_i = b_i - a_i.  Clearing the
    positive weights of the homogeneous endpoints leaves each parameter a
    quotient n / m of integers, compared with 0 and 1 by
    cross-multiplication; ValueError if some m reaches 2**(KEY_BITS / 2).
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
    if max(m1, m2) >> KEY_BITS // 2:
        raise ValueError("crossing denominator reaches 2**(KEY_BITS / 2)")
    return ((n1 << KEY_BITS) // m1, (n2 << KEY_BITS) // m2, sign)


def shifted_crossings(c1, c2):
    """The crossings of c1 with c2 at each of its :func:`crossing_shifts`
    (each self-crossing once for c1 == c2), as :func:`segment_intersection`
    gives them; AssertionError if a shift gives no crossing."""
    out = []
    for k in crossing_shifts(c1, c2):
        hit = segment_intersection(c1, chord(*c2, 0, shift=k))
        if hit is None:
            raise AssertionError("chords %r and %r shifted by %d do not cross"
                                 % (c1, c2, k))
        out.append(hit)
    return out

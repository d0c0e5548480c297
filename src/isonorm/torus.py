"""Constructive realizability of norm balls on the torus.

Every centrally symmetric lattice polygon with mod-2 congruent vertices is
a zonotope: the Minkowski sum of the symmetric segments spanned by half of
its (even) edge vectors.  Each segment [-w, w] is the dual ball of m
parallel geodesics in the primitive direction w/m, so the polygon is
realized by the corresponding multicurve and the norm is a weighted sum of
|det| pairings.

When the realizing collection has at least two distinct classes, every
curve crosses some other curve and the collection embeds as a 4-valent map
on the torus; :func:`realize_map` builds that map from the exact rational
crossings of straight geodesics, in closed form: directions d1, d2 cross
once per residue modulo det(d1, d2) (see :func:`_line_crossings`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import polytope
from .maps import MapError, from_strands, passages


class PolygonError(ValueError):
    pass


class TorusCollection:
    """Multiset of parallel-geodesic families: (primitive class, count),
    one family per unoriented class."""

    def __init__(self, families):
        fams = {}
        for c, m in families:
            c = tuple(int(x) for x in c)
            if len(c) != 2 or gcd(c[0], c[1]) != 1:
                raise ValueError("class %r is not primitive in Z^2" % (c,))
            if m < 1:
                raise ValueError("multiplicity must be positive")
            c = _half_plane(c)
            fams[c] = fams.get(c, 0) + int(m)
        self.families = tuple(sorted(fams.items()))

    def __eq__(self, other):
        return (isinstance(other, TorusCollection)
                and self.families == other.families)

    def __repr__(self):
        return "TorusCollection(%r)" % (self.families,)


def _half_plane(c):
    """Normal form of an unoriented class: first nonzero coordinate > 0."""
    if c[0] < 0 or (c[0] == 0 and c[1] < 0):
        return (-c[0], -c[1])
    return c


def check_polygon(p):
    """Diagnostics for the realizable-polygon preconditions."""
    out = []
    if p.ambient_dim != 2:
        out.append("polygon must live in Z^2")
        return out
    if not polytope.is_symmetric(p):
        out.append("polygon is not centrally symmetric")
    if not polytope.mod2_congruent(p):
        out.append("polygon vertices are not congruent mod 2")
    if len(p.vertices) == 1:
        out.append("polygon is a single point")
    return out


def zonotope_decompose(p):
    """Generators w_i with p = Minkowski sum of the segments [-w_i, w_i]."""
    diags = check_polygon(p)
    if diags:
        raise PolygonError("; ".join(diags))
    cycle = polytope._monotone_chain(p.vertices)  # CCW; a segment: 2 ends
    k = len(cycle)
    gens = []
    for i in range(k if k > 2 else 1):
        u, v = cycle[i], cycle[(i + 1) % k]
        e = (v[0] - u[0], v[1] - u[1])  # even: vertices agree mod 2
        w = _half_plane((e[0] // 2, e[1] // 2))
        if w != (0, 0) and w not in gens:
            gens.append(w)
    return sorted(gens)


def realize(p):
    """A torus multicurve whose dual unit ball is the polygon."""
    gens = zonotope_decompose(p)
    if not gens:
        raise PolygonError("degenerate polygon: nothing to realize")
    families = []
    for w in gens:
        m = gcd(w[0], w[1])
        u = (w[0] // m, w[1] // m)
        families.append(((u[1], -u[0]), m))
    return TorusCollection(families)


def torus_norm(collection, a):
    """Intersection norm of a class: sum of m * |det(c, a)|."""
    ax, ay = (int(x) for x in a)
    return sum(m * abs(c[0] * ay - c[1] * ax)
               for c, m in collection.families)


def realized_ball(collection):
    """Dual unit ball of the collection, as a Minkowski sum of segments."""
    ball = None
    for c, m in collection.families:
        seg = polytope.segment((m * c[1], -m * c[0]))
        ball = seg if ball is None else polytope.minkowski_sum(ball, seg)
    return ball


# ---------------------------------------------------------------------------
# Geometric realization as a combinatorial map
# ---------------------------------------------------------------------------

def realize_map(collection):
    """The collection as a 4-valent map on the torus, or None.

    A map needs every curve to carry a crossing, which holds exactly when
    there are at least two distinct (hence non-parallel) classes.  Curves
    are straight geodesics; parallel copies are offset by distinct
    fractions, and all crossings are computed exactly.
    """
    fams = collection.families
    if len(fams) < 2:
        return None
    dirs = [c for c, m in fams for _ in range(m)]
    # generic offsets avoid triple points and coincident parallel copies;
    # retry with a new salt on the (codimension-one) degenerate choices
    for salt in range(64):
        curves = [
            (d, (Fraction((t + 1) * (salt + 3), 997),
                 Fraction((t + 2) * (t + 2) + 5 * salt, 1013)))
            for t, d in enumerate(dirs)]
        try:
            signs, strands = passages(_line_crossings(curves), len(curves))
        except MapError:
            continue
        return from_strands(signs, strands)[0]
    raise AssertionError("no generic offset found")


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _line_crossings(curves):
    """All torus crossings as ((i, s), (j, t), sign) with curve parameters
    s, t in [0, 1).

    Curve i is o_i + s d_i.  Curve i meets the translate of curve j by a
    lattice vector w at s = det(r + w, d2) / det, t = det(r + w, d1) / det,
    with r = o2 - o1 and det = det(d1, d2); the torus crossings are these
    points mod 1.  With det(b, d2) = 1 every w is a b + k d2, and k only
    shifts t by an integer, so each residue a mod det gives one crossing.
    """
    crossings = []
    for i, (d1, o1) in enumerate(curves):
        for j in range(i + 1, len(curves)):
            d2, o2 = curves[j]
            det = _det(d1, d2)
            if det == 0:
                continue
            sign = 1 if det > 0 else -1
            x, y = d2
            p = pow(y, -1, abs(x)) if x else y  # p y = 1 mod x
            b = (p, (p * y - 1) // x if x else 0)  # det(b, d2) = 1
            r = (o2[0] - o1[0], o2[1] - o1[1])
            rs, rt, c = _det(r, d2), _det(r, d1), _det(b, d1)
            for a in range(abs(det)):
                crossings.append(((i, Fraction(rs + a, det) % 1),
                                  (j, Fraction(rt + a * c, det) % 1), sign))
    return crossings

"""Exact lattice-polytope kernel.

Polytopes are stored by their vertex set (integer vectors, sorted for
canonical equality).  All hull decisions are exact.  In the plane the hull
is an integer monotone chain (Andrew 1979).  In dimension d >= 3 a point is
a vertex iff it is not a convex combination of the other points, decided by
a phase-1 simplex over Fractions, the module's only Fraction arithmetic.
The dimension of a polytope is the rank of its vertices' differences from
one vertex, read from :func:`isonorm.homology.smith_normal_form`.
Intended scale: dimension at most 8 and a few hundred points.
"""

from __future__ import annotations

from fractions import Fraction

from . import homology


class DimensionError(ValueError):
    pass


class LatticePolytope:
    """Convex hull of integer vectors, stored by its vertex set."""

    def __init__(self, vertices):
        verts = sorted({tuple(int(x) for x in v) for v in vertices})
        if not verts:
            raise ValueError("a polytope needs at least one point")
        dims = {len(v) for v in verts}
        if len(dims) != 1:
            raise DimensionError("points of mixed dimension")
        self.ambient_dim = dims.pop()
        self.vertices = tuple(verts)

    @property
    def dim(self):
        """Dimension of the affine hull."""
        return _affine_rank(self.vertices)

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope)
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "LatticePolytope(%d vertices in Z^%d)" % (
            len(self.vertices), self.ambient_dim)


def _affine_rank(points):
    base = points[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in points[1:]]
    return len(homology.smith_normal_form(diffs)[0])


def in_convex_hull(point, points):
    """Exact membership of ``point`` in conv(points).

    Phase-1 simplex (Bland's rule) on the system
    sum(l_i * q_i) = p, sum(l_i) = 1, l >= 0.
    """
    points = list(points)
    if not points:
        return False
    n = len(point)
    m = n + 1
    k = len(points)
    # tableau rows: equality constraints, columns: k lambdas + m artificials
    a = [[Fraction(points[j][i]) for j in range(k)] for i in range(n)]
    a.append([Fraction(1)] * k)
    b = [Fraction(point[i]) for i in range(n)] + [Fraction(1)]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    for i in range(m):
        a[i] += [Fraction(int(i == j)) for j in range(m)]
    cost = [Fraction(0)] * k + [Fraction(1)] * m
    basis = list(range(k, k + m))
    # reduced costs: z_j - c_j with current basis (all artificial)
    while True:
        # compute reduced costs for nonbasic columns
        y = [cost[basis[i]] for i in range(m)]
        entering = None
        for j in range(k + m):
            if j in basis:
                continue
            red = sum(y[i] * a[i][j] for i in range(m)) - cost[j]
            if red > 0:
                entering = j
                break  # Bland: first improving column
        if entering is None:
            break
        # ratio test, Bland's rule on ties
        leaving = None
        best = None
        for i in range(m):
            if a[i][entering] > 0:
                ratio = b[i] / a[i][entering]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise AssertionError("phase-1 LP unbounded")
        piv = a[leaving][entering]
        a[leaving] = [x / piv for x in a[leaving]]
        b[leaving] /= piv
        for i in range(m):
            if i != leaving and a[i][entering]:
                f = a[i][entering]
                a[i] = [x - f * y2 for x, y2 in zip(a[i], a[leaving])]
                b[i] -= f * b[leaving]
        basis[leaving] = entering
    objective = sum(cost[basis[i]] * b[i] for i in range(m))
    return objective == 0


def convex_hull(points):
    """Minimal vertex set of the convex hull of integer points."""
    pts = LatticePolytope(points).vertices  # sorted, distinct, one dimension
    if len(pts[0]) == 2:
        return LatticePolytope(_monotone_chain(pts))
    verts = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not others or not in_convex_hull(p, others):
            verts.append(p)
    return LatticePolytope(verts)


def _monotone_chain(pts):
    """Hull vertices of sorted distinct points in Z^2.

    The lower and upper chains pop their last point unless the turn to the
    next one is strictly left (cross product > 0), so points on an edge are
    not vertices and a collinear set keeps only its two endpoints.
    """
    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                out.pop()
            out.append((x, y))
        return out

    if len(pts) <= 2:
        return pts
    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


def support(ball, a):
    """Support function of the ball at a: the norm of the class a.

    The ball must be centrally symmetric so that the support function is a
    (semi)norm.
    """
    if not is_symmetric(ball):
        raise ValueError("ball is not symmetric; not a norm ball")
    if len(a) != ball.ambient_dim:
        raise DimensionError("direction has wrong dimension")
    return max(sum(x * y for x, y in zip(v, a)) for v in ball.vertices)


def is_symmetric(p):
    vs = set(p.vertices)
    return all(tuple(-x for x in v) in vs for v in p.vertices)


def mod2_congruent(p):
    base = p.vertices[0]
    return all(all((x - y) % 2 == 0 for x, y in zip(v, base))
               for v in p.vertices[1:])


def minkowski_sum(p, q):
    if p.ambient_dim != q.ambient_dim:
        raise DimensionError("Minkowski sum of different ambient dimensions")
    sums = [tuple(x + y for x, y in zip(u, v))
            for u in p.vertices for v in q.vertices]
    return convex_hull(sums)


def segment(w):
    """The symmetric lattice segment [-w, w]."""
    return LatticePolytope([tuple(w), tuple(-x for x in w)])


def is_p8(p):
    """Membership in the family of symmetric sub-polytopes of the 4-cube
    with exactly eight vertices and non-empty interior."""
    if p.ambient_dim != 4:
        raise DimensionError("the eight-vertex cube test lives in Z^4")
    return (is_symmetric(p)
            and all(all(abs(x) <= 1 for x in v) for v in p.vertices)
            and len(p.vertices) == 8
            and p.dim == 4)


# ---------------------------------------------------------------------------
# Text format: one integer vector per line, '#' comments
# ---------------------------------------------------------------------------

def serialize_polytope(p, comment=None):
    lines = []
    if comment:
        lines.append("# " + comment)
    for v in p.vertices:
        lines.append(" ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"


def parse_polytope(text):
    points = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            points.append(tuple(int(t) for t in line.split()))
        except ValueError:
            raise ValueError("line %d: bad vector %r" % (lineno, line))
    if not points:
        raise ValueError("polytope file contains no points")
    return convex_hull(points)

"""Shared fixtures data and independent test oracles.

Oracles here deliberately avoid the library's own algorithms so that a bug
cannot hide on both sides of a comparison.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

from isonorm.coorient import CoOrientation, EulcoSet, is_eulerian
from isonorm.maps import CombinatorialMap, InvalidMap

FIXTURES = Path(__file__).parent / "fixtures"

# The four one-faced genus-2 collections, as arc words: each curve is a
# tuple of (arc letter, +-1 traversal sign, twists on the following
# connector).
WORD1 = ((("a1", 1, 0),), (("a2", 1, 0),), (("b1", 1, 0), ("b2", -1, 0)))
WORD2 = ((("a1", 1, 0), ("a2", -1, 0)), (("b1", 1, 0), ("b2", 1, 1)))
WORD3 = ((("a1", 1, 0),), (("b1", 1, 0), ("b2", 1, 1), ("a2", 1, 0)))
WORD4 = ((("a1", 1, 0), ("a2", -1, 0), ("b1", -1, 0), ("b2", 1, 1)),)
WORDS = (WORD1, WORD2, WORD3, WORD4)


def pm(vectors):
    """Close a vector list under negation."""
    out = set()
    for v in vectors:
        out.add(tuple(v))
        out.add(tuple(-x for x in v))
    return frozenset(out)


# Golden dual-ball vertex sets (acceptance reference data), in the
# coordinates of the WORDS maps' basis walks; each equals
# one_faced_ball_oracle on its map.
BALL1 = frozenset(product((-1, 1), repeat=4))
BALL2 = pm([(1, 1, 1, -1), (1, -1, 1, 1), (1, 1, 1, 1),
            (1, 1, -1, -1), (1, -1, -1, 1)])
BALL3 = pm([(1, 1, 1, -1), (1, -1, 1, -1), (1, 1, -1, -1),
            (-1, 1, 1, 1), (1, 1, 1, 1), (1, -1, 1, 1)])
BALL4 = pm([(1, 1, -1, -1), (1, -1, -1, 1), (1, -1, 1, 1),
            (1, 1, 1, 1), (-1, 1, 1, 1)])
GOLDEN_BALLS = (BALL1, BALL2, BALL3, BALL4)

INTRO_VECTORS = pm([(1, 1, 1, 1), (1, -1, 1, 1),
                    (-1, 1, 1, 1), (1, 1, -1, 1)])

STANDARD_SYMPLECTIC = ((0, 1, 0, 0), (-1, 0, 0, 0),
                       (0, 0, 0, 1), (0, 0, -1, 0))

# Small pinned maps --------------------------------------------------------

# one curve with a single self-crossing (V=1, F=3, sphere)
FIGURE_EIGHT = CombinatorialMap((1, 2, 3, 0), (1, 0, 3, 2))
# two simple curves crossing once (V=1, F=1, torus)
TORUS_CROSS = CombinatorialMap((1, 2, 3, 0), (2, 3, 0, 1))
# filling map with three faces that reduces to one face in two smoothings
REDUCIBLE_F3 = CombinatorialMap(
    (3, 2, 0, 1, 5, 7, 4, 6, 11, 8, 9, 10),
    (1, 0, 5, 8, 7, 2, 10, 4, 3, 11, 6, 9))
# two-faced map with every edge two-sided (even intersection norm)
EVEN_F2 = CombinatorialMap((3, 0, 1, 2, 6, 7, 5, 4),
                           (6, 4, 7, 5, 1, 3, 0, 2))

# vertex 0 between two vertices that each carry a loop: one smoothing at
# vertex 0 disconnects them, the other joins them (V=3, sphere)
CHAIN = CombinatorialMap((1, 2, 3, 0, 5, 6, 7, 4, 9, 10, 11, 8),
                         (4, 7, 8, 11, 0, 6, 5, 1, 2, 10, 9, 3))

# torus collections as (primitive class, multiplicity) families; their
# maps have 3 to 17 vertices
TORUS_FAMILIES = (
    (((1, 0), 1), ((0, 1), 1), ((1, 1), 1)),
    (((2, 1), 1), ((1, -1), 2), ((0, 1), 1)),
    (((1, 0), 2), ((0, 1), 2), ((1, 1), 1), ((1, -1), 1)),
    (((1, 2), 1), ((2, -1), 1), ((3, 1), 1)),
    (((1, 0), 1), ((1, 3), 2), ((2, 1), 1)),
)


def random_valid_map(rng, num_vertices):
    """A uniformly scrambled valid (connected) map with the given size."""
    n = 4 * num_vertices
    while True:
        rotation = [0] * n
        for v in range(num_vertices):
            order = list(range(4 * v, 4 * v + 4))
            rng.shuffle(order)
            for a, b in zip(order, order[1:] + order[:1]):
                rotation[a] = b
        ids = list(range(n))
        rng.shuffle(ids)
        pairing = [0] * n
        for i in range(0, n, 2):
            a, b = ids[i], ids[i + 1]
            pairing[a] = b
            pairing[b] = a
        try:
            return CombinatorialMap(tuple(rotation), tuple(pairing))
        except InvalidMap:
            pass


# Independent oracles ------------------------------------------------------

def det_fraction(mat):
    """Exact determinant by fraction-free Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def rank_fraction(rows):
    """Rank of an integer matrix by Fraction Gauss-Jordan elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0),
                   None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def determinantal_divisors(mat):
    """[D_1, ..., D_r] for an integer matrix of rank r (by
    ``rank_fraction``), D_k the gcd of its k x k minors (by
    ``det_fraction``).

    The Smith divisors are the ratios D_k / D_(k-1), with D_0 = 1.  By
    Laplace expansion D_(k-1) divides every k x k minor, so the scan of
    those minors stops once their gcd is down to D_(k-1).  Zero rows and
    columns give zero minors and are skipped.
    """
    rows = [i for i, row in enumerate(mat) if any(row)]
    cols = [j for j in range(len(mat[0]) if mat else 0)
            if any(row[j] for row in mat)]
    out = [1]
    for k in range(1, rank_fraction(mat) + 1):
        g = 0
        for rs, cs in product(combinations(rows, k), combinations(cols, k)):
            minor = det_fraction([[mat[i][j] for j in cs] for i in rs])
            g = gcd(g, int(minor))
            if g == out[-1]:
                break
        out.append(g)
    return out[1:]


def brute_force_eulerian(m):
    """All Eulerian co-orientations by filtering every 2^|E| assignment."""
    results = []
    for combo in product(*m.edges):
        if is_eulerian(m, combo):
            results.append(CoOrientation(m, combo))
    return EulcoSet(m, results)


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def hull_member_caratheodory(point, points):
    """Exact hull membership via Caratheodory simplices.

    A point lies in the hull iff it is a convex combination of an affinely
    independent subset of at most dim+1 points; independence makes the
    barycentric coordinates unique, so a plain linear solve decides each
    subset exactly.
    """
    dim = len(point)
    pts = list(points)
    for size in range(1, dim + 2):
        for subset in combinations(pts, size):
            # affine system: sum l_i q_i = p, sum l_i = 1
            rows = [[Fraction(q[c]) for q in subset] for c in range(dim)]
            rows.append([Fraction(1)] * size)
            # reduce to a square system on an independent row subset
            sol = _solve_least(rows, [Fraction(x) for x in point]
                               + [Fraction(1)])
            if sol is not None and all(l >= 0 for l in sol):
                return True
    return False


def _solve_least(rows, rhs):
    """Solve an overdetermined consistent system with unique solution.

    Returns None when inconsistent or underdetermined (affinely dependent
    subset: skipped, a smaller subset covers that case).
    """
    ncols = len(rows[0])
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(aug)) if aug[r][col] != 0),
                   None)
        if piv is None:
            return None  # underdetermined in this column
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][col]
        aug[rank] = [x * inv for x in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[rank])]
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][ncols] != 0:
            return None  # inconsistent
    return [aug[i][ncols] for i in range(ncols)]


def hull_vertices_oracle(points):
    """Vertex set of conv(points) via the Caratheodory membership test."""
    pts = sorted(set(points))
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not others or not hull_member_caratheodory(p, others):
            out.append(p)
    return tuple(out)


def one_faced_ball_oracle(m, walks):
    """Vertex set of the dual ball of a one-faced map, from cocycles alone.

    With one face every edge step is a closed dual walk, so any sequence of
    steps is one too and ||a|| is the least sum |n_e| over all ways of
    writing a = sum n_e h_e, h_e the class of the step across edge e.  By
    LP duality the dual ball is {cocycles s : |s_e| <= 1 on every edge}
    (with one face the only coboundary is zero, so cocycles are classes);
    the cocycle constraints (signed germ sum zero around each vertex) form a
    directed incidence matrix, which is totally unimodular, so the ball's
    vertices are images of cocycles in {-1, 0, 1}^E.  The oracle keeps the
    images whose coordinates are all +-1 and checks that every other image
    lies in their hull.  The ball then sits inside the cube [-1, 1]^k, and a
    cube corner in it is a vertex of it, so the +-1 images are exactly the
    ball's vertices.  Raises ValueError when the check fails.
    """
    edges = [(h, m.pairing[h]) for h in range(m.n) if h < m.pairing[h]]
    images = set()
    for values in product((-1, 0, 1), repeat=len(edges)):
        cochain = [0] * m.n
        for (a, b), x in zip(edges, values):
            cochain[a], cochain[b] = x, -x
        if any(sum(cochain[h] for h in orb) for orb in m.vertices):
            continue
        images.add(tuple(sum(cochain[h] for h in w) for w in walks))
    corners = frozenset(p for p in images if all(abs(x) == 1 for x in p))
    for p in images - corners:
        if not hull_member_caratheodory(p, corners):
            raise ValueError("image %r lies outside the hull of the +-1 "
                             "images" % (p,))
    return corners


def strand_count_oracle(m):
    """Number of curves by tracing 'go straight' transitions directly."""
    unused = set(range(m.n))
    count = 0
    while unused:
        count += 1
        h = min(unused)
        while h in unused:
            unused.discard(h)
            unused.discard(m.pairing[h])
            g = m.pairing[h]
            h = m.rotation[m.rotation[g]]
    return count

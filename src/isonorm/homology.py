"""Dual-graph homology of a filling map.

Transverse closed curves are encoded as *dual walks*: cyclic sequences of
half-edge steps.  A step ``h`` crosses the edge containing ``h`` from the
face on the right of ``h`` to the face on its left (half-edges point away
from their vertex).  With the face convention of :mod:`isonorm.maps`, a step
``h`` therefore leaves ``face_of[h]`` and enters ``face_of[pairing[h]]``.

Integer cochains assign a value to each crossing direction, i.e. an
antisymmetric integer per half-edge.  Eulerian co-orientations are the
+-1-valued cocycles (see :mod:`isonorm.coorient`).
"""

from __future__ import annotations

from fractions import Fraction

from .maps import MapError, check_valid


class WalkError(Exception):
    """Raised for walks that are not closed dual walks of the map."""


# ---------------------------------------------------------------------------
# Walks
# ---------------------------------------------------------------------------

def check_walk(m, walk):
    """Validate a closed dual walk (consecutive steps share a face)."""
    for h in walk:
        if not (0 <= h < m.n):
            raise WalkError("step %r is not a half-edge" % (h,))
    k = len(walk)
    for i in range(k):
        entered = m.face_of[m.pairing[walk[i]]]
        left = m.face_of[walk[(i + 1) % k]]
        if entered != left:
            raise WalkError(
                "steps %d and %d do not share a face" % (i, (i + 1) % k))


def reverse_walk(m, walk):
    return tuple(m.pairing[h] for h in reversed(walk))


def vertex_circle(m, v):
    """Small CCW circle around vertex v, as a dual walk."""
    return tuple(m.vertices[v])


def walk_from_edge_steps(m, steps):
    """Convert (edge_index, +1|-1) steps to half-edge steps.

    +1 crosses right-to-left of the edge's first (smaller) half-edge.
    """
    out = []
    for e, s in steps:
        a, b = m.edges[e]
        out.append(a if s > 0 else b)
    return tuple(out)


def walk_to_edge_steps(m, walk):
    out = []
    for h in walk:
        e = m.edge_index(h)
        out.append((e, 1 if m.edges[e][0] == h else -1))
    return out


# ---------------------------------------------------------------------------
# Cochains
# ---------------------------------------------------------------------------

def check_cochain(m, cochain):
    if len(cochain) != m.n:
        raise ValueError("cochain must assign a value to every half-edge")
    for h in range(m.n):
        if cochain[h] != -cochain[m.pairing[h]]:
            raise ValueError(
                "cochain is not antisymmetric on edge of half-edge %d" % h)


def evaluate(m, cochain, walk):
    """Signed sum of the cochain over the steps of a dual walk."""
    check_cochain(m, cochain)
    check_walk(m, walk)
    return sum(cochain[h] for h in walk)


def is_cocycle(m, cochain):
    check_cochain(m, cochain)
    return all(sum(cochain[h] for h in orb) == 0 for orb in m.vertices)


def coboundary(m, potentials):
    """The cochain d(potentials) for a per-face integer potential."""
    return [potentials[m.face_of[m.pairing[h]]] - potentials[m.face_of[h]]
            for h in range(m.n)]


def class_of(m, cochain, basis):
    """Evaluations of a cocycle on the basis walks."""
    if not is_cocycle(m, cochain):
        raise ValueError("cochain is not a cocycle (vertex condition fails)")
    walks = basis.walks if isinstance(basis, HomologyBasis) else basis
    return tuple(sum(cochain[h] for h in w) for w in walks)


# ---------------------------------------------------------------------------
# Dual graph
# ---------------------------------------------------------------------------

class DualGraph:
    """Nodes are faces; one link per edge joining its two adjacent faces."""

    def __init__(self, m):
        check_valid(m)
        self.map = m
        self.num_nodes = len(m.faces)
        # link i corresponds to edge i = (a, b); crossing right-to-left of a
        # goes from face_of[a] to face_of[b]
        self.links = tuple((m.face_of[a], m.face_of[b]) for a, b in m.edges)

    def __repr__(self):
        return "DualGraph(nodes=%d, links=%d)" % (self.num_nodes,
                                                  len(self.links))


def dual_graph(m):
    return DualGraph(m)


# ---------------------------------------------------------------------------
# Integer linear algebra (exact, arbitrary precision)
# ---------------------------------------------------------------------------

def smith_normal_form(mat):
    """Return (U, D, V) with U*mat*V = D in Smith normal form.

    U and V are unimodular; D is diagonal with d_i | d_{i+1}.  Matrices are
    lists of lists of Python ints.  The elimination also carries U^-1; see
    :func:`_smith`.
    """
    return _smith(mat)[:3]


def _smith(mat):
    """Return (U, D, V, U^-1) with U*mat*V = D in Smith normal form.

    U^-1 is kept beside U through the elimination: subtracting q times
    row j from row i of U adds q times column i to column j of U^-1, and
    a row swap or negation of U is the same column swap or negation of
    U^-1.  The columns of U^-1 are stored as rows and transposed at the
    end.
    """
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    uinv_cols = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        uinv_cols[j] = [x + q * y for x, y in zip(uinv_cols[j], uinv_cols[i])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            a[r][i] -= q * a[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        uinv_cols[i], uinv_cols[j] = uinv_cols[j], uinv_cols[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # find a pivot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # ensure divisibility of the remaining block
        recheck = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    row_op(t, i, -1)
                    recheck = True
                    break
            if recheck:
                break
        if recheck:
            continue
        if a[t][t] < 0:
            for k in range(cols):
                a[t][k] = -a[t][k]
            for k in range(rows):
                u[t][k] = -u[t][k]
                uinv_cols[t][k] = -uinv_cols[t][k]
        t += 1
    return u, a, v, [list(r) for r in zip(*uinv_cols)]


def integer_inverse(mat):
    """Exact inverse of a unimodular integer matrix, by Fraction
    Gauss-Jordan elimination.

    The library reads U^-1 from :func:`_smith` instead; this independent
    inverse checks it in the tests and stays traceable by name for
    ``perfbench``.
    """
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    for row in out:
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


# ---------------------------------------------------------------------------
# Homology basis
# ---------------------------------------------------------------------------

class HomologyBasis:
    """2g dual walks generating H_1 of the surface, with a certificate.

    ``cycle_coords`` expresses each walk in the fundamental-cycle basis of
    the dual graph; ``boundary`` holds the vertex-circle boundary vectors.
    The walks generate the quotient iff the matrix stacking both has all
    elementary divisors equal to 1, which is checked at construction.
    """

    def __init__(self, m, walks, cycle_coords, boundary, divisors):
        self.map = m
        self.walks = tuple(tuple(w) for w in walks)
        self.cycle_coords = cycle_coords
        self.boundary = boundary
        self.divisors = divisors

    def __len__(self):
        return len(self.walks)


def _spanning_tree(dg):
    """BFS spanning tree from node 0, exploring links in id order.

    Returns (parent_step, tree_links) where parent_step[node] is the
    half-edge step crossing from the parent toward the node.
    """
    from collections import deque

    m = dg.map
    incident = [[] for _ in range(dg.num_nodes)]
    for e, (a, b) in enumerate(dg.links):
        ha, hb = m.edges[e]
        incident[a].append((e, b, ha))   # step ha crosses a -> b
        incident[b].append((e, a, hb))
    parent_step = [None] * dg.num_nodes
    seen = [False] * dg.num_nodes
    seen[0] = True
    tree = set()
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for e, other, step in incident[node]:
            if not seen[other]:
                seen[other] = True
                parent_step[other] = step
                tree.add(e)
                queue.append(other)
    if not all(seen):
        raise MapError("dual graph is disconnected")
    return parent_step, tree


def _path_to_root(dg, parent_step, node):
    """Steps crossing from ``node`` back to the root along the tree."""
    m = dg.map
    steps = []
    while parent_step[node] is not None:
        step_in = parent_step[node]          # crosses parent -> node
        steps.append(m.pairing[step_in])     # crosses node -> parent
        node = m.face_of[step_in]
    return steps


def _fundamental_cycle_walk(dg, parent_step, e):
    """Closed walk at the root: root -> face(a), cross e, face(b) -> root."""
    m = dg.map
    ha, hb = m.edges[e]
    to_a = list(reversed([m.pairing[s] for s in
                          _path_to_root(dg, parent_step, m.face_of[ha])]))
    back = _path_to_root(dg, parent_step, m.face_of[hb])
    return tuple(to_a + [ha] + back)


def walk_cycle_coords(m, walk, nontree):
    """Net signed crossings of the walk over each non-tree edge."""
    coords = [0] * len(nontree)
    index = {e: i for i, e in enumerate(nontree)}
    for h in walk:
        e = m.edge_index(h)
        if e in index:
            coords[index[e]] += 1 if m.edges[e][0] == h else -1
    return coords


def homology_basis(m):
    """Deterministic basis of H_1(surface) as 2g dual walks."""
    check_valid(m)
    dg = dual_graph(m)
    parent_step, tree = _spanning_tree(dg)
    nontree = [e for e in range(len(dg.links)) if e not in tree]
    mu = len(nontree)
    g = m.genus
    # boundary vectors: vertex circles in fundamental-cycle coordinates
    boundary = [walk_cycle_coords(m, vertex_circle(m, v), nontree)
                for v in range(m.num_vertices)]
    if mu == 0:
        # tree-like dual graph: only possible on the sphere (empty basis)
        if g != 0:
            raise AssertionError("tree-like dual graph on genus %d" % g)
        return HomologyBasis(m, (), [], boundary, [])
    bmat = [[boundary[v][i] for v in range(m.num_vertices)]
            for i in range(mu)]  # mu x V, columns are boundaries
    _, d, _, uinv = _smith(bmat)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    divisors = [d[i][i] for i in range(rank)]
    if any(x != 1 for x in divisors):
        raise AssertionError("surface homology has torsion: %r" % divisors)
    if mu - rank != 2 * g:
        raise AssertionError("homology rank %d != 2g = %d"
                             % (mu - rank, 2 * g))
    cycles = [_fundamental_cycle_walk(dg, parent_step, e) for e in nontree]
    walks = []
    coords = []
    for j in range(rank, mu):
        combo = [uinv[i][j] for i in range(mu)]
        w = []
        for i, c in enumerate(combo):
            piece = cycles[i] if c > 0 else reverse_walk(m, cycles[i])
            for _ in range(abs(c)):
                w.extend(piece)
        check_walk(m, tuple(w))
        walks.append(tuple(w))
        coords.append(combo)
    basis = HomologyBasis(m, walks, coords, boundary, divisors)
    _check_basis_certificate(basis, mu)
    return basis


def _check_basis_certificate(basis, mu):
    stacked = [row[:] for row in basis.cycle_coords] + \
              [row[:] for row in basis.boundary]
    _, d, _ = smith_normal_form(stacked)
    divs = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    nonzero = [x for x in divs if x != 0]
    if len(nonzero) != mu or any(x != 1 for x in nonzero):
        raise AssertionError("basis walks do not generate H_1: %r" % divs)


# ---------------------------------------------------------------------------
# Intersection form
# ---------------------------------------------------------------------------

def _transits(m, walks):
    """Realize walks as chords inside faces.

    Each step gets a globally unique crossing parameter on its edge; a
    transit is (face, entry position, exit position) with positions given as
    (occurrence index in the face orbit, parameter along that half-edge).
    """
    total = sum(len(w) for w in walks)
    pos_in_face = {}
    for f, orb in enumerate(m.faces):
        for idx, h in enumerate(orb):
            pos_in_face[h] = idx
    out = []
    counter = 0
    for w in walks:
        transits = []
        k = len(w)
        params = []
        for h in w:
            counter += 1
            params.append(Fraction(counter, total + 1))
        for i in range(k):
            h_in = w[i]
            h_out = w[(i + 1) % k]
            lam_in = params[i]
            lam_out = params[(i + 1) % k]
            f = m.face_of[m.pairing[h_in]]
            entry = (pos_in_face[m.pairing[h_in]], 1 - lam_in)
            exit_ = (pos_in_face[h_out], lam_out)
            transits.append((f, entry, exit_))
        out.append(transits)
    return out


def _cyclic_less(a, b, c):
    """True if b lies strictly inside the cyclic interval (a, c)."""
    if a < c:
        return a < b < c
    return b > a or b < c


def _transit_crossing(t1, t2):
    """Signed crossing of two directed chords in a face polygon.

    The face orbit traverses the boundary clockwise (faces lie to the right
    of their half-edges), so an interleaving pattern P1,P2,Q1,Q2 along the
    orbit order contributes -1.
    """
    f1, p1, q1 = t1
    f2, p2, q2 = t2
    if f1 != f2:
        return 0
    in1 = _cyclic_less(p1, p2, q1)
    in2 = _cyclic_less(p1, q2, q1)
    if in1 == in2:
        return 0
    return -1 if in1 else 1


def intersection_form(m, basis):
    """Matrix of algebraic intersections of the basis walks."""
    walks = basis.walks if isinstance(basis, HomologyBasis) else basis
    for w in walks:
        check_walk(m, w)
    realized = _transits(m, walks)
    k = len(walks)
    form = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            s = 0
            for t1 in realized[i]:
                for t2 in realized[j]:
                    s += _transit_crossing(t1, t2)
            form[i][j] = s
            form[j][i] = -s
    return form

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


def check_steps(m, walks):
    """Raise ValueError unless every step of every walk is a half-edge;
    the walks may otherwise be any half-edge sequences."""
    for i, w in enumerate(walks):
        for h in w:
            if not 0 <= h < m.n:
                raise ValueError("walk %d: step %r is not a half-edge"
                                 % (i, h))


def class_of(m, cochain, basis):
    """Evaluations of a cocycle on the basis walks."""
    if not is_cocycle(m, cochain):
        raise ValueError("cochain is not a cocycle (vertex condition fails)")
    walks = tuple(basis)
    check_steps(m, walks)
    return tuple(sum(cochain[h] for h in w) for w in walks)


# ---------------------------------------------------------------------------
# Integer linear algebra (exact, arbitrary precision)
# ---------------------------------------------------------------------------

def smith_normal_form(mat):
    """Return (divisors, U^-1) for the Smith normal form U*mat*V = D.

    U and V are unimodular and D is diagonal with d_i | d_{i+1}; divisors
    are the non-zero d_i in order, so their number is the rank of mat.
    Matrices are lists of lists of Python ints.  Only U^-1 is built:
    subtracting q times row j from row i of U adds q times column i to
    column j of U^-1, and a row swap or negation of U is the same column
    swap or negation of U^-1.  The columns of U^-1 are stored as rows and
    transposed at the end.

    Column t is cleared before row t is swept, so that a Euclid row swap
    never leaves the old pivot in column t for the column operations to
    spread into other rows; without it the entries grow without bound on
    some dense 6x6 inputs.
    """
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    uinv_cols = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def row_op(i, j, q):  # row_i -= q * row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        uinv_cols[j] = [x + q * y for x, y in zip(uinv_cols[j], uinv_cols[i])]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        uinv_cols[i], uinv_cols[j] = uinv_cols[j], uinv_cols[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(rows, cols):
        pivot = next(((i, j) for i in range(t, rows) for j in range(t, cols)
                      if a[i][j]), None)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_op(i, t, a[i][t] // a[t][t])
                    if a[i][t]:
                        swap_rows(t, i)
                        done = False
            if not done:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:  # col_j -= q * col_t
                        row[j] -= q * row[t]
                    if a[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        # ensure divisibility of the remaining block; a unit pivot
        # divides every entry (boundary matrices have only unit pivots)
        if a[t][t] not in (1, -1):
            bad = next((i for i in range(t + 1, rows)
                        for j in range(t + 1, cols) if a[i][j] % a[t][t]),
                       None)
            if bad is not None:
                row_op(t, bad, -1)
                continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            uinv_cols[t] = [-x for x in uinv_cols[t]]
        t += 1
    return [a[i][i] for i in range(t)], [list(r) for r in zip(*uinv_cols)]


def integer_inverse(mat):
    """Exact inverse of a unimodular integer matrix, by Fraction
    Gauss-Jordan elimination.

    The library reads U^-1 from :func:`smith_normal_form` instead; this
    independent inverse checks it in the tests and stays traceable by name
    for ``perfbench``.
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


# ---------------------------------------------------------------------------
# Homology basis
# ---------------------------------------------------------------------------

class HomologyBasis:
    """2g dual walks whose classes form a basis of H_1(surface; Z).

    :func:`homology_basis` reads them from one :func:`smith_normal_form`
    of the mu x V vertex-boundary matrix: the columns of U^-1 past its
    rank, spelled out over the fundamental cycles.  It certifies the basis
    before returning it: 2g classes form a basis exactly when their
    intersection form is unimodular.
    """

    def __init__(self, walks):
        self.walks = tuple(tuple(w) for w in walks)

    def __len__(self):
        return len(self.walks)

    def __iter__(self):
        return iter(self.walks)


def _spanning_tree(m):
    """BFS spanning tree of the dual graph from face 0, exploring edges
    in id order.

    The dual graph has the faces as nodes and one link per edge.  Returns
    (parent_step, nontree) where parent_step[face] is the half-edge step
    crossing from the parent toward the face and nontree lists the edges
    off the tree in id order.
    """
    from collections import deque

    num_faces = len(m.faces)
    incident = [[] for _ in range(num_faces)]
    for e, (ha, hb) in enumerate(m.edges):
        a, b = m.face_of[ha], m.face_of[hb]
        incident[a].append((e, b, ha))   # step ha crosses a -> b
        incident[b].append((e, a, hb))
    parent_step = [None] * num_faces
    seen = [False] * num_faces
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
    return parent_step, [e for e in range(m.num_edges) if e not in tree]


def _path_to_root(m, parent_step, node):
    """Steps crossing from face ``node`` back to the root along the tree."""
    steps = []
    while parent_step[node] is not None:
        step_in = parent_step[node]          # crosses parent -> node
        steps.append(m.pairing[step_in])     # crosses node -> parent
        node = m.face_of[step_in]
    return steps


def _fundamental_cycle_walk(m, parent_step, e):
    """Closed walk at the root: root -> face(a), cross e, face(b) -> root."""
    ha, hb = m.edges[e]
    to_a = list(reversed([m.pairing[s] for s in
                          _path_to_root(m, parent_step, m.face_of[ha])]))
    back = _path_to_root(m, parent_step, m.face_of[hb])
    return tuple(to_a + [ha] + back)


def _vertex_boundaries(m, nontree):
    """mu x V matrix whose column v is the vertex circle of v in
    fundamental-cycle coordinates (its net signed crossings of each
    non-tree edge)."""
    index = {e: i for i, e in enumerate(nontree)}
    bmat = [[0] * m.num_vertices for _ in nontree]
    for v, orb in enumerate(m.vertices):
        for h in orb:
            e = m.edge_index(h)
            i = index.get(e)
            if i is not None:
                bmat[i][v] += 1 if m.edges[e][0] == h else -1
    return bmat


def homology_basis(m):
    """Deterministic basis of H_1(surface) as 2g dual walks; a tree dual
    graph (mu = 0) gives an empty matrix and the empty basis."""
    parent_step, nontree = _spanning_tree(m)
    mu = len(nontree)
    g = m.genus
    divisors, uinv = smith_normal_form(_vertex_boundaries(m, nontree))
    rank = len(divisors)
    if any(x != 1 for x in divisors):
        raise AssertionError("surface homology has torsion: %r" % divisors)
    if mu - rank != 2 * g:
        raise AssertionError("homology rank %d != 2g = %d"
                             % (mu - rank, 2 * g))
    cycles = [_fundamental_cycle_walk(m, parent_step, e) for e in nontree]
    walks = []
    for j in range(rank, mu):
        w = []
        for i, cycle in enumerate(cycles):
            c = uinv[i][j]
            piece = cycle if c > 0 else reverse_walk(m, cycle)
            for _ in range(abs(c)):
                w.extend(piece)
        walks.append(tuple(w))
    _check_unimodular(m, walks)
    return HomologyBasis(walks)


def _check_unimodular(m, walks):
    """Raise AssertionError unless the walks' classes form a basis of
    H_1, i.e. their intersection form has all elementary divisors 1.

    ``intersection_form`` checks that every walk is a closed dual walk.
    """
    divisors, _ = smith_normal_form(intersection_form(m, walks))
    if divisors != [1] * len(walks):
        raise AssertionError("basis walks do not generate H_1: intersection"
                             " form has elementary divisors %r" % divisors)


# ---------------------------------------------------------------------------
# Intersection form
# ---------------------------------------------------------------------------

def _transits(m, walks):
    """Realize walks as chords inside faces.

    Each step gets a globally unique crossing parameter on its edge; a
    transit is (face, entry position, exit position) with positions given as
    (occurrence index in the face orbit, parameter along that half-edge).
    Step c of the T steps of all walks (counted from 1) crosses its edge
    c / (T + 1) of the way along its half-edge; parameters are scaled by
    T + 1, so that is c along the half-edge and T + 1 - c along its pair.
    """
    total = sum(len(w) for w in walks)
    pos_in_face = {}
    for f, orb in enumerate(m.faces):
        for idx, h in enumerate(orb):
            pos_in_face[h] = idx
    out = []
    first = 1  # step number of the walk's first step
    for w in walks:
        k = len(w)
        transits = []
        for i in range(k):
            h_in = w[i]
            h_out = w[(i + 1) % k]
            f = m.face_of[m.pairing[h_in]]
            entry = (pos_in_face[m.pairing[h_in]], total + 1 - (first + i))
            exit_ = (pos_in_face[h_out], first + (i + 1) % k)
            transits.append((f, entry, exit_))
        out.append(transits)
        first += k
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
    walks = tuple(basis)
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

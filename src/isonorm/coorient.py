"""Eulerian co-orientations of a 4-valent map.

A co-orientation picks a positive crossing direction for every edge.  It is
stored as the *designated* half-edge of each edge: the positive direction
crosses from the right of that half-edge to its left.  The small CCW circle
around a vertex then crosses an incident edge positively exactly when the
germ at that vertex is the designated one, so the Eulerian condition (two
positive, two negative crossings per vertex circle) reads: every vertex has
exactly two designated germs among its four.
"""

from __future__ import annotations

from .maps import check_valid
from . import homology


class CoOrientation:
    """Per-edge transverse direction; ``designated[e]`` is a half-edge of
    edge ``e`` whose left side is the positive side."""

    def __init__(self, m, designated):
        self.map = m
        self.designated = tuple(designated)
        if len(self.designated) != m.num_edges:
            raise ValueError("need one designated half-edge per edge")
        for e, h in enumerate(self.designated):
            if m.edge_index(h) != e:
                raise ValueError(
                    "half-edge %d does not belong to edge %d" % (h, e))

    def signs(self):
        """Antisymmetric +-1 cochain over half-edges."""
        s = [0] * self.map.n
        for h in self.designated:
            s[h] = 1
            s[self.map.pairing[h]] = -1
        return s

    def reversed(self):
        return CoOrientation(
            self.map, tuple(self.map.pairing[h] for h in self.designated))

    def __eq__(self, other):
        return (isinstance(other, CoOrientation)
                and self.map is other.map
                and self.designated == other.designated)

    def __hash__(self):
        return hash(self.designated)

    def __repr__(self):
        return "CoOrientation(%r)" % (self.designated,)


def is_eulerian(m, nu):
    """True iff every vertex has exactly 2 positive incident crossings."""
    designated = set(nu.designated if isinstance(nu, CoOrientation) else nu)
    return all(sum(1 for h in orb if h in designated) == 2
               for orb in m.vertices)


def vertex_type(m, nu, v):
    """Classify an Eulerian co-orientation at vertex v.

    Returns "alternating" when the circle signs alternate (+ - + -) around
    the vertex, "non-alternating" when they pair up (+ + - -): in the latter
    case the two arcs of each strand through v are co-oriented the same way.
    """
    if not (0 <= v < m.num_vertices):
        raise ValueError("vertex %d out of range" % v)
    if not is_eulerian(m, nu):
        raise ValueError("co-orientation is not Eulerian")
    designated = set(nu.designated if isinstance(nu, CoOrientation) else nu)
    orb = m.vertices[v]
    signs = [h in designated for h in orb]
    # the two strands through v use the rotation-opposite germ pairs
    # (0, 2) and (1, 3); a strand alternates iff its germ flags agree
    return "alternating" if signs[0] == signs[2] else "non-alternating"


def from_curve_orientations(m, flips=None):
    """Co-orientation induced by orienting every curve of the map.

    Each edge's designated half-edge is the one pointing along the curve's
    traversal direction; ``flips`` optionally reverses individual curves by
    strand index.  The result is Eulerian with all vertices non-alternating.
    """
    from .maps import curves

    flips = set(flips or ())
    designated = [None] * m.num_edges
    for i, strand in enumerate(curves(m)):
        for h in strand:
            g = m.pairing[h] if i in flips else h
            designated[m.edge_index(h)] = g
    return CoOrientation(m, designated)


def enumerate_eulerian(m):
    """All Eulerian co-orientations, by backtracking over edges.

    Edges are decided in order of first incidence along a BFS of the map;
    a partial assignment is pruned as soon as some vertex can no longer end
    up with exactly two designated germs.
    """
    check_valid(m)
    order = _edge_decision_order(m)
    ne = m.num_edges
    # per-vertex counters: designated germs so far, germs still undecided
    designated_count = [0] * m.num_vertices
    undecided = [4] * m.num_vertices
    choice = [None] * ne
    results = []

    def vertex_ok(v):
        d = designated_count[v]
        return d <= 2 and d + undecided[v] >= 2

    def place(e, h):
        a, b = m.edges[e]
        choice[e] = h
        for g in (a, b):
            undecided[m.vertex_of[g]] -= 1
        designated_count[m.vertex_of[h]] += 1

    def unplace(e, h):
        a, b = m.edges[e]
        choice[e] = None
        for g in (a, b):
            undecided[m.vertex_of[g]] += 1
        designated_count[m.vertex_of[h]] -= 1

    def rec(i):
        if i == ne:
            results.append(CoOrientation(m, list(choice)))
            return
        e = order[i]
        for h in m.edges[e]:
            place(e, h)
            a, b = m.edges[e]
            if vertex_ok(m.vertex_of[a]) and vertex_ok(m.vertex_of[b]):
                rec(i + 1)
            unplace(e, h)

    rec(0)
    return EulcoSet(m, results)


def _edge_decision_order(m):
    from collections import deque

    seen_e = set()
    order = []
    seen_v = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for h in m.vertices[v]:
            e = m.edge_index(h)
            if e not in seen_e:
                seen_e.add(e)
                order.append(e)
            w = m.vertex_of[m.pairing[h]]
            if w not in seen_v:
                seen_v.add(w)
                queue.append(w)
    return order


def brute_force_eulerian(m):
    """All Eulerian co-orientations by filtering every 2^|E| assignment."""
    from itertools import product

    check_valid(m)
    results = []
    for combo in product(*m.edges):
        if is_eulerian(m, combo):
            results.append(CoOrientation(m, combo))
    return EulcoSet(m, results)


class EulcoSet:
    """The complete set of Eulerian co-orientations of one map."""

    def __init__(self, m, items):
        self.map = m
        self.items = tuple(items)

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def classes(self, basis):
        """Deduplicated cohomology classes over a homology basis."""
        return {homology.class_of(self.map, nu.signs(), basis)
                for nu in self.items}


def eulco_classes(m, basis=None):
    """The set [Eulco] of cohomology class vectors of the map."""
    if basis is None:
        basis = homology.homology_basis(m)
    return enumerate_eulerian(m).classes(basis)


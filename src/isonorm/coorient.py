"""Eulerian co-orientations of a 4-valent map.

A co-orientation picks a positive crossing direction for every edge.  It is
stored as the *designated* half-edge of each edge: the positive direction
crosses from the right of that half-edge to its left.  The small CCW circle
around a vertex then crosses an incident edge positively exactly when the
germ at that vertex is the designated one, so the Eulerian condition (two
positive, two negative crossings per vertex circle) reads: every vertex has
exactly two designated germs among its four.

The class set [Eulco] comes from ``eulco_classes``, a frontier dynamic
programme over the edges that never builds a co-orientation.  The norm's
parity needs no co-orientation at all: every co-orientation gives each
walk step +1 or -1, so class coordinate i is congruent to the length of
walk i mod 2 (``moves.norm_parity``).
``enumerate_eulerian`` (backtracking) lists the co-orientations themselves;
the library does not call it, and the tests keep it as an oracle for the
class set.
"""

from __future__ import annotations

from collections import Counter
from operator import add

from . import homology

# the most frontiers ``eulco_classes`` keeps after any edge; the census
# maps need at most 4 and the torus maps of the tests at most 6,758,
# while a 42-vertex torus map that needs 814,152 runs for 43 s
MAX_FRONTIERS = 100_000


class FrontierLimit(ValueError):
    """Raised when the class-set search outgrows MAX_FRONTIERS."""


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

    def __repr__(self):
        return "CoOrientation(%r)" % (self.designated,)


def is_eulerian(m, designated):
    """True iff every vertex holds exactly 2 designated half-edges."""
    designated = set(designated)
    return all(sum(1 for h in orb if h in designated) == 2
               for orb in m.vertices)


def vertex_type(m, designated, v):
    """Classify an Eulerian co-orientation, given by its designated
    half-edges, at vertex v.

    Returns "alternating" when the circle signs alternate (+ - + -) around
    the vertex, "non-alternating" when they pair up (+ + - -): in the latter
    case the two arcs of each strand through v are co-oriented the same way.
    """
    if not (0 <= v < m.num_vertices):
        raise ValueError("vertex %d out of range" % v)
    designated = set(designated)
    if not is_eulerian(m, designated):
        raise ValueError("co-orientation is not Eulerian")
    orb = m.vertices[v]
    signs = [h in designated for h in orb]
    # the two strands through v use the rotation-opposite germ pairs
    # (0, 2) and (1, 3); a strand alternates iff its germ flags agree
    return "alternating" if signs[0] == signs[2] else "non-alternating"


def enumerate_eulerian(m):
    """All Eulerian co-orientations, by backtracking over edges.

    Edges are decided in order of first incidence along a BFS of the map;
    a partial assignment is pruned as soon as some vertex can no longer end
    up with exactly two designated germs.
    """
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


def eulco_classes(m, basis):
    """The set [Eulco] of cohomology class vectors of the map.

    A frontier dynamic programme over the edges, in the order
    ``enumerate_eulerian`` decides them.  Designating half-edge ``a`` of edge
    ``(a, b)`` adds ``c[i] = w_i.count(a) - w_i.count(b)`` to coordinate i of
    the class vector, designating ``b`` adds ``-c[i]``; the walks may be any
    half-edge sequences.  A state is the designated-germ count of every open
    vertex (some germs decided, some not) plus the partial class vector;
    equal states merge, so the work follows the number of distinct states,
    not the number of Eulerian co-orientations.  Raises FrontierLimit
    when more than MAX_FRONTIERS frontiers are open after some edge.
    """
    walks = tuple(basis)
    homology.check_steps(m, walks)
    steps = [Counter(w) for w in walks]
    vertex_of = m.vertex_of
    undecided = [4] * m.num_vertices
    # frontier (an int with the count of vertex v in bits 2v, 2v+1; closed
    # and unopened vertices read 0) -> partial class vectors
    states = {0: {(0,) * len(steps)}}
    for e in _edge_decision_order(m):
        a, b = m.edges[e]
        ends = {vertex_of[a], vertex_of[b]}
        for g in (a, b):
            undecided[vertex_of[g]] -= 1
        c = tuple(s[a] - s[b] for s in steps)
        choices = ((vertex_of[a], c), (vertex_of[b], tuple(-x for x in c)))
        nxt = {}
        for frontier, vectors in states.items():
            for v, delta in choices:
                f = _designate(frontier, v, ends, undecided)
                if f is None:
                    continue
                if any(delta):
                    shifted = {tuple(map(add, x, delta)) for x in vectors}
                else:
                    shifted = vectors
                nxt.setdefault(f, set()).update(shifted)
        if len(nxt) > MAX_FRONTIERS:
            raise FrontierLimit("the class set needs more than %d frontier "
                                "states" % MAX_FRONTIERS)
        states = nxt
    return states.get(0, set())


def _designate(frontier, v, ends, undecided):
    """The frontier after one more designated germ at v, or None.

    Only the edge's end vertices ``ends`` change; a vertex whose last germ
    was just decided must hold exactly two designated germs (the Eulerian
    condition) and leaves the frontier.
    """
    f = frontier + (1 << 2 * v)
    for u in ends:
        d = (f >> 2 * u) & 3
        if undecided[u]:
            if d > 2 or d + undecided[u] < 2:
                return None
        elif d != 2:
            return None
        else:
            f -= 2 << 2 * u
    return f

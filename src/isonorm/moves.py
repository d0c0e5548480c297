"""Smoothing at a double point and the face-merging reduction pipeline.

Smoothing deletes a vertex and reconnects the four stubs in the two
rotation-compatible ways.  With germs (h0, h1, h2, h3) in CCW order, the
first child joins (h0,h1) and (h2,h3) and thereby merges the faces at the
corners (h1,h2) and (h3,h0); the second child joins (h1,h2) and (h3,h0)
and merges the other two corners.

Each child records a transport table for dual-walk steps: a parent step
crossing a parent edge maps to the step crossing the child edge that the
parent edge was merged into, with matching direction.  Walks never enter
the smoothing disk (they are edge-crossing sequences), so every parent walk
transports.

The intersection norm of a class is the support of the dual ball at it:
:func:`norm` reads it as the largest pairing with an Eulerian class, with
no hull.  All Eulerian classes agree mod 2, so :func:`norm_parity` needs
only one Eulerian co-orientation.
"""

from __future__ import annotations

from .maps import CombinatorialMap, InvalidMap, MapError
from . import homology, coorient


class Child:
    """One reconnection of a smoothing."""

    def __init__(self, map_, degenerate, reason, step_transport):
        self.map = map_
        self.degenerate = degenerate
        self.reason = reason
        self.step_transport = step_transport  # parent half-edge -> child

    def transport_walk(self, walk):
        if self.degenerate:
            raise ValueError("cannot transport into a degenerate child: %s"
                             % self.reason)
        return tuple(self.step_transport[h] for h in walk)


class SmoothingResult:
    def __init__(self, parent, vertex, children):
        self.parent = parent
        self.vertex = vertex
        self.children = children


def smooth(m, vertex):
    """Both reconnections of the map at the given vertex."""
    if not (0 <= vertex < m.num_vertices):
        raise ValueError("vertex %d out of range" % vertex)
    return SmoothingResult(m, vertex, [_reconnect(m, vertex, 0),
                                       _reconnect(m, vertex, 1)])


def _reconnect(m, vertex, idx):
    """Child ``idx`` of the smoothing at the vertex."""
    h0, h1, h2, h3 = m.vertices[vertex]
    joins = ((h0, h1), (h2, h3)) if idx == 0 else ((h1, h2), (h3, h0))
    germs = {h0, h1, h2, h3}
    partner = {}
    for x, y in joins:
        partner[x] = y
        partner[y] = x
    if m.num_vertices == 1:
        return Child(None, True, "child has no vertices", None)

    # walk chains of merged parent edges from each outside germ
    outside = [g for g in range(m.n) if g not in germs]
    chain_end = {}       # outside germ -> outside germ at the chain's far end
    traversed_as = {}    # parent germ -> outside germ starting its chain
    closed_loop = False
    for g in outside:
        if g in traversed_as:
            continue
        # traverse edge(g) away from g's vertex, then through the joins
        path = [g]
        t = m.pairing[g]
        while t in germs:
            t = partner[t]
            path.append(t)
            t = m.pairing[t]
        # t is the far-end germ of the final parent edge, outside the vertex
        chain_end[g] = t
        for q in path:
            traversed_as[q] = g
    # any parent edge not reached from an outside germ lies on a closed
    # vertex-free loop through the smoothed vertex
    for x in germs:
        if x not in traversed_as and m.pairing[x] not in traversed_as:
            closed_loop = True
    if closed_loop:
        return Child(None, True, "smoothing produces a vertex-free loop",
                     None)

    relabel = {g: i for i, g in enumerate(outside)}
    n_new = len(outside)
    rotation = [0] * n_new
    pairing = [0] * n_new
    for g in outside:
        rotation[relabel[g]] = relabel[m.rotation[g]]
    for g in outside:
        pairing[relabel[g]] = relabel[chain_end[g]]
    try:
        child = CombinatorialMap(rotation, pairing)
    except InvalidMap as exc:
        return Child(None, True, str(exc), None)

    # step transport: a parent step at germ q (crossing right-to-left of q)
    # maps to the child germ whose chain traverses edge(q) in q's direction
    transport = {}
    for q, start in traversed_as.items():
        transport[q] = relabel[start]
        transport[m.pairing[q]] = relabel[chain_end[start]]
    return Child(child, False, None, transport)


def eulco_union_check(m, vertex, basis=None):
    """Check [Eulco(parent)] = [Eulco(child1)] u [Eulco(child2)].

    Class sets are compared in the parent basis, transported edge-wise into
    the children.  A transported walk need not be a valid dual walk on the
    child's own filled surface (the smoothing may split a face and drop the
    genus), but evaluating a co-orientation on it is still class-invariant
    on the parent surface: pushing a transverse curve across a vertex
    changes the count by the full vertex-circle sum, which vanishes for
    Eulerian co-orientations.  Returns (applicable, holds, detail dict);
    inapplicable when a child is degenerate.
    """
    if basis is None:
        basis = homology.homology_basis(m)
    walks = tuple(basis)
    result = smooth(m, vertex)
    if any(c.degenerate for c in result.children):
        reasons = [c.reason for c in result.children if c.degenerate]
        return False, None, {"reason": "; ".join(reasons)}
    parent_classes = coorient.eulco_classes(m, walks)
    child_classes = [
        coorient.eulco_classes(c.map, [c.transport_walk(w) for w in walks])
        for c in result.children]
    union = child_classes[0] | child_classes[1]
    holds = union == parent_classes
    detail = {
        "parent": parent_classes,
        "children": child_classes,
        "subset": all(cc <= parent_classes for cc in child_classes),
    }
    return True, holds, detail


def opposed_face_pairs(m, vertex):
    """Faces at the two pairs of opposite corners around a vertex.

    Corner i lies between germs h_i and h_{i+1}; its face is the one to the
    right of h_{i+1}.  Returns ((c0, c2), (c1, c3)).
    """
    h0, h1, h2, h3 = m.vertices[vertex]
    c0, c1, c2, c3 = (m.face_of[h1], m.face_of[h2],
                      m.face_of[h3], m.face_of[h0])
    return (c0, c2), (c1, c3)


def reduce_map(m):
    """Smooth at opposed distinct faces until at most two faces remain.

    Returns (reduced_map, trace) with trace a list of
    (vertex, child_index) steps taken on the successive maps.
    """
    current = m
    trace = []
    while len(current.faces) > 1:
        candidates = []
        for v in range(current.num_vertices):
            (c0, c2), (c1, c3) = opposed_face_pairs(current, v)
            # child 0 joins (h0,h1),(h2,h3) and merges corners 1 and 3;
            # child 1 merges corners 0 and 2
            if c1 != c3:
                candidates.append((v, 0))
            if c0 != c2:
                candidates.append((v, 1))
        if not candidates:
            break  # every opposed pair coincides: two-faced fixpoint
        child = None
        for v, idx in candidates:
            c = _reconnect(current, v, idx)
            if not c.degenerate:
                child = c
                step = (v, idx)
                break
        if child is None:
            raise MapError(
                "reduction blocked: every face-merging smoothing would "
                "create a vertex-free loop")
        if len(child.map.faces) != len(current.faces) - 1:
            raise AssertionError("smoothing at %r did not merge two faces"
                                 % (step,))
        current = child.map
        trace.append(step)
    if len(current.faces) > 2:
        raise AssertionError("reduction stopped at %d faces"
                             % len(current.faces))
    return current, trace


def norm_parity(m, basis=None):
    """"even" iff the intersection norm takes only even values.

    Two Eulerian co-orientations differ by twice an integer cochain, so
    all Eulerian classes agree mod 2 and any one of them decides.
    """
    if basis is None:
        basis = homology.homology_basis(m)
    signs = coorient.from_curve_orientations(m).signs()
    c = homology.class_of(m, signs, basis)
    return "even" if all(x % 2 == 0 for x in c) else "odd"


def norm(m, a, basis=None):
    """The intersection norm of the class a (one coordinate per basis
    walk): the support of the dual ball at a, i.e. the largest pairing of
    a with an Eulerian class."""
    return max(sum(x * y for x, y in zip(c, a, strict=True))
               for c in coorient.eulco_classes(m, basis))

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

:func:`reduce_map` takes children that merge two distinct faces.  Two
distinct disk faces merge into a disk, so on two or more vertices such a
child is a valid map; the reduction rewires one pairing array and follows
the faces by a union-find.  It and :func:`smooth` both build the child map
by one compaction of a rewired pairing array, :func:`_compact`.

The intersection norm of a class is the support of the dual ball at it:
:func:`norm` reads it as the largest pairing with an Eulerian class, with
no hull.  Any co-orientation gives each walk step +1 or -1, so coordinate
i of every Eulerian class is len(w_i) mod 2, and :func:`norm_parity`
reads the parity from the walk lengths.
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


def smooth(m, vertex):
    """Both reconnections of the map at the given vertex: two Child
    objects, child 0 and child 1."""
    if not (0 <= vertex < m.num_vertices):
        raise ValueError("vertex %d out of range" % vertex)
    return _reconnect(m, vertex, 0), _reconnect(m, vertex, 1)


def _chains(pairing, germs, idx):
    """Walk the chains of parent edges merged through a smoothed vertex.

    ``germs`` are the vertex's four half-edges in CCW order, joined in
    pairs as child ``idx`` joins them.  Returns (chain_end, traversed_as):
    chain_end maps each outside germ whose edge enters the vertex to the
    outside germ at the far end of its chain, and traversed_as maps each
    germ whose edge a chain traverses, in that germ's direction, to the
    chain's first germ.  Returns None when a parent edge lies on a closed
    vertex-free loop through the vertex, which no chain from outside
    reaches.
    """
    h0, h1, h2, h3 = germs
    partner = ({h0: h1, h1: h0, h2: h3, h3: h2} if idx == 0
               else {h1: h2, h2: h1, h3: h0, h0: h3})
    chain_end = {}
    traversed_as = {}
    for x in germs:
        g = pairing[x]
        if g in germs or g in traversed_as:
            continue
        # traverse edge(g) into the vertex, then through the joins
        path = [g]
        t = x
        while t in germs:
            t = partner[t]
            path.append(t)
            t = pairing[t]
        chain_end[g] = t
        for q in path:
            traversed_as[q] = g
    if any(x not in traversed_as and pairing[x] not in traversed_as
           for x in germs):
        return None
    return chain_end, traversed_as


def _reconnect(m, vertex, idx):
    """Child ``idx`` of the smoothing at the vertex."""
    if m.num_vertices == 1:
        return Child(None, True, "child has no vertices", None)
    germs = m.vertices[vertex]
    chains = _chains(m.pairing, germs, idx)
    if chains is None:
        return Child(None, True, "smoothing produces a vertex-free loop",
                     None)
    chain_end, traversed_as = chains
    pairing = list(m.pairing)
    for g, t in chain_end.items():
        pairing[g] = t
    gone = [h in germs for h in range(m.n)]
    try:
        child, relabel = _compact(m, pairing, gone)
    except InvalidMap as exc:
        return Child(None, True, str(exc), None)

    # step transport: a parent step at germ q (crossing right-to-left of q)
    # maps to the child germ whose chain traverses edge(q) in q's
    # direction; an edge away from the vertex is its own chain
    transport = {q: relabel[q] for q in range(m.n) if not gone[q]}
    for q, start in traversed_as.items():
        transport[q] = relabel[start]
        transport[m.pairing[q]] = relabel[chain_end[start]]
    return Child(child, False, None, transport)


def _compact(m, pairing, gone):
    """The map on m's half-edges that are not gone, in order, with m's
    rotation and the given pairing; returns (map, relabel), relabel taking
    each kept half-edge id of m to its id in the map."""
    kept = [h for h in range(m.n) if not gone[h]]
    relabel = [0] * m.n
    for i, h in enumerate(kept):
        relabel[h] = i
    return (CombinatorialMap([relabel[m.rotation[h]] for h in kept],
                             [relabel[pairing[h]] for h in kept]),
            relabel)


def eulco_union_check(m, vertex, basis):
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
    walks = tuple(basis)
    children = smooth(m, vertex)
    if any(c.degenerate for c in children):
        reasons = [c.reason for c in children if c.degenerate]
        return False, None, {"reason": "; ".join(reasons)}
    parent_classes = coorient.eulco_classes(m, walks)
    child_classes = [
        coorient.eulco_classes(c.map, [c.transport_walk(w) for w in walks])
        for c in children]
    union = child_classes[0] | child_classes[1]
    holds = union == parent_classes
    detail = {
        "parent": parent_classes,
        "children": child_classes,
        "subset": all(cc <= parent_classes for cc in child_classes),
    }
    return True, holds, detail


def reduce_map(m):
    """Smooth at opposed distinct faces until at most two faces remain.

    Returns (reduced_map, trace) with trace a list of (vertex, child_index)
    steps taken on the successive maps; a step smooths the first vertex,
    in vertex and child order, whose child merges two distinct faces.

    The two faces at the merged corners become one and every other face
    stays, so a union-find over m's face ids follows the faces, and a
    vertex whose opposed corners share faces is never a candidate again.
    Two distinct disk faces merge into a disk, so on two or more vertices
    the child is a valid map: no vertex-free loop, not disconnected.  The
    steps rewire one pairing array in m's half-edge ids; each step keeps
    the order of the half-edges, so a vertex's index is its rank among the
    surviving vertices.  One map is built and validated, at the end.
    """
    vertices = m.vertices
    face_of = m.face_of
    pairing = list(m.pairing)
    root = list(range(len(m.faces)))  # union-find over m's face ids

    def find(f):
        while root[f] != f:
            root[f] = root[root[f]]
            f = root[f]
        return f

    faces = len(m.faces)
    trace = []
    gone = [False] * m.n
    v = 0
    while faces > 1:
        for v in range(v, len(vertices)):
            h0, h1, h2, h3 = vertices[v]
            # child 0 joins (h0,h1),(h2,h3) and merges corners 1 and 3
            # (faces of h2 and h0); child 1 merges corners 0 and 2
            a, b = find(face_of[h2]), find(face_of[h0])
            if a != b:
                idx = 0
                break
            a, b = find(face_of[h1]), find(face_of[h3])
            if a != b:
                idx = 1
                break
        else:
            break  # every opposed pair coincides: two-faced fixpoint
        if len(vertices) - len(trace) == 1:
            raise MapError(
                "reduction blocked: every face-merging smoothing would "
                "create a vertex-free loop")
        step = (v - len(trace), idx)
        germs = vertices[v]
        chains = _chains(pairing, germs, idx)
        if chains is None:
            raise AssertionError("smoothing at %r made a vertex-free loop"
                                 % (step,))
        for g, t in chains[0].items():
            pairing[g] = t
        for h in germs:
            gone[h] = True
        root[a] = b
        faces -= 1
        trace.append(step)
        v += 1
    if faces > 2:
        raise AssertionError("reduction stopped at %d faces" % faces)
    reduced, _ = _compact(m, pairing, gone)
    if len(reduced.faces) != faces:
        raise AssertionError("%d smoothings left %d faces of %d"
                             % (len(trace), len(reduced.faces),
                                len(m.faces)))
    return reduced, trace


def norm_parity(m, basis):
    """"even" iff the intersection norm takes only even values.

    Each walk step crosses one edge, which any co-orientation gives +1 or
    -1, so coordinate i of every Eulerian class is len(w_i) mod 2.
    """
    walks = tuple(basis)
    homology.check_steps(m, walks)
    return "even" if all(len(w) % 2 == 0 for w in walks) else "odd"


def norm(m, a, basis):
    """The intersection norm of the class a (one coordinate per basis
    walk): the support of the dual ball at a, i.e. the largest pairing of
    a with an Eulerian class."""
    return max(sum(x * y for x, y in zip(c, a, strict=True))
               for c in coorient.eulco_classes(m, basis))

"""4-valent combinatorial maps (rotation system + edge pairing).

A curve collection with only transverse double points on a closed oriented
surface is encoded as a combinatorial map: half-edges 0..4V-1, a rotation
permutation whose orbits (all of size 4) are the vertices listed in
counterclockwise order, and a fixed-point-free pairing involution whose
orbits are the edges.

Convention: the face permutation is rotation o pairing; its orbit through a
half-edge h traces the face lying to the *right* of h (h viewed as pointing
away from its vertex).
"""

from __future__ import annotations

from collections import deque


class MapError(Exception):
    """Raised when an operation is applied to an invalid map."""


class MapParseError(Exception):
    """Raised on a malformed map/walk file."""


def _orbits(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orb = []
        h = start
        while not seen[h]:
            seen[h] = True
            orb.append(h)
            h = perm[h]
        out.append(tuple(orb))
    return tuple(out)


class CombinatorialMap:
    """Immutable 4-valent map on an oriented surface."""

    def __init__(self, rotation, pairing):
        self.rotation = tuple(rotation)
        self.pairing = tuple(pairing)
        self._faces = None
        self._vertices = None
        self._edges = None

    def __eq__(self, other):
        return (isinstance(other, CombinatorialMap)
                and self.rotation == other.rotation
                and self.pairing == other.pairing)

    def __hash__(self):
        return hash((self.rotation, self.pairing))

    def __repr__(self):
        return "CombinatorialMap(V=%d, E=%d, F=%d)" % (
            self.num_vertices, self.num_edges, len(self.faces))

    @property
    def n(self):
        """Number of half-edges."""
        return len(self.rotation)

    @property
    def num_vertices(self):
        return self.n // 4

    @property
    def num_edges(self):
        return self.n // 2

    @property
    def vertices(self):
        """Rotation orbits, each a CCW-ordered 4-tuple of half-edges."""
        if self._vertices is None:
            self._vertices = _orbits(self.rotation)
        return self._vertices

    @property
    def edges(self):
        """Pairing orbits as (h, pairing[h]) with h the smaller id."""
        if self._edges is None:
            self._edges = tuple(
                (h, self.pairing[h]) for h in range(self.n)
                if h < self.pairing[h])
        return self._edges

    def edge_index(self, h):
        """Index into self.edges of the edge containing half-edge h."""
        return self._edge_of[h]

    @property
    def _edge_of(self):
        eo = getattr(self, "_edge_of_cache", None)
        if eo is None:
            eo = [0] * self.n
            for i, (a, b) in enumerate(self.edges):
                eo[a] = eo[b] = i
            self._edge_of_cache = eo
        return eo

    @property
    def vertex_of(self):
        vo = getattr(self, "_vertex_of_cache", None)
        if vo is None:
            vo = [0] * self.n
            for i, orb in enumerate(self.vertices):
                for h in orb:
                    vo[h] = i
            self._vertex_of_cache = vo
        return vo

    @property
    def faces(self):
        """Orbits of the face permutation rotation o pairing.

        The orbit through h walks the boundary of the face to the right of
        h, moving along each edge in the direction of the half-edge visited.
        """
        if self._faces is None:
            fp = [self.rotation[self.pairing[h]] for h in range(self.n)]
            self._faces = _orbits(fp)
        return self._faces

    @property
    def face_of(self):
        fo = getattr(self, "_face_of_cache", None)
        if fo is None:
            fo = [0] * self.n
            for i, orb in enumerate(self.faces):
                for h in orb:
                    fo[h] = i
            self._face_of_cache = fo
        return fo

    def strand_next(self, h):
        """The half-edge the curve continues on after traversing h.

        Traversing h means moving along edge(h) away from h's vertex; at the
        far vertex the curve goes straight through the crossing, i.e. exits
        on the rotation-opposite half-edge.
        """
        g = self.pairing[h]
        return self.rotation[self.rotation[g]]

    @property
    def genus(self):
        diags = validate(self)
        if diags:
            raise MapError("; ".join(diags))
        chi = self.num_vertices - self.num_edges + len(self.faces)
        if chi % 2 or chi > 2:
            raise AssertionError("Euler characteristic %d of a valid map"
                                 % chi)
        return (2 - chi) // 2


def passages(crossings, paths):
    """Vertex signs and each path's (vertex, branch) passages in order.

    A crossing ``((i, s), (j, t), sign)`` is passed by path i at parameter
    s on branch 0 and by path j at t on branch 1; vertex v is the v-th
    crossing in sorted order.  Two passages of one path at the same
    parameter raise MapError.
    """
    crossings = sorted(crossings)
    per_path = [[] for _ in range(paths)]
    for v, ((i, s), (j, t), _) in enumerate(crossings):
        per_path[i].append((s, v, 0))
        per_path[j].append((t, v, 1))
    out = []
    for plist in per_path:
        plist.sort()
        for (s, _, _), (t, _, _) in zip(plist, plist[1:]):
            if s == t:
                raise MapError("two passages at parameter %s" % s)
        out.append([(v, br) for _, v, br in plist])
    return [sign for _, _, sign in crossings], out


def from_strands(signs, strands):
    """The map of transverse crossings joined by closed strands.

    Vertex v is a crossing of sign ``signs[v]`` with two branches, 0 and 1;
    each strand is the cyclic list of the (vertex, branch) passages of one
    curve, and every passage occurs exactly once over all strands.  Vertex
    v owns half-edges 4v + 2 * branch (leaving along the branch) and one
    more (arriving along it); its rotation reads CCW, turning from branch
    0 to branch 1 when the sign is positive.

    Returns the map and, per strand, the half-edge leaving each passage.
    """
    n = 4 * len(signs)
    rotation = [0] * n
    for v, sign in enumerate(signs):
        cycle = (0, 2, 1, 3) if sign > 0 else (0, 3, 1, 2)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            rotation[4 * v + a] = 4 * v + b
    pairing = [-1] * n
    outs = []
    for strand in strands:
        if not strand:
            raise MapError("empty strand")
        out = [4 * v + 2 * br for v, br in strand]
        for a, b in zip(out, out[1:] + out[:1]):
            if pairing[a] != -1 or pairing[b + 1] != -1:
                raise MapError("passage of half-edge %d repeats" % a)
            pairing[a] = b + 1
            pairing[b + 1] = a
        outs.append(out)
    if -1 in pairing:
        raise MapError("half-edge %d is on no strand" % pairing.index(-1))
    return CombinatorialMap(rotation, pairing), outs


def validate(m):
    """Return a list of invariant violations (empty iff the map is valid)."""
    diags = []
    n = len(m.rotation)
    if n == 0 or n % 4 != 0:
        diags.append("half-edge count %d is not a positive multiple of 4" % n)
        return diags
    if sorted(m.rotation) != list(range(n)) or sorted(m.pairing) != list(range(n)):
        diags.append("rotation/pairing are not permutations of 0..%d" % (n - 1))
        return diags
    for orb in m.vertices:
        if len(orb) != 4:
            diags.append("rotation orbit %r has size %d, expected 4"
                         % (orb, len(orb)))
    for h in range(n):
        if m.pairing[h] == h:
            diags.append("pairing fixes half-edge %d" % h)
        elif m.pairing[m.pairing[h]] != h:
            diags.append("pairing is not an involution at half-edge %d" % h)
            break
    if not diags and not _connected(m):
        diags.append("map is disconnected")
    return diags


def _connected(m):
    n = m.n
    seen = [False] * n
    queue = deque([0])
    seen[0] = True
    count = 1
    while queue:
        h = queue.popleft()
        for g in (m.rotation[h], m.pairing[h]):
            if not seen[g]:
                seen[g] = True
                count += 1
                queue.append(g)
    return count == n


def check_valid(m):
    diags = validate(m)
    if diags:
        raise MapError("; ".join(diags))


def curves(m):
    """Closed strands of the map, each a cyclic tuple of half-edges.

    A strand records the half-edges traversed in order (one per edge
    traversal); strands partition the edge set and correspond to the closed
    curves of the encoded collection.
    """
    check_valid(m)
    seen = set()
    out = []
    for start in range(m.n):
        if start in seen or m.pairing[start] in seen:
            continue
        strand = []
        h = start
        while h not in seen:
            seen.add(h)
            strand.append(h)
            h = m.strand_next(h)
        out.append(tuple(strand))
    return out


def _inverse(perm):
    inv = [0] * len(perm)
    for h, g in enumerate(perm):
        inv[g] = h
    return tuple(inv)


def isomorphic(m1, m2, allow_reflection=False):
    """Decide map isomorphism; returns (bool, relabeling or None)."""
    check_valid(m1)
    check_valid(m2)
    if m1.n != m2.n:
        return False, None
    # an isomorphism maps the BFS labelling of m1 from half-edge 0 onto
    # the BFS labelling of m2 from the image of 0
    key1, order1 = _relabel(m1.rotation, m1.pairing, 0)
    reflections = (False, True) if allow_reflection else (False,)
    for reflect in reflections:
        rot2 = _inverse(m2.rotation) if reflect else m2.rotation
        for image0 in range(m2.n):
            key2, order2 = _relabel(rot2, m2.pairing, image0)
            if key2 == key1:
                phi = [0] * m1.n
                for h1, h2 in zip(order1, order2):
                    phi[h1] = h2
                return True, phi
    return False, None


def canonical_key(m, allow_reflection=True):
    """Canonical invariant of the isomorphism class (hashable).

    The key is the least relabelled (rotation, pairing) over the BFS
    relabellings from every start (see :func:`_relabel`), also of the
    mirror map when ``allow_reflection``.  Each relabelled rotation is
    emitted label by label during its BFS and compared with the best so
    far, so a start is dropped at the first label where it is larger; the
    pairing is built only for starts that survive.
    """
    check_valid(m)
    n = m.n
    pairing = m.pairing
    best = None
    reflections = (False, True) if allow_reflection else (False,)
    for reflect in reflections:
        rotation = _inverse(m.rotation) if reflect else m.rotation
        for start in range(n):
            label = [-1] * n
            label[start] = 0
            order = [start]
            rot_new = []
            less = best is None  # decided smaller than best already
            # BFS pops half-edges in label order, so the k-th pop emits
            # the relabelled rotation at label k
            for h in order:
                for g in (rotation[h], pairing[h]):
                    if label[g] == -1:
                        label[g] = len(order)
                        order.append(g)
                r = label[rotation[h]]
                if not less:
                    b = best[0][len(rot_new)]
                    if r > b:
                        break
                    less = r < b
                rot_new.append(r)
            else:
                key = (tuple(rot_new),
                       tuple(label[pairing[h]] for h in order))
                if less or key[1] < best[1]:
                    best = key
    return best


def _relabel(rotation, pairing, start):
    """Relabelling in BFS order from start: the relabelled (rotation,
    pairing) and the BFS order of the old labels."""
    n = len(rotation)
    label = [-1] * n
    label[start] = 0
    order = [start]
    queue = deque([start])
    while queue:
        h = queue.popleft()
        for g in (rotation[h], pairing[h]):
            if label[g] == -1:
                label[g] = len(order)
                order.append(g)
                queue.append(g)
    rot_new = [0] * n
    pair_new = [0] * n
    for h in range(n):
        rot_new[label[h]] = label[rotation[h]]
        pair_new[label[h]] = label[pairing[h]]
    return (tuple(rot_new), tuple(pair_new)), order


def canonical_form(m, allow_reflection=True):
    """A canonically relabeled representative of the isomorphism class."""
    rot, pair = canonical_key(m, allow_reflection)
    return CombinatorialMap(rot, pair)


# ---------------------------------------------------------------------------
# Text format
#
#   map V=<n>
#   v<i>: h h h h        one line per vertex, rotation (CCW) order
#   e: h h               one line per edge
#
# Blank lines and '#' comments are ignored.  Edge ids used by walk files are
# the 0-based order of the 'e:' lines; the first half-edge on an 'e:' line is
# the edge's positive side (see homology.evaluate).
# ---------------------------------------------------------------------------

def serialize_map(m):
    lines = ["map V=%d" % m.num_vertices]
    for i, orb in enumerate(sorted(m.vertices, key=min)):
        # rotate the orbit so its smallest half-edge comes first
        k = orb.index(min(orb))
        orb = orb[k:] + orb[:k]
        lines.append("v%d: %s" % (i, " ".join(str(h) for h in orb)))
    for a, b in m.edges:
        lines.append("e: %d %d" % (a, b))
    return "\n".join(lines) + "\n"


def parse_map(text):
    """Parse the map text format; returns (CombinatorialMap, edge_list)."""
    nv = None
    rotation = {}
    edge_list = []
    seen_vertex_halves = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("map"):
            if nv is not None:
                raise MapParseError("line %d: duplicate header" % lineno)
            parts = line.split()
            if len(parts) != 2 or not parts[1].startswith("V="):
                raise MapParseError("line %d: bad header %r" % (lineno, line))
            try:
                nv = int(parts[1][2:])
            except ValueError:
                raise MapParseError("line %d: bad header %r" % (lineno, line))
        elif line.startswith("v"):
            head, _, rest = line.partition(":")
            try:
                halves = [int(t) for t in rest.split()]
            except ValueError:
                raise MapParseError("line %d: bad vertex line" % lineno)
            if len(halves) != 4:
                raise MapParseError("line %d: vertex needs 4 half-edges"
                                    % lineno)
            for h in halves:
                if h in seen_vertex_halves:
                    raise MapParseError(
                        "line %d: duplicate half-edge id %d" % (lineno, h))
                seen_vertex_halves.add(h)
            for a, b in zip(halves, halves[1:] + halves[:1]):
                rotation[a] = b
        elif line.startswith("e"):
            _, _, rest = line.partition(":")
            try:
                a, b = (int(t) for t in rest.split())
            except ValueError:
                raise MapParseError("line %d: bad edge line" % lineno)
            edge_list.append((a, b))
        else:
            raise MapParseError("line %d: unrecognized line %r"
                                % (lineno, line))
    if nv is None:
        raise MapParseError("missing 'map V=' header")
    n = 4 * nv
    if len(rotation) != n or sorted(rotation) != list(range(n)):
        raise MapParseError("vertex lines do not cover half-edges 0..%d"
                            % (n - 1))
    pairing = [-1] * n
    for a, b in edge_list:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise MapParseError("bad edge (%d, %d)" % (a, b))
        if pairing[a] != -1 or pairing[b] != -1:
            raise MapParseError("half-edge reused in edge (%d, %d)" % (a, b))
        pairing[a] = b
        pairing[b] = a
    if -1 in pairing:
        raise MapParseError("edge lines do not cover all half-edges")
    rot = [rotation[h] for h in range(n)]
    return CombinatorialMap(rot, pairing), edge_list

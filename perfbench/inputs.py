"""Seeded input generators for the benchmark (stdlib only, no isonorm).

Everything the measured program receives is made here: relabelled map and
walks files for ``dualball`` and lattice polygons for ``realize``.  The
generators are independent of the library, so the expected answers they
give (polygon vertices, vertex counts, norms) are an outside oracle.
"""

from __future__ import annotations

from math import gcd


# ---------------------------------------------------------------------------
# Map and walks files
# ---------------------------------------------------------------------------

def read_map_text(text):
    """(rotation, pairing) lists from the map text format."""
    rotation = {}
    pairing = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("map"):
            continue
        halves = [int(t) for t in line.partition(":")[2].split()]
        if line.startswith("v"):
            for a, b in zip(halves, halves[1:] + halves[:1]):
                rotation[a] = b
        else:
            a, b = halves
            pairing[a], pairing[b] = b, a
    n = len(rotation)
    return [rotation[h] for h in range(n)], [pairing[h] for h in range(n)]


def edges_of(pairing):
    """Edges as (smaller, larger) half-edge pairs, in the file's edge order."""
    return [(h, g) for h, g in enumerate(pairing) if h < g]


def read_walks_text(text, pairing):
    """Half-edge step tuples from ``e<edge><+|->`` walk lines."""
    edges = edges_of(pairing)
    walks = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            walks.append(tuple(edges[int(tok[1:-1])][0 if tok[-1] == "+"
                                                    else 1]
                               for tok in line.split()))
    return walks


def vertex_orbits(rotation):
    """Rotation orbits, each listed from its smallest half-edge."""
    seen = set()
    out = []
    for start in range(len(rotation)):
        if start in seen:
            continue
        orb = [start]
        seen.add(start)
        h = rotation[start]
        while h != start:
            orb.append(h)
            seen.add(h)
            h = rotation[h]
        out.append(orb)
    return out


def map_text(rotation, pairing, comment):
    lines = ["# " + comment, "map V=%d" % (len(rotation) // 4)]
    for i, orb in enumerate(vertex_orbits(rotation)):
        lines.append("v%d: %s" % (i, " ".join(str(h) for h in orb)))
    lines += ["e: %d %d" % e for e in edges_of(pairing)]
    return "\n".join(lines) + "\n"


def walks_text(pairing, walks):
    index = {}
    for i, (a, b) in enumerate(edges_of(pairing)):
        index[a] = "e%d+" % i
        index[b] = "e%d-" % i
    return "".join(" ".join(index[h] for h in w) + "\n" for w in walks)


def order_keeping_relabelling(rotation, rng):
    """A random relabelling of half-edges that keeps the search order.

    Every vertex gets a random block of four new ids; its smallest
    half-edge takes the smallest id of the block and the other three take
    the rest in random order, and half-edge 0 stays 0.  Vertex orbits are
    listed from their smallest half-edge and breadth-first searches start
    at the vertex of half-edge 0, so such a relabelling leaves the
    program's search order, and with it its work, unchanged.
    """
    n = len(rotation)
    pool = list(range(1, n))
    rng.shuffle(pool)
    perm = [0] * n
    for orb in vertex_orbits(rotation):
        block = sorted(([0] if orb[0] == 0 else []) +
                       [pool.pop() for _ in range(4 if orb[0] else 3)])
        rest = block[1:]
        rng.shuffle(rest)
        perm[orb[0]] = block[0]
        for h, new in zip(orb[1:], rest):
            perm[h] = new
    return perm


def relabel(rotation, pairing, walks, perm):
    """Conjugate the map by ``perm`` and move the walks with it."""
    n = len(rotation)
    rot = [0] * n
    pair = [0] * n
    for h in range(n):
        rot[perm[h]] = perm[rotation[h]]
        pair[perm[h]] = perm[pairing[h]]
    return rot, pair, [tuple(perm[h] for h in w) for w in walks]


# ---------------------------------------------------------------------------
# Lattice polygons
# ---------------------------------------------------------------------------

def det(u, v):
    return u[0] * v[1] - u[1] * v[0]


# primitive directions in the box |x|, |y| <= 3, one per line through 0
DIRECTIONS = tuple((x, y) for x in range(4) for y in range(-3, 4)
                   if gcd(x, y) == 1 and (x > 0 or y > 0))


def crossing_count(families):
    """Vertices of the torus map of (direction, multiplicity) families."""
    return sum(m1 * m2 * abs(det(d1, d2))
               for i, (d1, m1) in enumerate(families)
               for d2, m2 in families[i + 1:])


def zonotope_points(families):
    """All 2^k signed sums of the generators m*d, as distinct points."""
    pts = {(0, 0)}
    for d, m in families:
        pts = {(x + s * m * d[0], y + s * m * d[1])
               for x, y in pts for s in (1, -1)}
    return sorted(pts)


def hull_vertices(points):
    """Strict convex hull vertices of integer points (monotone chain)."""
    pts = sorted({tuple(p) for p in points})
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and det(
                    (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                    (p[0] - out[-2][0], p[1] - out[-2][1])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def doubled_area(points):
    """Twice the area of the convex hull of 2-D integer points."""
    cyc = hull_vertices(points)
    return abs(sum(det(cyc[i], cyc[(i + 1) % len(cyc)])
                   for i in range(len(cyc))))


def draw_polygons(rng, slots, total, lo, hi, max_mult):
    """Families for one polygon per slot, slot i using slots[i] directions.

    Each polygon's torus map has between lo and hi vertices and the maps
    have exactly ``total`` vertices together, so that every seed asks for
    the same amount of work.
    """
    while True:
        out = []
        left = total
        for i, k in enumerate(slots):
            rest = len(slots) - i - 1
            want_lo = max(lo, left - rest * hi)
            want_hi = min(hi, left - rest * lo)
            for _ in range(20000):
                fams = [(d, rng.randint(1, max_mult))
                        for d in rng.sample(DIRECTIONS, k)]
                if want_lo <= crossing_count(fams) <= want_hi:
                    break
            else:
                break  # no draw fits the remaining budget: start again
            out.append(fams)
            left -= crossing_count(fams)
        if len(out) == len(slots):
            return out

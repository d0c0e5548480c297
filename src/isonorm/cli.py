"""Command-line front end.

Thin adapters only: every subcommand parses files, calls one library
function, and prints a stable plain-text (or ``--json``) document.
Exit codes: 0 success, 1 domain error or a stdout closed by its reader,
2 parse/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census, coorient, homology, maps, moves, polytope, torus


class ParseFailure(Exception):
    """Bad input file (exit 2)."""


class DomainFailure(Exception):
    """Valid input, impossible request (exit 1)."""


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseFailure("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise ParseFailure("%s: %s" % (path, exc))


def _load_map(path):
    """The map of a map file and the list of its ``e:`` lines."""
    try:
        return maps.parse_map(_read(path))
    except maps.MapParseError as exc:
        raise ParseFailure("%s: %s" % (path, exc))
    except maps.InvalidMap as exc:
        raise DomainFailure("%s: invalid map: %s" % (path, exc))


def _load_polytope(path):
    """A LatticePolytope of a polytope file's points, with no hull taken."""
    try:
        return polytope.LatticePolytope(polytope.parse_points(_read(path)))
    except ValueError as exc:
        raise ParseFailure("%s: %s" % (path, exc))


def parse_walks(text, edges):
    """Walks file: one dual walk per line, steps ``e<k><+|->``.

    Edge k is the k-th ``e:`` line of the map file, ``edges[k]`` as
    :func:`maps.parse_map` returns it.  ``e<k>+`` is the step on the first
    half-edge of that line (it crosses the edge right-to-left of that
    half-edge), ``e<k>-`` the step on the second.
    """
    walks = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        steps = []
        for tok in line.split():
            if len(tok) < 3 or tok[0] != "e" or tok[-1] not in "+-":
                raise ValueError("line %d: bad step %r" % (lineno, tok))
            try:
                e = int(tok[1:-1])
            except ValueError:
                raise ValueError("line %d: bad step %r" % (lineno, tok))
            if not (0 <= e < len(edges)):
                raise ValueError("line %d: no edge %d" % (lineno, e))
            steps.append(edges[e][0 if tok[-1] == "+" else 1])
        walks.append(tuple(steps))
    if not walks:
        raise ValueError("walks file contains no walks")
    return tuple(walks)


def serialize_walks(m, walks):
    """Walks against the ``e:`` lines of ``maps.serialize_map(m)``: step h
    is ``e<m.edge_index(h)>``, ``+`` when h is the smaller half-edge."""
    return "".join(" ".join(
        "e%d%s" % (m.edge_index(h), "+" if h < m.pairing[h] else "-")
        for h in w) + "\n" for w in walks)


def _load_walks(path, m, edges):
    try:
        walks = parse_walks(_read(path), edges)
    except ValueError as exc:
        raise ParseFailure("%s: %s" % (path, exc))
    try:
        for w in walks:
            homology.check_walk(m, w)
    except homology.WalkError as exc:
        raise DomainFailure("%s: %s" % (path, exc))
    return walks


def _basis(args, m, edges):
    if args.walks:
        return _load_walks(args.walks, m, edges)
    return homology.homology_basis(m).walks


def _emit(args, text, doc):
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    try:
        m, _ = maps.parse_map(_read(args.map))
    except maps.MapParseError as exc:
        raise ParseFailure("%s: %s" % (args.map, exc))
    except maps.InvalidMap as exc:
        diags = exc.diagnostics
        _emit(args, "invalid\n" + "".join(d + "\n" for d in diags),
              {"valid": False, "diagnostics": diags})
        return 1
    stats = {"valid": True, "V": m.num_vertices, "E": m.num_edges,
             "F": len(m.faces), "genus": m.genus,
             "curves": len(maps.curves(m))}
    text = ("valid\nV=%(V)d E=%(E)d F=%(F)d genus=%(genus)d "
            "curves=%(curves)d\n" % stats)
    _emit(args, text, stats)
    return 0


def _cmd_faces(args):
    m, _ = _load_map(args.map)
    lines = ["F=%d" % len(m.faces)]
    for i, face in enumerate(m.faces):
        lines.append("f%d: %s" % (i, " ".join(str(h) for h in face)))
    _emit(args, "\n".join(lines) + "\n",
          {"F": len(m.faces), "faces": [list(f) for f in m.faces]})
    return 0


def _cmd_dualball(args):
    m, edges = _load_map(args.map)
    basis = _basis(args, m, edges)
    classes = sorted(coorient.eulco_classes(m, basis))
    ball = polytope.convex_hull(classes)
    if args.format == "off":
        text = _off_document(ball)
    elif args.format == "classes":
        text = "".join(" ".join(str(x) for x in c) + "\n" for c in classes)
    else:
        text = polytope.serialize_polytope(ball)
    _emit(args, text, {"classes": [list(c) for c in classes],
                       "vertices": [list(v) for v in ball.vertices]})
    return 0


def _off_document(ball):
    """Vertex-only nOFF export for external viewers."""
    lines = ["nOFF", str(ball.ambient_dim),
             "%d 0 0" % len(ball.vertices)]
    lines += [" ".join(str(x) for x in v) for v in ball.vertices]
    return "\n".join(lines) + "\n"


def _cmd_norm(args):
    m, edges = _load_map(args.map)
    basis = _basis(args, m, edges)
    a = tuple(args.coord)
    if len(a) != len(basis):
        raise DomainFailure("class vector needs %d coordinates" % len(basis))
    value = moves.norm(m, a, basis)
    _emit(args, "%d\n" % value, {"norm": value})
    return 0


def _cmd_smooth(args):
    m, _ = _load_map(args.map)
    try:
        children = moves.smooth(m, args.vertex)
    except ValueError as exc:
        raise DomainFailure(str(exc))
    parts = []
    doc = {"children": []}
    for i, child in enumerate(children):
        if child.degenerate:
            parts.append("child %d: degenerate (%s)\n" % (i, child.reason))
            doc["children"].append({"degenerate": True,
                                    "reason": child.reason})
        else:
            parts.append("child %d:\n%s" % (i, maps.serialize_map(child.map)))
            doc["children"].append({"degenerate": False,
                                    "map": maps.serialize_map(child.map)})
    _emit(args, "".join(parts), doc)
    return 0


def _cmd_reduce(args):
    m, _ = _load_map(args.map)
    try:
        reduced, trace = moves.reduce_map(m)
    except maps.MapError as exc:
        raise DomainFailure(str(exc))
    text = ("trace: %s\n" % " ".join("v%d/c%d" % s for s in trace)
            + maps.serialize_map(reduced))
    _emit(args, text, {"trace": [list(s) for s in trace],
                       "map": maps.serialize_map(reduced)})
    return 0


def _cmd_parity(args):
    m, edges = _load_map(args.map)
    basis = _basis(args, m, edges)
    parity = moves.norm_parity(m, basis)
    _emit(args, parity + "\n", {"parity": parity})
    return 0


def _cmd_realize_torus(args):
    p = _load_polytope(args.polygon)
    if p.ambient_dim == 2:
        # outside Z^2 torus.realize refuses the raw points, so no input
        # pays for a hull before its dimension is checked
        p = polytope.convex_hull(p.vertices)
    try:
        collection = torus.realize(p)
    except torus.PolygonError as exc:
        raise DomainFailure(str(exc))
    lines = ["(%d,%d) x %d" % (c[0], c[1], m) for c, m
             in collection.families]
    text = "\n".join(lines) + "\n"
    doc = {"families": [[list(c), m] for c, m in collection.families]}
    if args.emit_map:
        realized = torus.realize_map(collection)
        if realized is None:
            text += "# no map: fewer than two distinct classes\n"
            doc["map"] = None
        else:
            text += maps.serialize_map(realized)
            doc["map"] = maps.serialize_map(realized)
    _emit(args, text, doc)
    return 0


def _cmd_census(args):
    if args.exhaustive_maps:
        reps = census.exhaustive_unicellular_maps()
        text = "classes: %d\n" % len(reps) + "".join(
            maps.serialize_map(m) for m in reps)
        _emit(args, text, {"classes": len(reps),
                           "maps": [maps.serialize_map(m) for m in reps]})
        return 0
    reps = census.census()
    parts = ["classes: %d\n" % len(reps)]
    doc = {"classes": len(reps), "representatives": []}
    for build in reps:
        label = census.word_label(build.word)
        ball = build.dual_ball()
        parts.append("word: %s\n" % label)
        parts.append(maps.serialize_map(build.map))
        parts.append("walks:\n" + serialize_walks(build.map, build.walks))
        parts.append(polytope.serialize_polytope(ball, comment="dual ball"))
        doc["representatives"].append({
            "word": label,
            "map": maps.serialize_map(build.map),
            "walks": [list(w) for w in build.walks],
            "ball": [list(v) for v in ball.vertices],
        })
    _emit(args, "".join(parts), doc)
    return 0


def _cmd_verify_theorem(args):
    # the bound selects nothing: every bound gives the same census; the
    # range stays while perfbench's census workload still passes a bound
    if args.twist_bound < 2:
        raise DomainFailure("twist_bound must be at least 2")
    if args.twist_bound > 16:
        raise DomainFailure("twist_bound must be at most 16")
    report = census.verify_main_theorem()
    lines = ["classes: %d" % report["classes"]]
    for entry in report["balls"]:
        lines.append("%s: %d vertices, is_p8=%s" % (
            entry["word"], entry["vertices"],
            "true" if entry["is_p8"] else "false"))
    lines.append("intro polytope is_p8=%s"
                 % ("true" if report["intro_is_p8"] else "false"))
    lines.append("PASS" if report["pass"] else "FAIL")
    _emit(args, "\n".join(lines) + "\n", report)
    return 0 if report["pass"] else 1


def _cmd_check_p8(args):
    # decided on the raw points, so that no input pays for a large hull
    points = _load_polytope(args.polytope)
    try:
        member = polytope.hull_is_p8(points)
    except polytope.DimensionError as exc:
        raise DomainFailure(str(exc))
    text = "member of P8\n" if member else "not a member of P8\n"
    _emit(args, text, {"is_p8": member})
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="isonorm",
        description="Intersection norms of curve collections on surfaces.")
    parser.add_argument("--json", action="store_true",
                        help="emit JSON instead of plain text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a map file")
    p.add_argument("map")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("faces", help="face orbits of a map")
    p.add_argument("map")
    p.set_defaults(func=_cmd_faces)

    p = sub.add_parser("dualball", help="Eulerian classes and their hull")
    p.add_argument("map")
    p.add_argument("--walks", help="basis walks file (default: computed)")
    p.add_argument("--format", choices=("text", "off", "classes"),
                   default="text",
                   help="output format (off: vertex-only nOFF export; "
                   "classes: raw class vectors instead of the hull)")
    p.set_defaults(func=_cmd_dualball)

    p = sub.add_parser("norm", help="intersection norm of a class vector")
    p.add_argument("map")
    p.add_argument("coord", nargs="+", type=int)
    p.add_argument("--walks")
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("smooth", help="both smoothings at a vertex")
    p.add_argument("map")
    p.add_argument("vertex", type=int)
    p.set_defaults(func=_cmd_smooth)

    p = sub.add_parser("reduce", help="smooth until at most two faces")
    p.add_argument("map")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("parity", help="even/odd parity of the norm")
    p.add_argument("map")
    p.add_argument("--walks")
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("realize-torus",
                       help="realize a symmetric polygon on the torus")
    p.add_argument("polygon")
    p.add_argument("--emit-map", action="store_true")
    p.set_defaults(func=_cmd_realize_torus)

    p = sub.add_parser("census", help="one-faced genus-2 census")
    p.add_argument("--exhaustive-maps", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify-theorem",
                       help="check the census against the cube criterion")
    p.add_argument("--twist-bound", type=int, default=2)
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("check-p8",
                       help="eight-vertex cube sub-polytope membership")
    p.add_argument("polytope")
    p.set_defaults(func=_cmd_check_p8)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed stdout early shows up here, not at exit
        sys.stdout.flush()
    except ParseFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DomainFailure as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # send what is left to devnull, so the flush at exit cannot raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import io
import json

import pytest
from hypothesis import given, seed, settings, strategies as st

from isonorm import cli, homology, maps, polytope

from _helpers import FIXTURES, GOLDEN_BALLS


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fx(name):
    return str(FIXTURES / name)


class TestValidate:
    def test_census_map_is_valid(self, capsys):
        code, out, _ = run(capsys, "validate", fx("census1.map"))
        assert code == 0
        assert "valid" in out
        assert "genus=2" in out
        assert "F=1" in out

    def test_invalid_map_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("map V=2\nv0: 0 1 2 3\nv1: 4 5 6 7\n"
                       "e: 0 2\ne: 1 3\ne: 4 6\ne: 5 7\n")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 1
        assert "invalid" in out

    def test_unparseable_map_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("not a map\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate", "/nonexistent.map")
        assert code == 2

    def test_non_integer_header_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("map V=x\nv0: 0 1 2 3\ne: 0 2\ne: 1 3\n")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "bad header" in err


class TestFaces:
    def test_one_faced(self, capsys):
        code, out, _ = run(capsys, "faces", fx("census3.map"))
        assert code == 0
        assert out.startswith("F=1\n")
        assert out.count("f0:") == 1


class TestDualBall:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_matches_ball_fixtures(self, capsys, i):
        code, out, _ = run(capsys, "dualball", fx("census%d.map" % i),
                           "--walks", fx("census%d.walks" % i))
        assert code == 0
        got = polytope.parse_polytope(out)
        want = polytope.parse_polytope(
            (FIXTURES / ("census%d.ball" % i)).read_text())
        assert got == want

    def test_two_curve_class_vectors(self, capsys):
        code, out, _ = run(capsys, "dualball", fx("census2.map"),
                           "--walks", fx("census2.walks"), "--classes")
        assert code == 0
        classes = {tuple(int(x) for x in line.split())
                   for line in out.splitlines()}
        assert classes == GOLDEN_BALLS[1]

    def test_off_format(self, capsys):
        code, out, _ = run(capsys, "dualball", fx("census4.map"),
                           "--walks", fx("census4.walks"),
                           "--format", "off")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "nOFF"
        assert lines[1] == "4"
        assert lines[2] == "10 0 0"
        assert len(lines) == 13

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "--json", "dualball", fx("census2.map"),
                           "--walks", fx("census2.walks"))
        assert code == 0
        doc = json.loads(out)
        assert {tuple(v) for v in doc["vertices"]} == GOLDEN_BALLS[1]

    def test_deterministic(self, capsys):
        outs = {run(capsys, "dualball", fx("census1.map"))[1]
                for _ in range(2)}
        assert len(outs) == 1

    def test_bad_walk_token_exits_two(self, capsys, tmp_path):
        walks = tmp_path / "w.walks"
        walks.write_text("e0+ x3-\n")
        code, _, err = run(capsys, "dualball", fx("census1.map"),
                           "--walks", str(walks))
        assert code == 2
        assert "bad step" in err

    def test_walk_edge_out_of_range_exits_two(self, capsys, tmp_path):
        walks = tmp_path / "w.walks"
        walks.write_text("e99+\n")
        code, _, _ = run(capsys, "dualball", fx("census1.map"),
                         "--walks", str(walks))
        assert code == 2


class TestNorm:
    def test_basis_vector_norms_are_one(self, capsys):
        for coord in (["1", "0", "0", "0"], ["0", "0", "0", "1"]):
            code, out, _ = run(capsys, "norm", fx("census2.map"),
                               "--walks", fx("census2.walks"), *coord)
            assert code == 0
            assert out == "1\n"

    def test_wrong_arity_exits_one(self, capsys):
        code, _, err = run(capsys, "norm", fx("census2.map"), "1", "0")
        assert code == 1
        assert "coordinates" in err


class TestSmoothReduceParity:
    def test_smooth_prints_two_children(self, capsys):
        code, out, _ = run(capsys, "smooth", fx("census1.map"), "0")
        assert code == 0
        assert "child 0" in out and "child 1" in out

    def test_smooth_bad_vertex_exits_one(self, capsys):
        code, _, _ = run(capsys, "smooth", fx("census1.map"), "7")
        assert code == 1

    def test_reduce_one_faced_is_noop(self, capsys):
        code, out, _ = run(capsys, "reduce", fx("census4.map"))
        assert code == 0
        assert out.startswith("trace: \n")
        assert "map V=3" in out

    def test_parity_is_odd(self, capsys):
        code, out, _ = run(capsys, "parity", fx("census3.map"),
                           "--walks", fx("census3.walks"))
        assert code == 0
        assert out == "odd\n"


class TestRealizeTorus:
    def test_square_polygon(self, capsys, tmp_path):
        poly = tmp_path / "square.poly"
        poly.write_text("1 1\n1 -1\n-1 1\n-1 -1\n")
        code, out, _ = run(capsys, "realize-torus", str(poly), "--emit-map")
        assert code == 0
        assert "(0,1) x 1" in out and "(1,0) x 1" in out
        assert "map V=1" in out

    def test_segment_has_no_map(self, capsys, tmp_path):
        poly = tmp_path / "seg.poly"
        poly.write_text("3 0\n-3 0\n")
        code, out, _ = run(capsys, "realize-torus", str(poly), "--emit-map")
        assert code == 0
        assert "(0,1) x 3" in out
        assert "no map" in out

    def test_unrealizable_polygon_exits_one(self, capsys, tmp_path):
        poly = tmp_path / "odd.poly"
        poly.write_text("1 0\n0 1\n-1 0\n0 -1\n")
        code, _, err = run(capsys, "realize-torus", str(poly))
        assert code == 1

    def test_wrong_dimension_exits_one(self, capsys):
        code, _, _ = run(capsys, "realize-torus", fx("intro.poly"))
        assert code == 1


class TestCensusCommands:
    def test_census_lists_four_classes(self, capsys):
        code, out, _ = run(capsys, "census")
        assert code == 0
        assert out.startswith("classes: 4\n")
        assert out.count("word:") == 4

    def test_exhaustive_maps(self, capsys):
        code, out, _ = run(capsys, "census", "--exhaustive-maps")
        assert code == 0
        assert out.startswith("classes: 6\n")

    def test_small_twist_bound_exits_one(self, capsys):
        code, _, _ = run(capsys, "census", "--twist-bound", "1")
        assert code == 1

    def test_verify_theorem_passes(self, capsys):
        code, out, _ = run(capsys, "verify-theorem")
        assert code == 0
        assert out.rstrip().endswith("PASS")
        assert "intro polytope is_p8=true" in out


class TestCheckP8:
    def test_intro_polytope_is_member(self, capsys):
        code, out, _ = run(capsys, "check-p8", fx("intro.poly"))
        assert code == 0
        assert out == "member of P8\n"

    def test_ten_vertex_ball_is_not(self, capsys):
        code, out, _ = run(capsys, "check-p8", fx("census2.ball"))
        assert code == 0
        assert out == "not a member of P8\n"

    def test_wrong_dimension_exits_one(self, capsys, tmp_path):
        poly = tmp_path / "flat.poly"
        poly.write_text("1 1\n-1 -1\n")
        code, _, _ = run(capsys, "check-p8", str(poly))
        assert code == 1

    def test_mixed_dimensions_exit_two(self, capsys, tmp_path):
        poly = tmp_path / "mixed.poly"
        poly.write_text("1 2\n3 4 5\n")
        code, _, err = run(capsys, "check-p8", str(poly))
        assert code == 2
        assert "mixed dimension" in err


_MAP_LINES = st.one_of(
    st.sampled_from(["map V=1", "map V=2", "map V=0", "map V=-1",
                     "map V=x", "map V=99999999999999", "map", "# note"]),
    st.builds("{}: {}".format, st.sampled_from(["v0", "v1", "e", "x"]),
              st.lists(st.integers(-1, 8), max_size=5).map(
                  lambda hs: " ".join(map(str, hs)))),
    st.text(alphabet="mapV=ve:0123456789 -#x", max_size=16))
_POLY_LINES = st.one_of(
    st.lists(st.integers(-2, 2), max_size=5).map(
        lambda v: " ".join(map(str, v))),
    st.text(alphabet="0123456789 -#x", max_size=12))


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(map_text=st.lists(_MAP_LINES, max_size=8).map("\n".join),
       poly_text=st.lists(_POLY_LINES, max_size=6).map("\n".join))
def test_generated_input_gives_an_exit_code(tmp_path_factory, map_text,
                                            poly_text):
    d = tmp_path_factory.getbasetemp()
    (d / "fuzz.map").write_text(map_text)
    (d / "fuzz.poly").write_text(poly_text)
    for argv in (["validate", str(d / "fuzz.map")],
                 ["check-p8", str(d / "fuzz.poly")]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1, 2)



_WALK_TOKENS = st.one_of(
    st.builds("e{}{}".format, st.integers(-1, 13), st.sampled_from("+-")),
    st.text(alphabet="e0123456789+- #x", max_size=6))


@st.composite
def _class_set_input(draw):
    """Map text, walks text and class coordinates for the class-set
    subcommands.  The map is a random rotation and pairing on 1-3 vertices
    (often disconnected, so invalid) or a genus-2 census map, now and then
    with a line dropped; a valid map's walks are often its own basis walks,
    kept or with one step dropped."""
    nv = draw(st.integers(1, 3))
    rot = draw(st.permutations(range(4 * nv)))
    pair = draw(st.permutations(range(4 * nv)))
    lines = ["map V=%d" % nv]
    lines += ["v%d: %s" % (v, " ".join(map(str, rot[4 * v:4 * v + 4])))
              for v in range(nv)]
    lines += ["e: %d %d" % (pair[i], pair[i + 1])
              for i in range(0, 4 * nv, 2)]
    census = FIXTURES / ("census%d.map" % draw(st.integers(1, 4)))
    lines = draw(st.sampled_from([lines, census.read_text().splitlines()]))
    if draw(st.integers(0, 3)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    map_text = "\n".join(lines + draw(st.lists(_MAP_LINES, max_size=1)))
    walks = draw(st.lists(st.lists(_WALK_TOKENS, max_size=6).map(" ".join),
                          max_size=5))
    dim = draw(st.integers(1, 5))
    try:
        m, _ = maps.parse_map(map_text)
    except maps.MapParseError:
        m = None
    if m is not None and not maps.validate(m) and draw(st.booleans()):
        basis = homology.homology_basis(m).walks
        walks = cli.serialize_walks(m, basis).splitlines()
        dim = len(basis) or dim
        tokens = walks[0].split()
        if tokens and draw(st.booleans()):
            del tokens[draw(st.integers(0, len(tokens) - 1))]
            walks[0] = " ".join(tokens)
    coords = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    return map_text, "\n".join(walks), [str(x) for x in coords]


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(case=_class_set_input())
def test_generated_walks_give_an_exit_code(tmp_path_factory, case):
    map_text, walks_text, coords = case
    d = tmp_path_factory.getbasetemp()
    mp, wk = str(d / "fuzz.map"), str(d / "fuzz.walks")
    (d / "fuzz.map").write_text(map_text)
    (d / "fuzz.walks").write_text(walks_text)
    for argv in (["dualball", mp], ["norm", mp] + coords, ["parity", mp]):
        for walks_option in ([], ["--walks", wk]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv + walks_option)
            assert code in (0, 1, 2)


@st.composite
def _map_and_polygon_input(draw):
    """Map text, a vertex index and polygon text for the map and torus
    subcommands.  The map is a random rotation and pairing on 1-4
    vertices or a genus-2 census map, now and then with a line dropped or
    a junk line added; the polygon is a random point set, often closed
    under negation so that realization is attempted, or junk lines."""
    nv = draw(st.integers(1, 4))
    rot = draw(st.permutations(range(4 * nv)))
    pair = draw(st.permutations(range(4 * nv)))
    lines = ["map V=%d" % nv]
    lines += ["v%d: %s" % (v, " ".join(map(str, rot[4 * v:4 * v + 4])))
              for v in range(nv)]
    lines += ["e: %d %d" % (pair[i], pair[i + 1])
              for i in range(0, 4 * nv, 2)]
    census = FIXTURES / ("census%d.map" % draw(st.integers(1, 4)))
    lines = draw(st.sampled_from([lines, census.read_text().splitlines()]))
    if draw(st.integers(0, 3)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    map_text = "\n".join(lines + draw(st.lists(_MAP_LINES, max_size=1)))
    points = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           max_size=5))
    if draw(st.booleans()):
        points += [(-x, -y) for x, y in points]
    poly = ["%d %d" % p for p in points]
    poly = draw(st.sampled_from([poly, poly + draw(st.lists(_POLY_LINES,
                                                            max_size=2))]))
    vertex = draw(st.integers(-1, 4))
    return map_text, str(vertex), "\n".join(poly)


@seed(20261018)
@settings(max_examples=150, deadline=None, database=None)
@given(case=_map_and_polygon_input(), json_output=st.booleans())
def test_generated_maps_and_polygons_give_an_exit_code(tmp_path_factory,
                                                       case, json_output):
    map_text, vertex, poly_text = case
    d = tmp_path_factory.getbasetemp()
    mp, pp = str(d / "fuzz.map"), str(d / "fuzz.poly")
    (d / "fuzz.map").write_text(map_text)
    (d / "fuzz.poly").write_text(poly_text)
    for argv in (["faces", mp], ["smooth", mp, vertex], ["reduce", mp],
                 ["realize-torus", pp], ["realize-torus", pp, "--emit-map"]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--json"] * json_output + argv)
        assert code in (0, 1, 2)

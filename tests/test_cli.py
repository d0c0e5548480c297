import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from isonorm import cli, homology, maps, polytope, torus

from _helpers import CHAIN, FIXTURES, GOLDEN_BALLS, TORUS_FAMILIES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    # argparse refuses an option its subcommand does not take by raising
    # SystemExit, before any file is read or any search starts
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    return exc.value.code, out.out, out.err


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
                           "--walks", fx("census2.walks"),
                           "--format", "classes")
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

    @pytest.mark.parametrize("argv", [["--classes", "--format", "off"],
                                      ["--format", "off", "--classes"]])
    def test_classes_with_off_format_exits_two(self, capsys, argv):
        # the class list is a --format choice, so no second switch can
        # contradict the format
        code, out, err = usage_error(capsys, "dualball", fx("census4.map"),
                                     *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --classes" in err

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


def renumber_edges(map_text, walks_text, order, swap):
    """A map file with its ``e:`` lines reordered, the k-th new line being
    old line ``order[k]``, and the ids swapped on the old lines in ``swap``;
    and the walks file renumbered to match: edge k is the k-th ``e:`` line,
    and ``+`` steps on its first id."""
    lines = map_text.splitlines()
    old = [line.split()[1:] for line in lines if line.startswith("e:")]
    new = ["e: %s %s" % tuple(old[k][::-1] if k in swap else old[k])
           for k in order]
    index = {k: i for i, k in enumerate(order)}

    def step(tok):
        k = int(tok[1:-1])
        return "e%d%s" % (index[k], "+-"[(tok[-1] == "-") != (k in swap)])

    walks = [" ".join(step(tok) for tok in line.split("#", 1)[0].split())
             for line in walks_text.splitlines()]
    return ("\n".join([line for line in lines if not line.startswith("e:")]
                      + new) + "\n",
            "\n".join(walks) + "\n")


class TestWalksFiles:
    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("order, swap", [
        (lambda k: list(range(1, k)) + [0], ()),
        (lambda k: list(range(k))[::-1], ()),
        (lambda k: list(range(k)), (0, 2, 4))],
        ids=["first_last", "reversed", "swapped"])
    def test_steps_follow_the_map_files_edge_lines(self, capsys, tmp_path,
                                                   i, order, swap):
        map_text = (FIXTURES / ("census%d.map" % i)).read_text()
        walks_text = (FIXTURES / ("census%d.walks" % i)).read_text()
        k = sum(line.startswith("e:") for line in map_text.splitlines())
        map_text, walks_text = renumber_edges(map_text, walks_text,
                                              order(k), swap)
        mp, wk = tmp_path / "moved.map", tmp_path / "moved.walks"
        mp.write_text(map_text)
        wk.write_text(walks_text)
        for command, coords in ((["--json", "dualball"], []),
                                (["norm"], ["3", "-1", "2", "1"]),
                                (["parity"], [])):
            want = run(capsys, *command, fx("census%d.map" % i), *coords,
                       "--walks", fx("census%d.walks" % i))
            got = run(capsys, *command, str(mp), *coords, "--walks", str(wk))
            assert got == want
        if i == 1:
            assert run(capsys, "norm", str(mp), "3", "-1", "2", "1",
                       "--walks", str(wk)) == (0, "7\n", "")

    def test_census_walks_read_back_against_their_map(self, capsys,
                                                      tmp_path):
        code, out, _ = run(capsys, "census")
        assert code == 0
        blocks = out.split("word: ")[1:]
        assert len(blocks) == 4
        for block in blocks:
            head, ball = block.split("# dual ball\n")
            map_text, walks_text = head.split("\n", 1)[1].split("walks:\n")
            (tmp_path / "c.map").write_text(map_text)
            (tmp_path / "c.walks").write_text(walks_text)
            assert run(capsys, "dualball", str(tmp_path / "c.map"),
                       "--walks", str(tmp_path / "c.walks")) == (0, ball, "")


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

    CLASSES = ((3, -2, 1, 0), (0, 1, -2, 5), (1, 2, 3, 4), (-1, 1, 1, -1))
    # the norms of CLASSES on census<i>.map, in computed-basis coordinates
    # and in the coordinates of census<i>.walks
    PINNED = {(1, False): (6, 8, 10, 4), (1, True): (6, 8, 10, 4),
              (2, False): (6, 8, 6, 4), (2, True): (6, 6, 10, 4),
              (3, False): (6, 8, 6, 4), (3, True): (6, 8, 10, 2),
              (4, False): (6, 8, 8, 4), (4, True): (6, 6, 10, 4)}

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    @pytest.mark.parametrize("walks", [False, True])
    def test_pinned_census_norms(self, capsys, i, walks):
        option = ["--walks", fx("census%d.walks" % i)] if walks else []
        for a, value in zip(self.CLASSES, self.PINNED[i, walks]):
            argv = ["norm", fx("census%d.map" % i)]
            argv += [str(x) for x in a] + option
            assert run(capsys, *argv) == (0, "%d\n" % value, "")
            assert run(capsys, "--json", *argv) == (
                0, '{"norm": %d}\n' % value, "")


class TestSmoothReduceParity:
    def test_smooth_prints_two_children(self, capsys):
        code, out, _ = run(capsys, "smooth", fx("census1.map"), "0")
        assert code == 0
        assert "child 0" in out and "child 1" in out

    def test_smooth_reports_a_disconnecting_child(self, capsys, tmp_path):
        path = tmp_path / "chain.map"
        path.write_text(maps.serialize_map(CHAIN))
        child = ("map V=2\nv0: 0 1 2 3\nv1: 4 5 6 7\n"
                 "e: 0 7\ne: 1 2\ne: 3 4\ne: 5 6\n")
        code, out, _ = run(capsys, "smooth", str(path), "0")
        assert code == 0
        assert out == ("child 0: degenerate (map is disconnected)\n"
                       "child 1:\n" + child)
        code, out, _ = run(capsys, "--json", "smooth", str(path), "0")
        assert code == 0
        assert json.loads(out) == {"children": [
            {"degenerate": True, "reason": "map is disconnected"},
            {"degenerate": False, "map": child}]}

    def test_smooth_bad_vertex_exits_one(self, capsys):
        code, _, err = run(capsys, "smooth", fx("census1.map"), "7")
        assert code == 1
        assert err == "error: vertex 7 out of range\n"

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

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_pinned_census_parity(self, capsys, i):
        for option in ([], ["--walks", fx("census%d.walks" % i)]):
            argv = ["parity", fx("census%d.map" % i)] + option
            assert run(capsys, *argv) == (0, "odd\n", "")
            assert run(capsys, "--json", *argv) == (
                0, '{"parity": "odd"}\n', "")


class TestSmoothPins:
    """`isonorm smooth` output, recorded when smooth built its children
    from relabelled rotation and pairing arrays."""

    CENSUS1 = {
        0: ("map V=2\nv0: 0 3 1 2\nv1: 4 7 5 6\n"
            "e: 0 1\ne: 2 7\ne: 3 4\ne: 5 6\n",
            "map V=2\nv0: 0 3 1 2\nv1: 4 7 5 6\n"
            "e: 0 1\ne: 2 7\ne: 3 4\ne: 5 6\n"),
        1: ("map V=2\nv0: 0 2 1 3\nv1: 4 7 5 6\n"
            "e: 0 1\ne: 2 5\ne: 3 6\ne: 4 7\n",
            "map V=2\nv0: 0 2 1 3\nv1: 4 7 5 6\n"
            "e: 0 1\ne: 2 5\ne: 3 6\ne: 4 7\n"),
        2: (None,
            "map V=2\nv0: 0 2 1 3\nv1: 4 7 5 6\n"
            "e: 0 1\ne: 2 6\ne: 3 7\ne: 4 5\n"),
    }
    TORUS = {
        0: ("map V=2\nv0: 0 3 1 2\nv1: 4 6 5 7\n"
            "e: 0 5\ne: 1 4\ne: 2 7\ne: 3 6\n",
            "map V=2\nv0: 0 3 1 2\nv1: 4 6 5 7\n"
            "e: 0 4\ne: 1 5\ne: 2 7\ne: 3 6\n"),
        1: ("map V=2\nv0: 0 3 1 2\nv1: 4 6 5 7\n"
            "e: 0 7\ne: 1 6\ne: 2 5\ne: 3 4\n",
            "map V=2\nv0: 0 3 1 2\nv1: 4 6 5 7\n"
            "e: 0 6\ne: 1 7\ne: 2 5\ne: 3 4\n"),
        2: ("map V=2\nv0: 0 3 1 2\nv1: 4 7 5 6\n"
            "e: 0 5\ne: 1 4\ne: 2 6\ne: 3 7\n",
            "map V=2\nv0: 0 3 1 2\nv1: 4 7 5 6\n"
            "e: 0 5\ne: 1 4\ne: 2 7\ne: 3 6\n"),
    }

    @staticmethod
    def check(capsys, path, pins):
        for vertex, children in pins.items():
            text = ""
            doc = []
            for i, child in enumerate(children):
                if child is None:
                    text += "child %d: degenerate (map is disconnected)\n" % i
                    doc.append({"degenerate": True,
                                "reason": "map is disconnected"})
                else:
                    text += "child %d:\n%s" % (i, child)
                    doc.append({"degenerate": False, "map": child})
            assert run(capsys, "smooth", path, str(vertex)) == (0, text, "")
            code, out, err = run(capsys, "--json", "smooth", path,
                                 str(vertex))
            assert (code, err) == (0, "")
            assert json.loads(out) == {"children": doc}

    def test_census_map(self, capsys):
        self.check(capsys, fx("census1.map"), self.CENSUS1)

    def test_torus_map(self, capsys, tmp_path):
        m = torus.realize_map(torus.TorusCollection(TORUS_FAMILIES[0]))
        assert m.num_vertices == 3
        path = tmp_path / "torus.map"
        path.write_text(maps.serialize_map(m))
        self.check(capsys, str(path), self.TORUS)


class TestReducePins:
    """`isonorm --json reduce` output, recorded when every step built a
    new map."""

    @staticmethod
    def reduce_torus(capsys, tmp_path, families, num_vertices):
        m = torus.realize_map(torus.TorusCollection(families))
        assert m.num_vertices == num_vertices
        path = tmp_path / "torus.map"
        path.write_text(maps.serialize_map(m))
        code, out, err = run(capsys, "--json", "reduce", str(path))
        assert (code, err) == (0, "")
        return json.loads(out)

    def test_torus_family(self, capsys, tmp_path):
        assert TORUS_FAMILIES[2] == (((1, 0), 2), ((0, 1), 2), ((1, 1), 1),
                                     ((1, -1), 1))
        assert self.reduce_torus(capsys, tmp_path, TORUS_FAMILIES[2],
                                 14) == {
            "trace": [[0, 0]] * 9 + [[1, 0], [1, 0], [2, 1]],
            "map": "map V=2\nv0: 0 2 1 3\nv1: 4 6 5 7\n"
                   "e: 0 6\ne: 1 7\ne: 2 5\ne: 3 4\n"}

    def test_sixty_six_vertex_torus_map(self, capsys, tmp_path):
        # drawn as in test_moves.seeded_torus_maps with seed 5
        families = [((1, 2), 2), ((2, 1), 1), ((1, -2), 2), ((1, 3), 2)]
        assert self.reduce_torus(capsys, tmp_path, families, 66) == {
            "trace": ([[0, 0]] * 54 + [[0, 1]] + [[0, 0]] * 6 + [[0, 1]]
                      + [[0, 0]] * 2 + [[1, 0]]),
            "map": "map V=1\nv0: 0 3 1 2\ne: 0 1\ne: 2 3\n"}

    def test_blocked_one_vertex_map_exits_one(self, capsys, tmp_path):
        path = tmp_path / "eight.map"
        path.write_text("map V=1\nv0: 0 1 2 3\ne: 0 1\ne: 2 3\n")
        for option in ([], ["--json"]):
            assert run(capsys, *option, "reduce", str(path)) == (
                1, "", "error: reduction blocked: every face-merging "
                "smoothing would create a vertex-free loop\n")


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

    @pytest.mark.parametrize("emit_map", [[], ["--emit-map"]])
    def test_points_outside_the_plane_make_no_lp(self, capsys, tmp_path, rng,
                                                 monkeypatch, emit_map):
        # refused on the raw points: a hull of 120 points in [-50, 50]^4
        # before the dimension check took 15 s
        real = polytope.in_convex_hull
        calls = []

        def in_convex_hull(point, points):
            calls.append(point)
            return real(point, points)

        monkeypatch.setattr(polytope, "in_convex_hull", in_convex_hull)
        poly = TestCheckP8.write_points(tmp_path / "wide.poly", rng, -50, 50)
        code, out, err = run(capsys, "realize-torus", poly, *emit_map)
        assert (code, out, len(calls)) == (1, "", 0)
        assert err == "error: polygon must live in Z^2\n"


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

    def test_census_twist_bound_exits_two(self, capsys):
        # the census searches twists in [-1, 1] only, so it takes no bound
        code, out, err = usage_error(capsys, "census", "--twist-bound", "2")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --twist-bound 2" in err

    @pytest.mark.parametrize("bound", ["1", "2", "99"])
    def test_exhaustive_maps_with_twist_bound_exits_two(self, capsys, bound):
        code, out, err = usage_error(capsys, "census", "--exhaustive-maps",
                                     "--twist-bound", bound)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --twist-bound %s" % bound in err

    def test_closed_stdout_exits_one_without_traceback(self):
        # the read end is closed before the census is done, so the
        # child's first write meets a broken pipe
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "isonorm.cli", "--json", "census"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert b"Traceback" not in err and b"Error" not in err, err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_verify_theorem_small_twist_bound_exits_one(self, capsys,
                                                        json_flag):
        code, out, err = run(capsys, *json_flag, "verify-theorem",
                             "--twist-bound", "1")
        assert (code, out) == (1, "")
        assert err == "error: twist_bound must be at least 2\n"

    def test_small_twist_bound_exits_one(self, capsys):
        # the check is a range, not a refusal of the one value 1
        code, out, err = run(capsys, "verify-theorem", "--twist-bound", "0")
        assert (code, out) == (1, "")
        assert err == "error: twist_bound must be at least 2\n"

    @pytest.mark.parametrize("command", ["verify-theorem"])
    def test_large_twist_bound_exits_one(self, capsys, command):
        # every bound gives the same census; the range is kept only so
        # that perfbench's census argv, which passes --twist-bound 2,
        # stays valid until it drops the flag
        code, out, err = run(capsys, command, "--twist-bound", "17")
        assert (code, out) == (1, "")
        assert err == "error: twist_bound must be at most 16\n"

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

    @pytest.fixture
    def lps(self, monkeypatch):
        # the points of every hull LP check-p8 makes
        real = polytope.in_convex_hull
        calls = []

        def in_convex_hull(point, points):
            calls.append(point)
            return real(point, points)

        monkeypatch.setattr(polytope, "in_convex_hull", in_convex_hull)
        return calls

    @staticmethod
    def write_points(path, rng, lo, hi, dim=4, n=400):
        path.write_text("".join(
            " ".join(str(rng.randint(lo, hi)) for _ in range(dim)) + "\n"
            for _ in range(n)))
        return str(path)

    def test_points_outside_the_cube_make_no_lp(self, capsys, tmp_path,
                                                rng, lps):
        # P8 lies in [-1, 1]^4, so 400 points in [-50, 50]^4 are decided
        # without a hull, which took over a minute at one LP per point
        poly = self.write_points(tmp_path / "wide.poly", rng, -50, 50)
        code, out, _ = run(capsys, "check-p8", poly)
        assert (code, out, len(lps)) == (0, "not a member of P8\n", 0)

    def test_cube_points_make_at_most_81_lps(self, capsys, tmp_path, rng,
                                             lps):
        # 400 points in {-1, 0, 1}^4 are at most 81 distinct ones
        poly = self.write_points(tmp_path / "cube.poly", rng, -1, 1)
        code, out, _ = run(capsys, "check-p8", poly)
        assert (code, out) == (0, "not a member of P8\n")
        assert 0 < len(lps) <= 81

    def test_wrong_dimension_makes_no_lp(self, capsys, tmp_path, rng, lps):
        poly = self.write_points(tmp_path / "z5.poly", rng, -1, 1, dim=5)
        code, out, err = run(capsys, "check-p8", poly)
        assert (code, out, len(lps)) == (1, "", 0)
        assert err == "error: the eight-vertex cube test lives in Z^4\n"

    def test_mixed_dimensions_exit_two(self, capsys, tmp_path):
        poly = tmp_path / "mixed.poly"
        poly.write_text("1 2\n3 4 5\n")
        code, _, err = run(capsys, "check-p8", str(poly))
        assert code == 2
        assert "mixed dimension" in err


@pytest.mark.parametrize("argv", [
    ["validate", "BAD"], ["faces", "BAD"], ["dualball", "BAD"],
    ["norm", "BAD", "1", "0", "0", "0"], ["smooth", "BAD", "0"],
    ["reduce", "BAD"], ["parity", "BAD"],
    ["dualball", fx("census1.map"), "--walks", "BAD"],
    ["check-p8", "BAD"], ["realize-torus", "BAD"]],
    ids=lambda argv: argv[0] + "-walks" * ("--walks" in argv))
def test_file_that_is_not_utf8_exits_two(capsys, tmp_path, argv):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, *[str(bad) if a == "BAD" else a
                                   for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: %s: " % bad) and "Traceback" not in err


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
        m, edges = maps.parse_map(map_text)
    except (maps.MapParseError, maps.InvalidMap):
        m = None
    if m is not None and draw(st.booleans()):
        basis = homology.homology_basis(m).walks
        # tokens against the e: lines of the drawn text, in their order
        step = {h: "e%d%s" % (k, sign) for k, edge in enumerate(edges)
                for h, sign in zip(edge, "+-")}
        walks = [" ".join(step[h] for h in w) for w in basis] or [""]
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

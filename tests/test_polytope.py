import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isonorm import polytope, torus
from isonorm.polytope import (DimensionError, LatticePolytope, convex_hull,
                              in_convex_hull, is_p8, is_symmetric,
                              minkowski_sum, mod2_congruent, parse_polytope,
                              segment, serialize_polytope, support)

from _helpers import (BALL4, FIXTURES, INTRO_VECTORS,
                      hull_member_caratheodory, hull_vertices_oracle, pm,
                      rank_fraction)


class TestConvexHull:
    def test_interior_point_discarded(self):
        p = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
        assert p.vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))

    def test_ten_ball_vectors_are_all_vertices(self):
        p = convex_hull(BALL4)
        assert set(p.vertices) == BALL4

    def test_sixteen_sign_vectors_make_the_cube(self):
        cube = pm([(1, a, b, c) for a in (-1, 1) for b in (-1, 1)
                   for c in (-1, 1)])
        p = convex_hull(cube)
        assert len(p.vertices) == 16
        assert support(p, (1, 1, 1, 1)) == 4

    def test_idempotent_and_order_insensitive(self, rng):
        pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(9)]
        p = convex_hull(pts)
        rng.shuffle(pts)
        assert convex_hull(pts) == p
        assert convex_hull(p.vertices) == p

    def test_agrees_with_caratheodory_oracle(self, rng):
        for _ in range(40):
            pts = {tuple(rng.randint(-3, 3) for _ in range(4))
                   for _ in range(7)}
            assert convex_hull(pts).vertices == hull_vertices_oracle(pts)

    def test_membership_matches_oracle(self, rng):
        for _ in range(40):
            pts = [tuple(rng.randint(-3, 3) for _ in range(3))
                   for _ in range(6)]
            q = tuple(rng.randint(-3, 3) for _ in range(3))
            assert in_convex_hull(q, pts) == \
                hull_member_caratheodory(q, pts)


def random_planar_points(rng):
    """1-14 points in [-4, 4]^2: scattered, collinear or symmetric, with
    some points repeated."""
    n = rng.randint(1, 14)
    kind = rng.choice(("scattered", "collinear", "symmetric"))
    if kind == "collinear":
        dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1),
                             (1, -2)))
        x0, y0 = rng.randint(-2, 2), rng.randint(-2, 2)
        pts = [(x0 + t * dx, y0 + t * dy) for t in range(-2, 3)]
        pts = [rng.choice(pts) for _ in range(n)]
    else:
        pts = [(rng.randint(-4, 4), rng.randint(-4, 4))
               for _ in range((n + 1) // 2 if kind == "symmetric" else n)]
        if kind == "symmetric":
            pts += [(-x, -y) for x, y in pts]
    return pts + [rng.choice(pts) for _ in range(rng.randint(0, 2))]


class TestPlanarHull:
    """2-D hulls are an integer monotone chain, never an LP."""

    def test_agrees_with_caratheodory_oracle(self, rng):
        for _ in range(300):
            pts = random_planar_points(rng)
            assert convex_hull(pts).vertices == hull_vertices_oracle(pts)

    def test_one_point(self):
        assert convex_hull([(3, -1)]).vertices == ((3, -1),)

    def test_two_points(self):
        assert convex_hull([(1, 2), (-1, -2), (1, 2)]).vertices == (
            (-1, -2), (1, 2))

    def test_three_collinear_points_give_endpoints(self):
        assert convex_hull([(2, 2), (0, 0), (1, 1)]).vertices == (
            (0, 0), (2, 2))

    def test_square_with_midpoints_and_centre_gives_corners(self):
        pts = [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
        assert convex_hull(pts).vertices == (
            (-1, -1), (-1, 1), (1, -1), (1, 1))

    def test_no_lp_in_the_plane(self, monkeypatch):
        def no_lp(point, points):
            raise RuntimeError("hull LP called")

        monkeypatch.setattr(polytope, "in_convex_hull", no_lp)
        hexagon = ((-2, -1), (-2, 1), (0, -2), (0, 2), (2, -1), (2, 1))
        assert convex_hull(hexagon + ((0, 0), (1, 1))).vertices == hexagon
        assert minkowski_sum(segment((2, 0)),
                             segment((0, 1))).vertices == (
            (-2, -1), (-2, 1), (2, -1), (2, 1))
        assert parse_polytope("1 1\n-1 -1\n0 0\n").vertices == (
            (-1, -1), (1, 1))
        ball = torus.realized_ball(torus.TorusCollection(
            [((1, 0), 1), ((0, 1), 2), ((1, 1), 1)]))
        assert ball.vertices == ((-3, 0), (-3, 2), (-1, -2), (1, 2),
                                 (3, -2), (3, 0))
        with pytest.raises(RuntimeError, match="hull LP called"):
            convex_hull(BALL4)


class TestSupport:
    def test_cube_gives_l1_norm(self):
        cube = convex_hull(pm([(a, b, c, d) for a in (-1, 1)
                               for b in (-1, 1) for c in (-1, 1)
                               for d in (-1, 1)]))
        assert support(cube, (1, 1, 1, 1)) == 4
        assert support(cube, (2, -1, 0, 3)) == 6

    def test_segment_ball_counts_parallel_curves(self):
        # five parallel (0,1)-curves have ball [-(5,0), (5,0)]
        ball = segment((5, 0))
        assert support(ball, (1, 0)) == 5
        assert support(ball, (0, 1)) == 0

    def test_ten_vertex_ball_basis_norms(self):
        ball = convex_hull(BALL4)
        for a in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
            assert support(ball, a) == 1

    def test_asymmetric_ball_rejected(self):
        p = LatticePolytope([(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            support(p, (1, 0))

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
           st.integers(-9, 9), st.integers(-5, 5))
    @settings(max_examples=60, deadline=None)
    def test_norm_axioms(self, ax, ay, bx, by, n):
        ball = convex_hull(pm([(2, 1), (1, 3), (3, -1)]))
        a, b = (ax, ay), (bx, by)
        na = support(ball, a)
        assert support(ball, (n * ax, n * ay)) == abs(n) * na
        assert support(ball, (ax + bx, ay + by)) <= na + support(ball, b)


class TestPredicates:
    def test_cube_symmetric_and_congruent(self):
        cube = convex_hull(pm([(1, 1), (1, -1)]))
        assert is_symmetric(cube)
        assert mod2_congruent(cube)

    def test_cross_polytope_not_congruent(self):
        cross = convex_hull(pm([(1, 0, 0, 0), (0, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)]))
        assert is_symmetric(cross)
        assert not mod2_congruent(cross)

    def test_translated_square_not_symmetric(self):
        p = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
        assert not is_symmetric(p)


class TestMinkowskiSum:
    def test_unit_square(self):
        sq = minkowski_sum(segment((1, 0)), segment((0, 1)))
        assert sq.vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))

    def test_point_is_identity(self):
        p = convex_hull(pm([(2, 1), (1, 2)]))
        assert minkowski_sum(p, LatticePolytope([(0, 0)])) == p

    def test_three_generic_segments_make_hexagon(self):
        h = minkowski_sum(minkowski_sum(segment((1, 0)), segment((1, 1))),
                          segment((0, 1)))
        assert len(h.vertices) == 6

    def test_support_is_additive(self, rng):
        p = convex_hull(pm([(2, 1), (1, 3)]))
        q = convex_hull(pm([(1, 0), (1, -2)]))
        s = minkowski_sum(p, q)
        for _ in range(40):
            a = (rng.randint(-5, 5), rng.randint(-5, 5))
            assert support(s, a) == support(p, a) + support(q, a)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            minkowski_sum(segment((1, 0)), segment((1, 0, 0)))


class TestDim:
    def test_matches_rank_oracle(self, rng):
        # points spanning at most k directions from a base point, in Z^d:
        # single points, collinear, coplanar and full-dimensional sets
        seen = set()
        for d in (2, 3, 4):
            for k in range(d + 1):
                for _ in range(15):
                    base = [rng.randint(-5, 5) for _ in range(d)]
                    dirs = [[rng.randint(-3, 3) for _ in range(d)]
                            for _ in range(k)]
                    pts = [base]
                    for _ in range(rng.randint(k, k + 6)):
                        cs = [rng.randint(-2, 2) for _ in dirs]
                        pts.append([x + sum(c * v[i] for c, v in zip(cs, dirs))
                                    for i, x in enumerate(base)])
                    p = LatticePolytope(pts)
                    first = p.vertices[0]
                    rank = rank_fraction([[x - y for x, y in zip(v, first)]
                                          for v in p.vertices[1:]])
                    assert p.dim == rank
                    seen.add((d, rank))
        assert seen == {(d, r) for d in (2, 3, 4) for r in range(d + 1)}


class TestIsP8:
    def test_intro_polytope_is_member(self):
        assert is_p8(convex_hull(INTRO_VECTORS))

    def test_segment_has_empty_interior(self):
        assert not is_p8(convex_hull(pm([(1, 1, 1, 1)])))

    def test_cross_polytope_is_member(self):
        cross = convex_hull(pm([(1, 0, 0, 0), (0, 1, 0, 0),
                                (0, 0, 1, 0), (0, 0, 0, 1)]))
        assert is_p8(cross)

    def test_big_coordinates_excluded(self):
        p = convex_hull(pm([(2, 0, 0, 0), (0, 1, 0, 0),
                            (0, 0, 1, 0), (0, 0, 0, 1)]))
        assert not is_p8(p)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionError):
            is_p8(convex_hull(pm([(1, 1)])))


class TestTextFormat:
    def test_round_trip(self):
        p = convex_hull(BALL4)
        assert parse_polytope(serialize_polytope(p)) == p

    def test_intro_fixture_matches(self):
        p = parse_polytope((FIXTURES / "intro.poly").read_text())
        assert set(p.vertices) == INTRO_VECTORS

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_polytope("1 2\nx y\n")

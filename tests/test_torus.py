import pytest

from isonorm import polytope
from isonorm.maps import curves as map_curves, validate
from isonorm.polytope import convex_hull, minkowski_sum, segment, support
from isonorm.torus import (PolygonError, TorusCollection, check_polygon,
                           realize, realize_map, realized_ball, torus_norm,
                           zonotope_decompose)

from _helpers import pm


def random_symmetric_even_polygon(rng, bound=6, tries=200):
    for _ in range(tries):
        pts = {(2 * rng.randint(-bound // 2, bound // 2),
                2 * rng.randint(-bound // 2, bound // 2))
               for _ in range(rng.randint(1, 5))}
        pts |= {(-x, -y) for x, y in pts}
        p = convex_hull(pts)
        if not check_polygon(p) and len(p.vertices) >= 2:
            return p
    raise AssertionError("no polygon found")


class TestCollections:
    def test_classes_are_normalized(self):
        c = TorusCollection([((0, -1), 2), ((-1, 2), 1)])
        assert c == TorusCollection([((0, 1), 2), ((1, -2), 1)])

    def test_imprimitive_class_rejected(self):
        with pytest.raises(ValueError):
            TorusCollection([((2, 4), 1)])

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            TorusCollection([((1, 0), 0)])


class TestZonotopeDecompose:
    def test_square(self):
        sq = convex_hull(pm([(1, 1), (1, -1)]))
        assert zonotope_decompose(sq) == [(0, 1), (1, 0)]

    def test_segment(self):
        assert zonotope_decompose(segment((3, 1))) == [(3, 1)]

    def test_hexagon_round_trip(self):
        h = minkowski_sum(minkowski_sum(segment((1, 0)), segment((1, 1))),
                          segment((0, 1)))
        gens = zonotope_decompose(h)
        assert gens == [(0, 1), (1, 0), (1, 1)]
        rebuilt = None
        for w in gens:
            seg = segment(w)
            rebuilt = seg if rebuilt is None else minkowski_sum(rebuilt, seg)
        assert rebuilt == h

    def test_asymmetric_rejected(self):
        with pytest.raises(PolygonError):
            zonotope_decompose(convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)]))

    def test_odd_edges_rejected(self):
        with pytest.raises(PolygonError):
            zonotope_decompose(convex_hull(pm([(1, 0), (0, 1)])))

    def test_point_rejected(self):
        with pytest.raises(PolygonError):
            zonotope_decompose(convex_hull([(0, 0)]))


class TestRealize:
    def test_square_needs_both_basis_curves(self):
        sq = convex_hull(pm([(1, 1), (1, -1)]))
        assert realize(sq) == TorusCollection([((1, 0), 1), ((0, 1), 1)])

    def test_segment_gives_parallel_curves(self):
        c = realize(segment((5, 0)))
        assert c == TorusCollection([((0, 1), 5)])

    def test_realized_ball_round_trip(self, rng):
        for _ in range(25):
            p = random_symmetric_even_polygon(rng)
            assert realized_ball(realize(p)) == p

    def test_norm_agrees_with_support(self, rng):
        for _ in range(10):
            p = random_symmetric_even_polygon(rng)
            c = realize(p)
            for ax in range(-5, 6):
                for ay in range(-5, 6):
                    assert torus_norm(c, (ax, ay)) == support(p, (ax, ay))

    def test_norm_counts_crossings_by_determinant(self):
        c = TorusCollection([((1, 0), 2), ((1, 2), 1)])
        assert torus_norm(c, (0, 1)) == 2 * 1 + 1 * 1
        assert torus_norm(c, (1, 0)) == 0 + 2
        assert torus_norm(c, (0, 0)) == 0


class TestRealizeMap:
    def test_single_family_has_no_map(self):
        assert realize_map(TorusCollection([((1, 0), 3)])) is None

    def test_square_collection_gives_torus_cross(self):
        m = realize_map(realize(convex_hull(pm([(1, 1), (1, -1)]))))
        assert validate(m) == []
        assert m.num_vertices == 1
        assert m.genus == 1
        assert len(map_curves(m)) == 2

    def test_three_class_map_is_pinned(self):
        # pins the half-edge labelling of the map builder
        m = realize_map(TorusCollection([((1, 0), 1), ((0, 1), 1),
                                         ((1, 1), 1)]))
        assert m.rotation == (3, 2, 0, 1, 7, 6, 4, 5, 10, 11, 9, 8)
        assert m.pairing == (5, 4, 9, 8, 1, 0, 11, 10, 3, 2, 7, 6)

    def test_vertex_count_is_sum_of_determinants(self, rng):
        for _ in range(10):
            p = random_symmetric_even_polygon(rng)
            c = realize(p)
            if len(c.families) < 2:
                continue
            m = realize_map(c)
            fams = [(d, mult) for d, mult in c.families]
            expect = 0
            for i, (d1, m1) in enumerate(fams):
                for d2, m2 in fams[i + 1:]:
                    expect += m1 * m2 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            assert m.num_vertices == expect
            assert validate(m) == []
            assert m.genus == 1
            assert len(map_curves(m)) == sum(mult for _, mult in fams)

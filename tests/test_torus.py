from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from isonorm import polytope, torus
from isonorm.maps import MapError, curves as map_curves, validate
from isonorm.polytope import convex_hull, minkowski_sum, segment, support
from isonorm.torus import (PolygonError, TorusCollection, _line_crossings,
                           check_polygon, realize, realize_map, realized_ball,
                           torus_norm, zonotope_decompose)

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


def scan_crossings(curves):
    """Oracle for the torus crossings: try every lattice translate (u, v)
    in a window that holds all crossings of curves with offsets in
    [0, 1)^2, and check that each pair of curves crosses |det| times.

    Parameters are compared as integers over the common denominator
    q = den * det, so only the hits build Fractions.
    """
    den = 1
    for _, o in curves:
        for x in o:
            den = den * x.denominator // gcd(den, x.denominator)
    out = set()
    for i, (d1, o1) in enumerate(curves):
        for j in range(i + 1, len(curves)):
            d2, o2 = curves[j]
            det = d1[0] * d2[1] - d1[1] * d2[0]
            if det == 0:
                continue
            rx = int((o2[0] - o1[0]) * den)
            ry = int((o2[1] - o1[1]) * den)
            q = den * det
            ru = abs(d1[0]) + abs(d2[0]) + 2
            rv = abs(d1[1]) + abs(d2[1]) + 2
            found = 0
            for u in range(-ru, ru + 1):
                for v in range(-rv, rv + 1):
                    ns = (rx + den * u) * d2[1] - (ry + den * v) * d2[0]
                    nt = (rx + den * u) * d1[1] - (ry + den * v) * d1[0]
                    if q < 0:
                        ns, nt = -ns, -nt
                    if 0 <= ns < abs(q) and 0 <= nt < abs(q):
                        out.add(((i, Fraction(ns, abs(q))),
                                 (j, Fraction(nt, abs(q))),
                                 1 if det > 0 else -1))
                        found += 1
            assert found == abs(det)
    return out


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

    def test_repeated_classes_are_summed(self):
        c = TorusCollection([((1, 0), 1), ((1, 0), 1), ((0, 1), 1)])
        assert c == TorusCollection([((1, 0), 2), ((0, 1), 1)])
        assert c.families == (((0, 1), 1), ((1, 0), 2))

    def test_opposite_classes_are_one_family(self):
        c = TorusCollection([((1, 0), 1), ((-1, 0), 2)])
        assert c.families == (((1, 0), 3),)
        assert realize_map(c) is None


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
        # vertices that differ mod 2 are what makes an edge vector odd
        with pytest.raises(PolygonError, match="congruent mod 2"):
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


class TestLineCrossings:
    def test_closed_form_matches_scan_oracle(self):
        dirs = [(x, y) for x in range(-3, 4) for y in range(-3, 4)
                if gcd(x, y) == 1]
        offsets = [(Fraction(0), Fraction(0)),
                   (Fraction(1, 3), Fraction(2, 7)),
                   (Fraction(-5, 11), Fraction(9, 13))]
        for d1 in dirs:
            for d2 in dirs:
                for off in offsets:
                    curves = [(d1, (Fraction(0), Fraction(0))), (d2, off)]
                    got = _line_crossings(curves)
                    assert len(got) == len(set(got))
                    assert set(got) == scan_crossings(curves)

    def test_three_curves_cross_pairwise(self):
        curves = [((1, 0), (Fraction(1, 5), Fraction(1, 7))),
                  ((2, 3), (Fraction(0), Fraction(1, 2))),
                  ((-1, 2), (Fraction(3, 4), Fraction(0)))]
        got = _line_crossings(curves)
        assert len(got) == 3 + 2 + 7
        assert set(got) == scan_crossings(curves)

    def test_runs_of_parallel_curves_match_scan_oracle(self):
        # curves of one direction in runs, and one direction in two runs
        # apart: parallel curves never cross, in a run or across runs
        curves = [((1, 0), (Fraction(1, 5), Fraction(1, 7))),
                  ((1, 0), (Fraction(2, 5), Fraction(3, 7))),
                  ((2, 3), (Fraction(0), Fraction(1, 2))),
                  ((1, 0), (Fraction(3, 5), Fraction(6, 7))),
                  ((2, 3), (Fraction(1, 3), Fraction(1, 9))),
                  ((-1, 2), (Fraction(3, 4), Fraction(0)))]
        got = _line_crossings(curves)
        assert len(got) == len(set(got)) == 3 * 2 * 3 + 3 * 2 + 2 * 7
        assert set(got) == scan_crossings(curves)


class TestRealizeMap:
    def test_single_family_has_no_map(self):
        assert realize_map(TorusCollection([((1, 0), 3)])) is None

    def test_square_collection_gives_torus_cross(self):
        m = realize_map(realize(convex_hull(pm([(1, 1), (1, -1)]))))
        assert validate(m) == []
        assert m.num_vertices == 1
        assert m.genus == 1
        assert len(map_curves(m)) == 2

    def test_degenerate_offsets_take_the_next_salt(self, monkeypatch):
        # a MapError (two passages of one curve at one point) from the
        # offsets of one salt moves on to the next salt
        real, calls = torus.passages, []

        def first_fails(crossings, paths):
            calls.append(paths)
            if len(calls) == 1:
                raise MapError("two passages at parameter 0")
            return real(crossings, paths)

        monkeypatch.setattr(torus, "passages", first_fails)
        m = realize_map(TorusCollection([((1, 0), 1), ((0, 1), 1),
                                         ((1, 1), 1)]))
        assert calls == [3, 3]
        assert validate(m) == [] and m.num_vertices == 3

    def test_no_generic_offset_is_an_invariant_failure(self, monkeypatch):
        def always_fails(crossings, paths):
            raise MapError("two passages at parameter 0")

        monkeypatch.setattr(torus, "passages", always_fails)
        with pytest.raises(AssertionError):
            realize_map(TorusCollection([((1, 0), 1), ((0, 1), 1)]))

    def test_three_class_map_is_pinned(self):
        # pins the half-edge labelling of the map builder
        m = realize_map(TorusCollection([((1, 0), 1), ((0, 1), 1),
                                         ((1, 1), 1)]))
        assert m.rotation == (3, 2, 0, 1, 7, 6, 4, 5, 10, 11, 9, 8)
        assert m.pairing == (5, 4, 9, 8, 1, 0, 11, 10, 3, 2, 7, 6)

    @pytest.mark.parametrize("vertices, families", [
        # 505 copies of (1, 0): over the denominator 1013, copies t and s
        # with t + s + 4 = 1013 would coincide
        ([(1, 505), (-1, 505), (-1, -505), (1, -505)],
         (((0, 1), 1), ((1, 0), 505))),
        # over the denominators 997 and 1013, the two copies of
        # (1013, 997) would coincide for every salt
        ([(1995, -2026), (1993, -2026), (-1995, 2026), (-1993, 2026)],
         (((0, 1), 1), ((1013, 997), 2))),
    ], ids=["rectangle", "parallelogram"])
    def test_parallel_copies_never_coincide(self, vertices, families):
        c = realize(convex_hull(vertices))
        assert c.families == families
        m = realize_map(c)
        assert validate(m) == []
        assert m.num_vertices == sum(
            m1 * m2 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            for i, (d1, m1) in enumerate(families)
            for d2, m2 in families[i + 1:])
        assert m.genus == 1
        assert len(map_curves(m)) == sum(mult for _, mult in families)

    def test_parallel_copies_cost_no_work_per_pair(self, monkeypatch):
        # the rectangle (+-1, +-k) is k copies of (1, 0) and one of
        # (0, 1): k crossings, but k^2 / 2 pairs of parallel copies.  The
        # determinants are taken per pair of runs of parallel curves and
        # per crossing pair of curves, not per pair of curves (about two
        # million calls at k = 2,000)
        k = 2000
        calls = Counter()
        real = torus._det

        def det(u, v):
            calls[None] += 1
            return real(u, v)

        c = realize(convex_hull([(1, k), (-1, k), (-1, -k), (1, -k)]))
        assert c.families == (((0, 1), 1), ((1, 0), k))
        monkeypatch.setattr(torus, "_det", det)
        m = realize_map(c)
        assert m.num_vertices == k
        assert 0 < calls[None] <= 4 * (k + len(c.families) ** 2)

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

"""End-to-end acceptance gate.

One test per numbered guarantee of the package: golden dual balls, the
four-class census and its main-theorem consequence, oracle equivalence of
the core enumerations, the smoothing union property, parity and symmetry
invariants, the torus realizability round trip, the norm axioms and the
structural invariants of the one-faced genus-2 maps.  Set-equality checks
are exact with zero tolerance.
"""

from itertools import combinations

import pytest

from isonorm import census, coorient, homology, moves, polytope, torus
from isonorm.maps import curves as map_curves, validate
from isonorm.polytope import convex_hull, in_convex_hull, support

from _helpers import (EVEN_F2, FIGURE_EIGHT, GOLDEN_BALLS, INTRO_VECTORS,
                      REDUCIBLE_F3, TORUS_CROSS, brute_force_eulerian,
                      det_fraction, hull_vertices_oracle,
                      one_faced_ball_oracle, random_valid_map)

SMALL_FIXTURES = [FIGURE_EIGHT, TORUS_CROSS, REDUCIBLE_F3, EVEN_F2]


@pytest.fixture(scope="module")
def golden_ball_polytopes(census_builds):
    return [b.dual_ball() for b in census_builds]


# ---------------------------------------------------------------------------
# 1. Golden dual balls: exact vertex sets, zero tolerance
# ---------------------------------------------------------------------------

class TestGoldenDualBalls:
    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_exact_vertex_set(self, golden_ball_polytopes, i):
        assert set(golden_ball_polytopes[i].vertices) == GOLDEN_BALLS[i]

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_matches_one_face_oracle(self, census_builds, i):
        build = census_builds[i]
        assert one_faced_ball_oracle(build.map, build.walks) == \
            GOLDEN_BALLS[i]

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_full_dimensional(self, i):
        # a one-faced collection fills the surface, so its ball has rank 4
        assert any(det_fraction(rows)
                   for rows in combinations(sorted(GOLDEN_BALLS[i]), 4))


# ---------------------------------------------------------------------------
# 2. Census count: exactly four classes, stable under a wider twist window
# ---------------------------------------------------------------------------

class TestCensusCount:
    def test_four_classes_at_bound_two(self, census_reps):
        assert len(census_reps) == 4

    def test_stable_at_bound_four(self, census_reps):
        from isonorm.maps import canonical_key
        wide = census._classes(range(-4, 5))
        assert [canonical_key(b.map, allow_reflection=True) for b in wide] \
            == [canonical_key(b.map, allow_reflection=True)
                for b in census_reps]


# ---------------------------------------------------------------------------
# 3. Main theorem: ball sizes, no ball in P8, intro polytope in P8
# ---------------------------------------------------------------------------

class TestMainTheorem:
    def test_reported_vertex_counts(self):
        report = census.verify_main_theorem()
        assert sorted(e["vertices"] for e in report["balls"]) == \
            [10, 10, 12, 16]

    def test_no_census_ball_is_in_p8(self):
        report = census.verify_main_theorem()
        assert not any(e["is_p8"] for e in report["balls"])
        assert report["pass"]

    def test_intro_polytope_is_in_p8(self):
        assert polytope.is_p8(convex_hull(INTRO_VECTORS))


# ---------------------------------------------------------------------------
# 4. Oracle equivalence: co-orientation enumeration and convex hull
# ---------------------------------------------------------------------------

class TestOracleEquivalence:
    def test_enumeration_matches_brute_force(self, census_builds):
        fixtures = SMALL_FIXTURES + [b.map for b in census_builds]
        for m in fixtures:
            assert m.num_edges <= 12
            fast = {nu.designated for nu in coorient.enumerate_eulerian(m)}
            slow = {nu.designated for nu in brute_force_eulerian(m)}
            assert fast == slow

    def test_convex_hull_matches_certification_oracle(self, rng):
        for _ in range(200):
            pts = {tuple(rng.randint(-3, 3) for _ in range(4))
                   for _ in range(rng.randint(2, 8))}
            assert convex_hull(pts).vertices == hull_vertices_oracle(pts)


# ---------------------------------------------------------------------------
# 5. Smoothing union property on every applicable census vertex
# ---------------------------------------------------------------------------

class TestSmoothingUnion:
    def test_class_set_and_hull_equality(self, census_builds):
        applicable = 0
        for build in census_builds:
            for v in range(build.map.num_vertices):
                ok, holds, detail = moves.eulco_union_check(
                    build.map, v, build.walks)
                if not ok:
                    continue
                applicable += 1
                assert holds
                union = detail["children"][0] | detail["children"][1]
                assert convex_hull(union) == convex_hull(detail["parent"])
        assert applicable > 0


# ---------------------------------------------------------------------------
# 6. Parity and symmetry invariants on fixtures and random maps
# ---------------------------------------------------------------------------

class TestClassSetInvariants:
    def check(self, m):
        eulcos = coorient.enumerate_eulerian(m)
        assert len(eulcos) >= 2 ** len(map_curves(m))
        classes = coorient.eulco_classes(m, homology.homology_basis(m))
        base = next(iter(classes))
        for v in classes:
            assert tuple(-x for x in v) in classes
            assert all((x - y) % 2 == 0 for x, y in zip(v, base))

    def test_fixtures(self, census_builds):
        for m in SMALL_FIXTURES + [b.map for b in census_builds]:
            self.check(m)

    def test_random_maps(self, rng):
        for _ in range(100):
            self.check(random_valid_map(rng, rng.randint(1, 5)))


# ---------------------------------------------------------------------------
# 7. Torus realizability round trip
# ---------------------------------------------------------------------------

class TestTorusRoundTrip:
    def random_polygon(self, rng):
        while True:
            pts = {(2 * rng.randint(-3, 3), 2 * rng.randint(-3, 3))
                   for _ in range(rng.randint(1, 5))}
            pts |= {(-x, -y) for x, y in pts}
            p = convex_hull(pts)
            if not torus.check_polygon(p) and len(p.vertices) >= 2:
                return p

    def test_realize_and_reassemble(self, rng):
        for _ in range(100):
            p = self.random_polygon(rng)
            collection = torus.realize(p)
            assert torus.realized_ball(collection) == p
            for ax in range(-5, 6):
                for ay in range(-5, 6):
                    assert torus.torus_norm(collection, (ax, ay)) == \
                        support(p, (ax, ay))


# ---------------------------------------------------------------------------
# 8. Norm axioms on every computed ball
# ---------------------------------------------------------------------------

class TestNormAxioms:
    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_homogeneity_and_triangle_inequality(
            self, golden_ball_polytopes, rng, i):
        ball = golden_ball_polytopes[i]
        for _ in range(1000):
            a = tuple(rng.randint(-9, 9) for _ in range(4))
            b = tuple(rng.randint(-9, 9) for _ in range(4))
            n = rng.randint(-5, 5)
            na = support(ball, a)
            assert support(ball, tuple(n * x for x in a)) == abs(n) * na
            assert support(ball, tuple(x + y for x, y in zip(a, b))) <= \
                na + support(ball, b)


# ---------------------------------------------------------------------------
# 9. Structural invariants of the one-faced genus-2 maps
# ---------------------------------------------------------------------------

class TestStructuralInvariants:
    def test_one_faced_genus_two_maps_have_three_vertices(
            self, census_builds, census_reps):
        for build in census_builds + census_reps:
            m = build.map
            assert len(m.faces) == 1
            assert m.genus == 2
            assert m.num_vertices == 3

    def test_euler_formula_on_exhaustive_enumeration(self):
        reps = census.exhaustive_unicellular_maps()
        assert reps
        for m in reps:
            assert validate(m) == []
            assert m.num_vertices - m.num_edges + len(m.faces) == \
                2 - 2 * m.genus

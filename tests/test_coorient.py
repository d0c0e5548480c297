import pytest

from isonorm import census, coorient, homology
from isonorm.coorient import (CoOrientation, brute_force_eulerian,
                              enumerate_eulerian, eulco_classes,
                              from_curve_orientations, is_eulerian,
                              vertex_type)
from isonorm.maps import curves

from _helpers import (BALL2, FIGURE_EIGHT, TORUS_CROSS, WORDS,
                      random_valid_map)


@pytest.fixture(scope="module")
def census_builds():
    return [census.word_to_map(w) for w in WORDS]


class TestIsEulerian:
    def test_curve_orientation_coorientation(self, census_builds):
        for build in census_builds:
            nu = from_curve_orientations(build.map)
            assert is_eulerian(build.map, nu)

    def test_flipping_one_edge_breaks_it(self, census_builds):
        m = census_builds[0].map
        nu = from_curve_orientations(m)
        designated = list(nu.designated)
        designated[0] = m.pairing[designated[0]]
        flipped = CoOrientation(m, designated)
        # flipping exactly one edge unbalances both endpoint vertices of a
        # non-loop edge (and keeps loops balanced)
        a, b = m.edges[0]
        if m.vertex_of[a] != m.vertex_of[b]:
            assert not is_eulerian(m, flipped)

    def test_wrong_count_rejected(self):
        m = TORUS_CROSS
        # designate both germs of the vertex from the same edge only: the
        # encoding forbids it, so check via raw germ sets instead
        assert not is_eulerian(m, {0, 1, 2})


class TestVertexType:
    def test_curve_orientations_give_non_alternating(self, census_builds):
        for build in census_builds:
            m = build.map
            nu = from_curve_orientations(m)
            for v in range(m.num_vertices):
                assert vertex_type(m, nu, v) == "non-alternating"

    def test_figure_eight_has_both_types(self):
        types = {vertex_type(FIGURE_EIGHT, nu, 0)
                 for nu in enumerate_eulerian(FIGURE_EIGHT)}
        assert types == {"alternating", "non-alternating"}

    def test_reversal_preserves_types(self, census_builds):
        m = census_builds[1].map
        for nu in enumerate_eulerian(m):
            rev = nu.reversed()
            for v in range(m.num_vertices):
                assert vertex_type(m, nu, v) == vertex_type(m, rev, v)

    def test_out_of_range_vertex_rejected(self):
        nu = next(iter(enumerate_eulerian(TORUS_CROSS)))
        with pytest.raises(ValueError):
            vertex_type(TORUS_CROSS, nu, 5)


class TestEnumerate:
    def test_matches_brute_force_on_small_maps(self, census_builds):
        small = [FIGURE_EIGHT, TORUS_CROSS] + [b.map for b in census_builds]
        for m in small:
            fast = {nu.designated for nu in enumerate_eulerian(m)}
            slow = {nu.designated for nu in brute_force_eulerian(m)}
            assert fast == slow

    def test_matches_brute_force_on_random_maps(self, rng):
        for _ in range(15):
            m = random_valid_map(rng, rng.randint(1, 4))
            fast = {nu.designated for nu in enumerate_eulerian(m)}
            slow = {nu.designated for nu in brute_force_eulerian(m)}
            assert fast == slow

    def test_lower_bound_two_to_the_curves(self, census_builds):
        for build in census_builds:
            c = len(curves(build.map))
            assert len(enumerate_eulerian(build.map)) >= 2 ** c

    def test_no_duplicates(self, census_builds):
        m = census_builds[0].map
        es = enumerate_eulerian(m)
        assert len({nu.designated for nu in es}) == len(es)

    def test_closed_under_reversal(self, census_builds):
        m = census_builds[2].map
        es = {nu.designated for nu in enumerate_eulerian(m)}
        for designated in es:
            assert tuple(m.pairing[h] for h in designated) in es


class TestClasses:
    def test_census_two_curve_class_set(self, census_builds):
        build = census_builds[1]
        assert build.eulco_classes() == BALL2

    def test_cube_class_set(self, census_builds):
        build = census_builds[0]
        assert len(build.eulco_classes()) == 16

    def test_classes_symmetric_and_congruent(self, rng):
        for _ in range(15):
            m = random_valid_map(rng, rng.randint(2, 4))
            if m.genus == 0:
                continue
            classes = eulco_classes(m)
            base = next(iter(classes))
            for v in classes:
                assert tuple(-x for x in v) in classes
                assert all((x - y) % 2 == 0 for x, y in zip(v, base))

    def test_default_basis_used_when_omitted(self, census_builds):
        m = census_builds[0].map
        basis = homology.homology_basis(m)
        assert eulco_classes(m) == eulco_classes(m, basis)

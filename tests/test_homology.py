import pytest

from isonorm import census, coorient, homology
from isonorm.homology import (class_of, coboundary, dual_graph, evaluate,
                              homology_basis, intersection_form,
                              smith_normal_form, vertex_circle)
from isonorm.torus import TorusCollection, realize_map

from _helpers import (FIGURE_EIGHT, STANDARD_SYMPLECTIC, TORUS_CROSS,
                      TORUS_FAMILIES, WORDS, det_fraction, random_valid_map)


@pytest.fixture(scope="module")
def census_builds():
    return [census.word_to_map(w) for w in WORDS]


class TestDualGraph:
    def test_one_faced_map_gives_loops_only(self, census_builds):
        for build in census_builds:
            dg = dual_graph(build.map)
            assert dg.num_nodes == 1
            assert len(dg.links) == 2 * build.map.num_vertices
            assert all(a == b == 0 for a, b in dg.links)

    def test_multi_faced_map_node_count(self):
        dg = dual_graph(FIGURE_EIGHT)
        assert dg.num_nodes == 3
        assert len(dg.links) == FIGURE_EIGHT.num_edges


class TestSmithNormalForm:
    CASES = [
        [[2, 4], [6, 8]],
        [[1, 0, 0], [0, 0, 0]],
        [[0, 0], [0, 0]],
        [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
        [[2, 0], [0, 3], [0, 0]],
    ]

    @pytest.mark.parametrize("mat", CASES)
    def test_factorization_certificate(self, mat):
        u, d, v = smith_normal_form([row[:] for row in mat])
        # U * mat * V == D
        prod = homology.matmul(homology.matmul(u, mat), v)
        assert prod == d
        # U, V unimodular
        assert abs(det_fraction(u)) == 1
        assert abs(det_fraction(v)) == 1
        # D diagonal, non-negative, with divisibility
        diag = []
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
                else:
                    diag.append(x)
        diag = [x for x in diag if x != 0]
        assert all(x > 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0

    def test_random_matrices(self, rng):
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            mat = [[rng.randint(-5, 5) for _ in range(cols)]
                   for _ in range(rows)]
            self.test_factorization_certificate(mat)


class TestSmithInverse:
    """U^-1 carried through the Smith elimination against the Fraction
    Gauss-Jordan inverse of U."""

    @staticmethod
    def check(mat):
        u, d, v, uinv = homology._smith(mat)
        assert (u, d, v) == smith_normal_form(mat)
        assert uinv == homology.integer_inverse(u)
        identity = [[int(i == j) for j in range(len(u))]
                    for i in range(len(u))]
        assert homology.matmul(u, uinv) == identity

    def test_random_matrices(self, rng):
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            self.check([[rng.randint(-5, 5) for _ in range(cols)]
                        for _ in range(rows)])

    def test_boundary_matrices(self, rng, census_builds):
        maps = [b.map for b in census_builds]
        maps += [realize_map(TorusCollection(f)) for f in TORUS_FAMILIES]
        maps += [random_valid_map(rng, rng.randint(1, 5)) for _ in range(20)]
        for m in maps:
            # columns are the vertex circles in fundamental-cycle
            # coordinates, as homology_basis builds them
            boundary = homology_basis(m).boundary
            if boundary[0]:
                self.check([list(r) for r in zip(*boundary)])


class TestHomologyBasis:
    def test_rank_is_two_g(self, census_builds):
        for build in census_builds:
            basis = homology_basis(build.map)
            assert len(basis) == 4
            assert all(x == 1 for x in basis.divisors)

    def test_genus_one_map(self):
        basis = homology_basis(TORUS_CROSS)
        assert len(basis) == 2

    def test_walks_are_valid(self, rng):
        for _ in range(20):
            m = random_valid_map(rng, rng.randint(1, 4))
            basis = homology_basis(m)
            assert len(basis) == 2 * m.genus
            for w in basis.walks:
                homology.check_walk(m, w)

    def test_deterministic(self, census_builds):
        m = census_builds[0].map
        assert homology_basis(m).walks == homology_basis(m).walks


class TestEvaluate:
    def test_eulerian_cochain_vanishes_on_vertex_circles(self, census_builds):
        m = census_builds[0].map
        for nu in coorient.enumerate_eulerian(m):
            for v in range(m.num_vertices):
                assert evaluate(m, nu.signs(), vertex_circle(m, v)) == 0

    def test_empty_walk_is_zero(self, census_builds):
        m = census_builds[0].map
        nu = next(iter(coorient.enumerate_eulerian(m)))
        assert evaluate(m, nu.signs(), ()) == 0

    def test_reversal_negates(self, census_builds):
        m = census_builds[1].map
        nu = next(iter(coorient.enumerate_eulerian(m)))
        for w in homology_basis(m).walks:
            rev = homology.reverse_walk(m, w)
            assert evaluate(m, nu.signs(), rev) == \
                -evaluate(m, nu.signs(), w)


class TestClassOf:
    def test_negation_is_linear(self, census_builds):
        m = census_builds[2].map
        basis = homology_basis(m)
        for nu in coorient.enumerate_eulerian(m):
            plus = class_of(m, nu.signs(), basis)
            minus = class_of(m, nu.reversed().signs(), basis)
            assert minus == tuple(-x for x in plus)

    def test_coboundaries_have_zero_class(self, rng):
        for _ in range(20):
            m = random_valid_map(rng, rng.randint(2, 4))
            basis = homology_basis(m)
            pots = [rng.randint(-3, 3) for _ in m.faces]
            cochain = coboundary(m, pots)
            assert class_of(m, cochain, basis) == (0,) * len(basis)

    def test_census_classes_stay_in_unit_cube(self, census_builds):
        build = census_builds[0]
        for cls in build.eulco_classes():
            assert all(-1 <= x <= 1 for x in cls)

    def test_non_cocycle_rejected(self, census_builds):
        m = census_builds[0].map
        cochain = [0] * m.n
        cochain[0] = 1
        cochain[m.pairing[0]] = -1
        if not homology.is_cocycle(m, cochain):
            with pytest.raises(ValueError):
                class_of(m, cochain, homology_basis(m))


class TestIntersectionForm:
    def test_antisymmetric_with_zero_diagonal(self, census_builds):
        for build in census_builds:
            form = intersection_form(build.map, build.walks)
            k = len(form)
            for i in range(k):
                assert form[i][i] == 0
                for j in range(k):
                    assert form[i][j] == -form[j][i]

    def test_census_basis_is_standard_symplectic(self, census_builds):
        for build in census_builds:
            form = intersection_form(build.map, build.walks)
            assert tuple(tuple(r) for r in form) == STANDARD_SYMPLECTIC

    def test_unit_determinant_on_computed_bases(self, rng):
        for _ in range(15):
            m = random_valid_map(rng, rng.randint(1, 4))
            if m.genus == 0:
                continue
            form = intersection_form(m, homology_basis(m))
            assert abs(det_fraction(form)) == 1

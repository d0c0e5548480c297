import random
import signal
from functools import reduce
from math import gcd

import pytest

from isonorm import coorient, homology
from isonorm.homology import (class_of, coboundary, evaluate,
                              homology_basis, integer_inverse,
                              intersection_form, smith_normal_form,
                              vertex_circle)
from isonorm.maps import CombinatorialMap
from isonorm.torus import TorusCollection, realize_map

from _helpers import (CHAIN, FIGURE_EIGHT, STANDARD_SYMPLECTIC, TORUS_CROSS,
                      TORUS_FAMILIES, det_fraction, determinantal_divisors,
                      matmul, random_valid_map)


@pytest.fixture(scope="module")
def torus_maps():
    return [realize_map(TorusCollection(f)) for f in TORUS_FAMILIES]


def check_smith(mat):
    """smith_normal_form(mat) against independent oracles: the divisors
    are the ratios of the determinantal divisors, U = (U^-1)^-1 is an
    integer matrix, and row i of U*mat has content d_i, so the rows past
    the rank are zero."""
    divisors, uinv = smith_normal_form(mat)
    dets = determinantal_divisors(mat)
    assert divisors == [d // p for p, d in zip([1] + dets, dets)]
    u = homology.integer_inverse(uinv)  # raises unless U^-1 is unimodular
    contents = [reduce(gcd, row, 0) for row in matmul(u, mat)]
    assert contents == divisors + [0] * (len(mat) - len(divisors))


def check_all(mats, seconds=20):
    """check_smith on every matrix, failing with the matrix at hand when
    the whole sweep passes ``seconds`` of wall time instead of hanging."""
    mat = None

    def expire(signum, frame):
        raise AssertionError("Smith sweep passed %s s on %r" % (seconds, mat))

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        for mat in mats:
            check_smith(mat)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# Sweeping row t while a Euclid row swap had left the old pivot in column t
# grew this matrix's entries to 357 bits by the 4th pivot, without end.
DENSE_6X6 = [[-3, -1, 4, -3, 3, -5], [4, -1, 2, 3, -2, 1],
             [3, -5, 2, -2, -1, 2], [-4, 2, 1, -1, 0, 2],
             [3, -2, 0, -4, -2, -4], [-4, 3, -4, -2, 3, 4]]


class TestSmithNormalForm:
    CASES = [
        [[2, 4], [6, 8]],
        [[1, 0, 0], [0, 0, 0]],
        [[0, 0], [0, 0]],
        [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
        [[2, 0], [0, 3], [0, 0]],
        # a unit pivot first, then a block that needs the divisibility fix
        [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
    ]

    @pytest.mark.parametrize("mat", CASES)
    def test_factorization_certificate(self, mat):
        check_smith(mat)

    def test_divisibility_fix_after_unit_pivot(self):
        assert smith_normal_form(self.CASES[-1])[0] == [1, 1, 6]

    def test_dense_six_by_six_finishes(self):
        check_all([DENSE_6X6], seconds=1)
        assert smith_normal_form(DENSE_6X6)[0] == [1, 1, 1, 1, 1, 9520]

    def test_random_matrices(self, rng):
        mats = []
        for _ in range(300):
            rows = rng.randint(1, 7)
            cols = rng.randint(1, 7)
            mats.append([[rng.randint(-5, 5) for _ in range(cols)]
                         for _ in range(rows)])
        check_all(mats)

    def test_boundary_matrices(self, rng, census_builds, torus_maps):
        maps = [b.map for b in census_builds] + torus_maps
        maps += [random_valid_map(rng, rng.randint(1, 5)) for _ in range(20)]
        mats = []
        for m in maps:
            # columns are the vertex circles in fundamental-cycle
            # coordinates, as homology_basis builds them
            _, nontree = homology._spanning_tree(m)
            if nontree:
                mats.append(homology._vertex_boundaries(m, nontree))
        check_all(mats)


def test_walk_step_that_is_no_half_edge_rejected():
    with pytest.raises(homology.WalkError):
        homology.check_walk(TORUS_CROSS, (0, 4))


def test_non_unimodular_matrix_has_no_integer_inverse():
    with pytest.raises(ValueError):
        integer_inverse([[2, 0], [0, 1]])


class TestSmithInverse:
    """The U^-1 returned by smith_normal_form, against U from the
    Fraction Gauss-Jordan integer_inverse: both products are the
    identity, and U^-1 * (U * mat) gives mat back."""

    def test_random_matrices(self, rng):
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-5, 5) for _ in range(cols)]
                   for _ in range(rows)]
            _, uinv = smith_normal_form(mat)
            u = homology.integer_inverse(uinv)
            identity = [[int(i == j) for j in range(rows)]
                        for i in range(rows)]
            assert matmul(u, uinv) == identity
            assert matmul(uinv, u) == identity
            assert matmul(uinv, matmul(u, mat)) == mat


# homology_basis walks of the WORDS maps and the TORUS_FAMILIES maps; the
# benchmark's dual-ball digests are taken in these coordinates
WORDS_WALKS = (
    ((3,), (4,), (0,), (7,)),
    ((1,), (3,), (6,), (7,)),
    ((0,), (4,), (6,), (7,)),
    ((2,), (3,), (4,), (7,)),
)
TORUS_FAMILIES_WALKS = (
    ((0, 3), (7, 5)),
    ((17, 19, 23, 29), (31, 28, 24, 5)),
    ((6, 25, 36, 38, 44, 5), (6, 25, 43, 47, 44, 5)),
    ((0, 58, 30, 34, 38, 2), (0, 3, 39, 35, 53, 55)),
    ((44, 47, 17, 43, 39, 6, 5), (44, 56, 42, 16, 46)),
)


class TestHomologyBasis:
    def test_rank_is_two_g(self, census_builds):
        for build in census_builds:
            basis = homology_basis(build.map)
            assert len(basis) == 4
            divisors, _ = smith_normal_form(
                intersection_form(build.map, basis))
            assert divisors == [1, 1, 1, 1]

    def test_pinned_walks(self, census_builds, torus_maps):
        assert tuple(homology_basis(b.map).walks
                     for b in census_builds) == WORDS_WALKS
        assert tuple(homology_basis(m).walks
                     for m in torus_maps) == TORUS_FAMILIES_WALKS

    def test_genus_one_map(self):
        basis = homology_basis(TORUS_CROSS)
        assert len(basis) == 2

    @pytest.mark.parametrize("m, mu", [(FIGURE_EIGHT, 0), (CHAIN, 2)],
                             ids=["tree-dual", "chain"])
    def test_genus_zero_gives_the_empty_basis(self, m, mu):
        # a tree dual graph (mu = 0) takes the general path too: the empty
        # boundary matrix has rank 0 = 2g
        assert len(homology._spanning_tree(m)[1]) == mu
        assert homology_basis(m).walks == ()

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


def relabelled(m, rng):
    """A copy of m with its half-edges renamed at random, and the
    renaming as a list from old id to new id."""
    perm = list(range(m.n))
    rng.shuffle(perm)
    rotation, pairing = [0] * m.n, [0] * m.n
    for h in range(m.n):
        rotation[perm[h]] = perm[m.rotation[h]]
        pairing[perm[h]] = perm[m.pairing[h]]
    return CombinatorialMap(rotation, pairing), perm


class TestChangeOfBasis:
    """The class set does not rest on one basis.  For bases A and B of
    H_1, with Q the intersection form of A and X the intersections of B
    with A, B = M A in homology for M = X Q^-1, so every class vector
    taken on B is M times the vector taken on A."""

    @staticmethod
    def check_law(m, a, b):
        """The change of basis M from walks a to walks b, once the class
        set on b is M applied to the class set on a."""
        form = intersection_form(m, tuple(a) + tuple(b))
        k = len(a)
        q = [row[:k] for row in form[:k]]
        x = [row[:k] for row in form[k:]]
        mat = matmul(x, integer_inverse(q))
        moved = {tuple(sum(r * c for r, c in zip(row, cls)) for row in mat)
                 for cls in coorient.eulco_classes(m, a)}
        assert moved == coorient.eulco_classes(m, b)
        return mat

    @staticmethod
    def is_identity(mat):
        return mat == [[int(i == j) for j in range(len(mat))]
                       for i in range(len(mat))]

    def test_census_walks_against_computed_basis(self, census_builds):
        # the census's BASIS_SPEC walks and homology_basis differ on every
        # census map
        for b in census_builds:
            assert not self.is_identity(self.check_law(
                b.map, b.walks, homology_basis(b.map).walks))

    def test_relabelled_maps(self):
        rng = random.Random(3)
        moved = 0
        for _ in range(40):
            m = random_valid_map(rng, rng.randint(2, 6))
            while m.genus == 0:
                m = random_valid_map(rng, rng.randint(2, 6))
            copy, perm = relabelled(m, rng)
            back = {g: h for h, g in enumerate(perm)}
            b = [tuple(back[g] for g in w) for w in homology_basis(copy)]
            moved += not self.is_identity(
                self.check_law(m, homology_basis(m).walks, b))
        # most renamings pick another basis, so the law is exercised
        assert moved > 30


class TestBasisCertificate:
    """The unimodular-form certificate rejects 2g walks that are not a
    basis of H_1."""

    @pytest.fixture
    def examples(self, census_builds, torus_maps):
        return [(m, homology_basis(m).walks)
                for m in (census_builds[1].map, torus_maps[2])]

    def test_accepts_computed_bases(self, examples):
        for m, walks in examples:
            homology._check_unimodular(m, walks)

    def test_rejects_doubled_walk(self, examples):
        for m, walks in examples:
            with pytest.raises(AssertionError):
                homology._check_unimodular(
                    m, (walks[0] + walks[0],) + walks[1:])

    def test_rejects_equal_walks(self, examples):
        for m, walks in examples:
            with pytest.raises(AssertionError):
                homology._check_unimodular(m, (walks[0],) + walks[:-1])

    def test_rejects_vertex_circle(self, examples):
        for m, walks in examples:
            with pytest.raises(AssertionError):
                homology._check_unimodular(
                    m, walks[:-1] + (vertex_circle(m, 0),))

    def test_homology_basis_raises_on_failed_certificate(
            self, monkeypatch, census_builds):
        form = homology.intersection_form

        def doubled_first_row(m, walks):
            out = form(m, walks)
            out[0] = [2 * x for x in out[0]]
            return out

        monkeypatch.setattr(homology, "intersection_form", doubled_first_row)
        with pytest.raises(AssertionError):
            homology_basis(census_builds[0].map)


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
        for cls in coorient.eulco_classes(build.map, build.walks):
            assert all(-1 <= x <= 1 for x in cls)

    def test_cochain_of_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            homology.check_cochain(TORUS_CROSS, [0, 0, 0])

    def test_cochain_that_is_not_antisymmetric_rejected(self):
        with pytest.raises(ValueError):
            homology.check_cochain(TORUS_CROSS, [1, 0, 1, 0])

    def test_cochain_off_a_vertex_balance_is_no_class(self):
        # +1 across an edge between two distinct vertices unbalances both
        a, b = next((a, b) for a, b in CHAIN.edges
                    if CHAIN.vertex_of[a] != CHAIN.vertex_of[b])
        cochain = [0] * CHAIN.n
        cochain[a], cochain[b] = 1, -1
        with pytest.raises(ValueError):
            class_of(CHAIN, cochain, ())

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

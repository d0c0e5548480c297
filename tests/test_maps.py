import random
from fractions import Fraction

import pytest

from isonorm import census
from isonorm.maps import (CombinatorialMap, InvalidMap, MapError,
                          MapParseError, canonical_form, canonical_key, curves,
                          from_strands, isomorphic, one_faced, parse_map,
                          passages, serialize_map, validate)
from isonorm.torus import TorusCollection, realize_map

from _helpers import (FIGURE_EIGHT, FIXTURES, TORUS_CROSS, TORUS_FAMILIES,
                      WORDS, random_valid_map, strand_count_oracle)


@pytest.fixture(scope="module")
def census_builds():
    return [census.word_to_map(w) for w in WORDS]


class TestValidate:
    def test_census_maps_are_valid(self, census_builds):
        for build in census_builds:
            assert validate(build.map) == []

    def test_pairing_fixed_point_is_reported(self):
        with pytest.raises(InvalidMap) as exc:
            CombinatorialMap((1, 2, 3, 0), (0, 1, 3, 2))
        assert any("fixes half-edge" in d for d in exc.value.diagnostics)

    def test_disconnected_components_are_reported(self):
        # two disjoint copies of the one-vertex torus map
        rot = (1, 2, 3, 0, 5, 6, 7, 4)
        pair = (2, 3, 0, 1, 6, 7, 4, 5)
        with pytest.raises(InvalidMap) as exc:
            CombinatorialMap(rot, pair)
        assert any("disconnected" in d for d in exc.value.diagnostics)

    def test_oversized_rotation_orbit_is_reported(self):
        rot = (1, 2, 3, 4, 5, 6, 7, 0)  # one orbit of size 8
        pair = (2, 3, 0, 1, 6, 7, 4, 5)
        with pytest.raises(InvalidMap) as exc:
            CombinatorialMap(rot, pair)
        assert any("size 8" in d for d in exc.value.diagnostics)


class TestFacesAndGenus:
    def test_one_faced_genus2_counts(self, census_builds):
        for build in census_builds:
            m = build.map
            assert m.num_vertices == 3
            assert m.num_edges == 6
            assert len(m.faces) == 1
            assert m.genus == 2

    def test_figure_eight_rotation_variants(self):
        # same pairing idea, rotation choice decides the face count
        assert len(TORUS_CROSS.faces) == 1
        assert TORUS_CROSS.genus == 1
        assert len(FIGURE_EIGHT.faces) == 3
        assert FIGURE_EIGHT.genus == 0

    def test_faces_partition_half_edges(self, census_builds):
        for m in [b.map for b in census_builds] + [FIGURE_EIGHT]:
            seen = sorted(h for orb in m.faces for h in orb)
            assert seen == list(range(m.n))

    def test_euler_formula_on_random_maps(self, rng):
        for _ in range(50):
            m = random_valid_map(rng, rng.randint(1, 5))
            chi = m.num_vertices - m.num_edges + len(m.faces)
            assert chi == 2 - 2 * m.genus
            assert m.num_edges == 2 * m.num_vertices


class TestCurves:
    def test_census_curve_counts(self, census_builds):
        assert [len(curves(b.map)) for b in census_builds] == [3, 2, 2, 1]

    def test_figure_eight_single_strand(self):
        assert len(curves(FIGURE_EIGHT)) == 1

    def test_strands_partition_edges(self, rng):
        for _ in range(25):
            m = random_valid_map(rng, rng.randint(1, 4))
            strands = curves(m)
            edges = sorted(m.edge_index(h) for s in strands for h in s)
            assert edges == list(range(m.num_edges))

    def test_curve_count_matches_trace_oracle(self, rng):
        for _ in range(25):
            m = random_valid_map(rng, rng.randint(1, 4))
            assert len(curves(m)) == strand_count_oracle(m)


class TestFromStrands:
    def test_two_strands_through_one_crossing(self):
        rotation, pairing, outs = from_strands([1], [[(0, 0)], [(0, 1)]])
        m = CombinatorialMap(rotation, pairing)
        assert isomorphic(m, TORUS_CROSS)[0]
        assert outs == [[0], [2]]
        assert [m.strand_next(h) for h in (0, 2)] == [0, 2]

    def test_empty_strand_rejected(self):
        with pytest.raises(MapError):
            from_strands([1], [[(0, 0), (0, 1)], []])

    def test_repeated_passage_rejected(self):
        with pytest.raises(MapError):
            from_strands([1], [[(0, 0)], [(0, 0)]])

    def test_missing_passage_rejected(self):
        with pytest.raises(MapError):
            from_strands([1], [[(0, 0)]])


class TestOneFaced:
    def test_matches_face_orbits(self, rng):
        counts = set()
        for _ in range(200):
            m = random_valid_map(rng, rng.randint(1, 5))
            assert one_faced(m.rotation, m.pairing) == (len(m.faces) == 1)
            counts.add(len(m.faces))
        assert 1 in counts and len(counts) > 2

    def test_stops_on_a_map_that_is_not_one(self):
        # a disconnected map, a face permutation whose orbit through 0
        # never returns to 0, and no half-edges at all
        assert not one_faced((1, 2, 3, 0, 5, 6, 7, 4),
                             (1, 0, 3, 2, 5, 4, 7, 6))
        assert not one_faced((1, 2, 3, 0), (0, 0, 0, 0))
        assert not one_faced((), ())


class TestPassages:
    def test_vertices_follow_sorted_crossing_order(self):
        crossings = [((1, Fraction(1, 2)), (0, Fraction(1, 4)), -1),
                     ((0, Fraction(3, 4)), (1, Fraction(1, 3)), 1),
                     ((0, Fraction(1, 8)), (0, Fraction(5, 8)), -1)]
        signs, paths = passages(crossings, 3)
        # vertices 0, 1, 2 are the self crossing of path 0, then the
        # crossing at 3/4 on path 0, then the one at 1/2 on path 1
        assert signs == [-1, 1, -1]
        assert paths == [[(0, 0), (2, 1), (0, 1), (1, 0)],
                         [(1, 1), (2, 0)],
                         []]

    def test_same_parameter_on_one_path_rejected(self):
        crossings = [((0, Fraction(1, 2)), (1, Fraction(1, 4)), 1),
                     ((0, Fraction(1, 2)), (2, Fraction(3, 4)), 1)]
        with pytest.raises(MapError):
            passages(crossings, 3)

    def test_same_parameter_on_two_paths_allowed(self):
        crossings = [((0, Fraction(1, 2)), (1, Fraction(1, 2)), 1)]
        assert passages(crossings, 2) == ([1], [[(0, 0)], [(0, 1)]])

    @pytest.mark.parametrize("key", [Fraction], ids=["Fraction"])
    def test_repeated_parameter_names_the_exact_value(self, key):
        t = Fraction(2**70 + 1, 2**70)
        crossings = [((0, key(t)), (1, key(Fraction(1, 4))), 1),
                     ((0, key(t)), (2, key(Fraction(3, 4))), 1)]
        with pytest.raises(MapError) as exc:
            passages(crossings, 3)
        assert str(exc.value) == ("two passages at parameter "
                                  "1180591620717411303425/"
                                  "1180591620717411303424")


class TestIsomorphism:
    def test_map_is_isomorphic_to_itself(self, census_builds):
        m = census_builds[0].map
        ok, phi = isomorphic(m, m)
        assert ok
        assert phi[0] == 0 or sorted(phi) == list(range(m.n))

    def test_reflection_is_isomorphic_with_flag(self, census_builds):
        # census maps are achiral, so the witness may keep or reverse the
        # orientation
        m = census_builds[3].map
        mirror = mirrored(m)
        ok, phi = isomorphic(m, mirror, allow_reflection=True)
        assert ok
        assert is_witness(m, mirror, phi, reflect=True)

    def test_reflection_witness_of_a_chiral_map(self):
        m1 = realize_map(TorusCollection(TORUS_FAMILIES[1]))
        m2 = mirrored(m1)
        assert isomorphic(m1, m2) == (False, None)
        ok, phi = isomorphic(m1, m2, allow_reflection=True)
        assert ok
        assert sorted(phi) == list(range(m1.n))
        inv2 = m1.rotation  # the inverse of the mirror's rotation
        for h in range(m1.n):
            assert phi[m1.rotation[h]] == inv2[phi[h]]
            assert phi[m1.pairing[h]] == m2.pairing[phi[h]]

    def test_different_sizes_are_not_isomorphic(self, census_builds):
        for reflect in (False, True):
            assert isomorphic(census_builds[0].map, TORUS_CROSS, reflect) \
                == (False, None)

    def test_two_curve_census_classes_differ(self, census_builds):
        ok, _ = isomorphic(census_builds[1].map, census_builds[2].map,
                           allow_reflection=True)
        assert not ok

    def test_witness_commutes_with_structure(self, census_builds):
        m1 = census_builds[1].map
        m2 = canonical_form(m1)
        ok, phi = isomorphic(m1, m2)
        assert ok
        for h in range(m1.n):
            assert phi[m1.rotation[h]] == m2.rotation[phi[h]]
            assert phi[m1.pairing[h]] == m2.pairing[phi[h]]

    def test_canonical_key_is_relabeling_invariant(self, rng, census_builds):
        m = census_builds[2].map
        # conjugate by a random relabeling that keeps structure
        perm = list(range(m.n))
        rng.shuffle(perm)
        rot = [0] * m.n
        pair = [0] * m.n
        for h in range(m.n):
            rot[perm[h]] = perm[m.rotation[h]]
            pair[perm[h]] = perm[m.pairing[h]]
        m2 = CombinatorialMap(tuple(rot), tuple(pair))
        assert canonical_key(m) == canonical_key(m2)


def mirrored(m):
    """The map with every rotation reversed."""
    inv = [0] * m.n
    for h in range(m.n):
        inv[m.rotation[h]] = h
    return CombinatorialMap(tuple(inv), m.pairing)


def is_witness(m1, m2, phi, reflect):
    """Whether phi is an isomorphism from m1 onto m2, or with ``reflect``
    onto m2 or its mirror."""
    if sorted(phi) != list(range(m1.n)) or any(
            phi[m1.pairing[h]] != m2.pairing[phi[h]] for h in range(m1.n)):
        return False
    turned = [phi[m1.rotation[h]] for h in range(m1.n)]
    rotations = [m2.rotation] + ([mirrored(m2).rotation] if reflect else [])
    return any(turned == [rot[phi[h]] for h in range(m1.n)]
               for rot in rotations)


def unpruned_key(m, allow_reflection):
    """Least (rotation, pairing) over the full BFS relabellings from every
    half-edge, of the map and, with reflection, of its mirror."""
    n = m.n
    rotations = [m.rotation, mirrored(m).rotation] if allow_reflection \
        else [m.rotation]
    keys = []
    for rotation in rotations:
        for start in range(n):
            label = {start: 0}
            queue = [start]
            for h in queue:
                for g in (rotation[h], m.pairing[h]):
                    if g not in label:
                        label[g] = len(label)
                        queue.append(g)
            rot = [None] * n
            pair = [None] * n
            for h in range(n):
                rot[label[h]] = label[rotation[h]]
                pair[label[h]] = label[m.pairing[h]]
            keys.append((tuple(rot), tuple(pair)))
    return min(keys)


def relabelled(m, perm):
    rot = [0] * m.n
    pair = [0] * m.n
    for h in range(m.n):
        rot[perm[h]] = perm[m.rotation[h]]
        pair[perm[h]] = perm[m.pairing[h]]
    return CombinatorialMap(tuple(rot), tuple(pair))


class TestCanonicalKeyOracle:
    """The pruned canonical key against the minimum over all starts."""

    @pytest.fixture(scope="class")
    def sample(self, census_builds):
        rng = random.Random(20261018)
        return ([b.map for b in census_builds]
                + [realize_map(TorusCollection(f)) for f in TORUS_FAMILIES]
                + [random_valid_map(rng, rng.randint(1, 6))
                   for _ in range(100)])

    @pytest.mark.parametrize("reflect", [False, True])
    def test_key_equals_unpruned_minimum(self, sample, reflect):
        for m in sample:
            assert canonical_key(m, reflect) == unpruned_key(m, reflect)

    @pytest.mark.parametrize("reflect", [False, True])
    def test_isomorphic_iff_keys_agree(self, rng, sample, reflect):
        small = [m for m in sample if m.num_vertices <= 3]
        copies = []
        for m in small:
            perm = list(range(m.n))
            rng.shuffle(perm)
            copies.append(relabelled(m, perm))
        keys = {id(m): unpruned_key(m, reflect) for m in small + copies}
        for m1 in small:
            for m2 in small + copies:
                ok, phi = isomorphic(m1, m2, reflect)
                assert ok == (keys[id(m1)] == keys[id(m2)])
                assert not ok or is_witness(m1, m2, phi, reflect)


class TestTextFormat:
    def test_round_trip(self, census_builds):
        for build in census_builds:
            text = serialize_map(build.map)
            parsed, _ = parse_map(text)
            assert parsed == build.map

    def test_fixture_files_parse(self):
        for k in range(1, 5):
            text = (FIXTURES / ("census%d.map" % k)).read_text()
            m, _ = parse_map(text)
            assert validate(m) == []
            assert len(m.faces) == 1

    def test_duplicate_half_edge_rejected(self):
        text = "map V=1\nv0: 0 1 2 2\ne: 0 1\ne: 2 3\n"
        with pytest.raises(MapParseError):
            parse_map(text)

    def test_missing_header_rejected(self):
        with pytest.raises(MapParseError):
            parse_map("v0: 0 1 2 3\ne: 0 1\ne: 2 3\n")

    def test_non_integer_vertex_count_rejected(self):
        with pytest.raises(MapParseError):
            parse_map("map V=x\nv0: 0 1 2 3\ne: 0 1\ne: 2 3\n")

    def test_huge_vertex_count_rejected(self):
        with pytest.raises(MapParseError):
            parse_map("map V=%d\nv0: 0 1 2 3\ne: 0 1\ne: 2 3\n" % 10**30)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(MapParseError,
                           match=r"^line 1: bad header 'map V=-5'$"):
            parse_map("map V=-5\nv0: 0 1 2 3\ne: 0 1\ne: 2 3\n")

    def test_serialization_is_deterministic(self, census_builds):
        m = census_builds[0].map
        assert serialize_map(m) == serialize_map(parse_map(
            serialize_map(m))[0])

import random
from itertools import product

import pytest

from isonorm import coorient, homology, polytope, torus
from isonorm.maps import (CombinatorialMap, InvalidMap, MapError, curves,
                          parse_map, validate)
from isonorm.moves import (Child, _chains, eulco_union_check, norm,
                           norm_parity, reduce_map, smooth)

from _helpers import (CHAIN, EVEN_F2, FIGURE_EIGHT, FIXTURES, REDUCIBLE_F3,
                      TORUS_CROSS, TORUS_FAMILIES, random_valid_map)


class TestSmooth:
    def test_single_vertex_map_degenerates(self):
        assert all(c.degenerate for c in smooth(FIGURE_EIGHT, 0))

    def test_degenerate_child_transports_no_walk(self):
        first, _ = smooth(CHAIN, 0)
        with pytest.raises(ValueError):
            first.transport_walk(())

    def test_disconnecting_child_is_degenerate(self):
        first, second = smooth(CHAIN, 0)
        assert first.degenerate and first.map is None
        assert first.reason == "map is disconnected"
        assert not second.degenerate
        assert (second.map.rotation, second.map.pairing) == (
            (1, 2, 3, 0, 5, 6, 7, 4), (7, 2, 1, 4, 3, 6, 5, 0))

    def test_census_children_have_two_vertices(self, census_builds):
        for build in census_builds:
            for v in range(build.map.num_vertices):
                for child in smooth(build.map, v):
                    if child.degenerate:
                        continue
                    assert child.map.num_vertices == 2
                    assert child.map.num_edges == 4
                    assert validate(child.map) == []

    def test_curve_count_changes_by_at_most_one(self, census_builds):
        for build in census_builds:
            m = build.map
            strand_of = {}
            for i, s in enumerate(curves(m)):
                for h in s:
                    strand_of[m.vertex_of[h]] = \
                        strand_of.get(m.vertex_of[h], set()) | {i}
            for v in range(m.num_vertices):
                distinct = len(strand_of[v])
                for child in smooth(m, v):
                    if child.degenerate:
                        continue
                    diff = len(curves(child.map)) - len(curves(m))
                    assert diff in (-1, 0, 1)
                    if distinct == 2:
                        # two different curves always merge
                        assert diff == -1

    def test_transported_walks_evaluate_consistently(self, census_builds):
        build = census_builds[1]
        m = build.map
        for v in range(m.num_vertices):
            for child in smooth(m, v):
                if child.degenerate:
                    continue
                for w in build.walks:
                    tw = child.transport_walk(w)
                    assert len(tw) == len(w)


def reconnect_oracle(m, vertex, idx):
    """Child idx of the smoothing at the vertex, built the way smooth built
    it before the reduction's compaction served both: relabelled rotation
    and pairing arrays from the chain ends, with every edge away from the
    vertex as its own chain."""
    if m.num_vertices == 1:
        return Child(None, "child has no vertices", None)
    germs = m.vertices[vertex]
    chains = _chains(m.pairing, germs, idx)
    if chains is None:
        return Child(None, "smoothing produces a vertex-free loop", None)
    chain_end, traversed_as = chains
    outside = [g for g in range(m.n) if g not in germs]
    for g in outside:
        chain_end.setdefault(g, m.pairing[g])
        traversed_as.setdefault(g, g)
    relabel = {g: i for i, g in enumerate(outside)}
    rotation = [0] * len(outside)
    pairing = [0] * len(outside)
    for g in outside:
        rotation[relabel[g]] = relabel[m.rotation[g]]
        pairing[relabel[g]] = relabel[chain_end[g]]
    try:
        child = CombinatorialMap(rotation, pairing)
    except InvalidMap as exc:
        return Child(None, str(exc), None)
    transport = {}
    for q, start in traversed_as.items():
        transport[q] = relabel[start]
        transport[m.pairing[q]] = relabel[chain_end[start]]
    return Child(child, None, transport)


class TestSmoothMatchesReconnectOracle:
    """smooth builds its children by the reduction's compaction; they
    must equal the children that relabelled arrays built."""

    @staticmethod
    def check(m):
        reasons = set()
        for v in range(m.num_vertices):
            children = smooth(m, v)
            assert len(children) == 2
            for idx, child in enumerate(children):
                expected = reconnect_oracle(m, v, idx)
                assert (child.degenerate, child.reason) == (
                    expected.degenerate, expected.reason)
                reasons.add(child.reason)
                if child.degenerate:
                    assert child.map is None
                    assert child.step_transport is None
                    continue
                assert (child.map.rotation, child.map.pairing) == (
                    expected.map.rotation, expected.map.pairing)
                assert child.step_transport == expected.step_transport
        return reasons

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_census_fixtures(self, i):
        m, _ = parse_map((FIXTURES / ("census%d.map" % i)).read_text())
        self.check(m)

    @pytest.mark.parametrize("families", TORUS_FAMILIES)
    def test_torus_families(self, families):
        self.check(torus.realize_map(torus.TorusCollection(families)))

    def test_pinned_maps(self):
        assert self.check(CHAIN) == {None, "map is disconnected",
                                     "smoothing produces a vertex-free loop"}
        assert self.check(FIGURE_EIGHT) == {"child has no vertices"}

    def test_random_maps(self, rng):
        reasons = set()
        for _ in range(300):
            reasons |= self.check(random_valid_map(rng, rng.randint(1, 12)))
        # valid children and every kind of degenerate one
        assert reasons == {None, "child has no vertices",
                           "smoothing produces a vertex-free loop",
                           "map is disconnected"}


class TestUnionProperty:
    def test_union_holds_on_all_census_vertices(self, census_builds):
        checked = 0
        for build in census_builds:
            basis = build.walks
            for v in range(build.map.num_vertices):
                applicable, holds, detail = eulco_union_check(
                    build.map, v, basis)
                if not applicable:
                    continue
                checked += 1
                assert holds, detail
                assert detail["subset"]
        assert checked > 0

    def test_child_ball_inside_parent_ball(self, census_builds):
        build = census_builds[3]
        m = build.map
        parent_classes = coorient.enumerate_eulerian(m).classes(build.walks)
        parent_ball = polytope.convex_hull(parent_classes)
        for v in range(m.num_vertices):
            for child in smooth(m, v):
                if child.degenerate:
                    continue
                cw = [child.transport_walk(w) for w in build.walks]
                classes = coorient.enumerate_eulerian(child.map).classes(cw)
                for c in classes:
                    assert polytope.in_convex_hull(c, parent_ball.vertices)

    def test_smoothing_preserves_class_parity(self, census_builds):
        build = census_builds[2]
        m = build.map
        parent_classes = coorient.enumerate_eulerian(m).classes(build.walks)
        base = next(iter(parent_classes))
        for v in range(m.num_vertices):
            for child in smooth(m, v):
                if child.degenerate:
                    continue
                cw = [child.transport_walk(w) for w in build.walks]
                for c in coorient.enumerate_eulerian(child.map).classes(cw):
                    assert all((x - y) % 2 == 0 for x, y in zip(c, base))


class TestReduce:
    def test_one_faced_input_is_fixpoint(self, census_builds):
        m = census_builds[0].map
        reduced, trace = reduce_map(m)
        assert reduced == m
        assert trace == []

    def test_three_faced_fixture_reduces(self):
        assert len(REDUCIBLE_F3.faces) == 3
        reduced, trace = reduce_map(REDUCIBLE_F3)
        assert len(reduced.faces) <= 2
        assert len(trace) == 3 - len(reduced.faces)

    def test_odd_parity_reduces_to_one_face(self):
        if norm_parity(REDUCIBLE_F3,
                       homology.homology_basis(REDUCIBLE_F3)) == "odd":
            reduced, _ = reduce_map(REDUCIBLE_F3)
            assert len(reduced.faces) == 1

    def test_one_vertex_maps_are_blocked(self):
        # every one-vertex map: a 4-cycle rotation and one of three pairings
        blocked = 0
        for a, b, c in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1),
                        (3, 1, 2), (3, 2, 1)):
            rotation = [0] * 4
            for x, y in ((0, a), (a, b), (b, c), (c, 0)):
                rotation[x] = y
            for pairing in ((1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)):
                m = CombinatorialMap(rotation, pairing)
                if len(m.faces) < 2:
                    assert reduce_map(m) == (m, [])
                    continue
                with pytest.raises(MapError) as exc:
                    reduce_map(m)
                assert str(exc.value) == (
                    "reduction blocked: every face-merging smoothing would "
                    "create a vertex-free loop")
                blocked += 1
        assert blocked == 12


def reduce_with_both_children(m):
    """The reduction as it was when each step built a new map, with both
    children of each candidate."""
    current = m
    trace = []
    while len(current.faces) > 1:
        candidates = []
        for v in range(current.num_vertices):
            # the faces at corners 0..3 of the vertex; corner i lies
            # between germs h_i and h_(i+1)
            h0, h1, h2, h3 = current.vertices[v]
            c0, c1, c2, c3 = (current.face_of[h] for h in (h1, h2, h3, h0))
            if c1 != c3:
                candidates.append((v, 0))
            if c0 != c2:
                candidates.append((v, 1))
        if not candidates:
            break
        for v, idx in candidates:
            child = smooth(current, v)[idx]
            if not child.degenerate:
                break
        else:
            raise MapError("every candidate child is degenerate")
        current = child.map
        trace.append((v, idx))
    return current, trace


def seeded_torus_maps(seed, count, lo=50, hi=70):
    rng = random.Random(seed)
    dirs = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1),
            (1, -2), (3, 1), (1, 3)]
    out = []
    while len(out) < count:
        fams = [(d, rng.randint(1, 2)) for d in rng.sample(dirs, 4)]
        m = torus.realize_map(torus.TorusCollection(fams))
        if lo <= m.num_vertices <= hi:
            out.append(m)
    return out


class TestReduceBuildsOneChild:
    """reduce_map builds only the chosen child of each step; it must take
    the steps that building both children took."""

    def _check(self, m):
        try:
            expected, expected_trace = reduce_with_both_children(m)
        except MapError:
            with pytest.raises(MapError, match="^reduction blocked: "):
                reduce_map(m)
            return False
        reduced, trace = reduce_map(m)
        assert trace == expected_trace
        assert (reduced.rotation, reduced.pairing) == (
            expected.rotation, expected.pairing)
        return True

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_census_fixtures(self, i):
        m, _ = parse_map((FIXTURES / ("census%d.map" % i)).read_text())
        self._check(m)

    @pytest.mark.parametrize("families", TORUS_FAMILIES)
    def test_torus_families(self, families):
        self._check(torus.realize_map(torus.TorusCollection(families)))

    def test_seeded_torus_maps(self, seed):
        for m in seeded_torus_maps(seed, 3):
            self._check(m)

    def test_reducible_fixtures(self):
        for m in (REDUCIBLE_F3, EVEN_F2):
            self._check(m)

    def test_random_maps(self, rng):
        outcomes = [self._check(random_valid_map(rng, rng.randint(2, 40)))
                    for _ in range(300)]
        # both reductions that finish and reductions that are blocked
        assert set(outcomes) == {True, False}


def parity_oracle(m, walks):
    """The parity read off the whole class set, whose vectors must all
    agree mod 2."""
    residues = {tuple(x % 2 for x in c)
                for c in coorient.eulco_classes(m, walks)}
    assert len(residues) == 1
    return "odd" if any(residues.pop()) else "even"


class TestParity:
    def test_census_collections_are_odd(self, census_builds):
        for build in census_builds:
            assert norm_parity(build.map, build.walks) == "odd"

    def test_two_faced_two_sided_map_is_even(self):
        assert len(EVEN_F2.faces) == 2
        assert all(EVEN_F2.face_of[a] != EVEN_F2.face_of[b]
                   for a, b in EVEN_F2.edges)
        assert norm_parity(EVEN_F2, homology.homology_basis(EVEN_F2)) \
            == "even"

    def test_reads_no_class(self, census_builds, monkeypatch):
        # the parity comes from the walk lengths, not from a class vector
        def fail(*args, **kwargs):
            raise AssertionError("norm_parity computed a class")

        monkeypatch.setattr(homology, "class_of", fail)
        monkeypatch.setattr(coorient, "eulco_classes", fail)
        for build in census_builds:
            assert norm_parity(build.map, build.walks) == "odd"
            assert norm_parity(build.map,
                               homology.homology_basis(build.map)) == "odd"
        assert norm_parity(EVEN_F2, homology.homology_basis(EVEN_F2)) \
            == "even"

    def test_torus_cross_is_odd(self):
        assert norm_parity(TORUS_CROSS,
                           homology.homology_basis(TORUS_CROSS)) == "odd"

    @staticmethod
    def check(m, walks, rng):
        # basis walks, and half-edge sequences that are no dual walks
        arbitrary = [tuple(rng.randrange(m.n)
                           for _ in range(rng.randint(0, 8)))
                     for _ in range(rng.randint(0, 3))]
        for w in (walks, arbitrary):
            assert norm_parity(m, w) == parity_oracle(m, w)

    def test_matches_class_set_on_fixtures(self, census_builds, rng):
        for build in census_builds:
            self.check(build.map, build.walks, rng)
        for families in TORUS_FAMILIES:
            m = torus.realize_map(torus.TorusCollection(families))
            self.check(m, homology.homology_basis(m).walks, rng)
        for m in (REDUCIBLE_F3, EVEN_F2, TORUS_CROSS):
            self.check(m, homology.homology_basis(m).walks, rng)

    def test_matches_class_set_on_random_maps(self, rng):
        parities = set()
        for _ in range(100):
            m = random_valid_map(rng, rng.randint(1, 6))
            basis = homology.homology_basis(m)
            assert norm_parity(m, basis) == parity_oracle(m, basis)
            self.check(m, basis.walks, rng)
            parities.add(norm_parity(m, basis))
        assert parities == {"even", "odd"}


class TestNorm:
    def test_support_of_census_balls(self, census_builds):
        for build in census_builds:
            ball = build.dual_ball()
            for a in product(range(-2, 3), repeat=4):
                assert norm(build.map, a, build.walks) == \
                    polytope.support(ball, a)

    def test_class_vector_of_wrong_length_rejected(self, census_builds):
        build = census_builds[0]
        with pytest.raises(ValueError):
            norm(build.map, (1, 0), build.walks)

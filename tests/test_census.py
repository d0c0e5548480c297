import gc
import hashlib
import re
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import permutations, product

import pytest

from isonorm import annulus, census, cli, coorient, homology, maps, polytope
from isonorm.cli import parse_walks
from isonorm.census import (WordError, canonical_word, census as run_census,
                            exhaustive_unicellular_maps, has_separating_cycle,
                            reverse_curve, self_intersection,
                            verify_main_theorem, word_label, word_to_map)
from isonorm.maps import (CombinatorialMap, InvalidMap, canonical_key,
                          curves as map_curves, from_strands, one_faced,
                          parse_map, passages, validate)

from _helpers import (CHAIN, FIGURE_EIGHT, FIXTURES, GOLDEN_BALLS,
                      INTRO_VECTORS, STANDARD_SYMPLECTIC, TORUS_CROSS, WORDS,
                      centraliser_order, cycle_type, floor_key, mirror,
                      one_faced_pairing_count, orientation_isomorphisms,
                      random_valid_map, segment_intersection_oracle,
                      separating_cycle_oracle)

CENSUS_JSON_SHA256 = \
    "5bddd6913e3c67318435482c7665c404d333e482bc21df04b5895433e0647f61"
REPRESENTATIVES_SHA256 = \
    "51cc8c23cd05e4c91884682c47fd817e645b72d2f1637f1d7d69711a629b767f"

NEG_WORD = ((("a1", 1, 0), ("a2", -1, 0)), (("b1", 1, 0), ("b2", 1, 0)))


@pytest.fixture(scope="module")
def census_reps():
    return run_census()


class TestWords:
    def test_reverse_curve_is_involutive(self):
        for word in WORDS:
            for curve in word:
                assert reverse_curve(reverse_curve(curve)) == curve

    def test_canonical_word_invariant_under_rotation_and_reversal(self):
        for word in WORDS:
            base = canonical_word(word)
            for i, curve in enumerate(word):
                for r in range(len(curve)):
                    rot = curve[r:] + curve[:r]
                    for cand in (rot, reverse_curve(rot)):
                        moved = word[:i] + (cand,) + word[i + 1:]
                        assert canonical_word(moved) == base

    def test_labels_are_distinct_and_readable(self):
        labels = {word_label(w) for w in WORDS}
        assert len(labels) == 4
        assert word_label(NEG_WORD) == "{a1^-1 a2, b1^-1 b2^-1}"

    def test_missing_arc_rejected(self):
        with pytest.raises(WordError):
            self_intersection(((("a1", 1, 0), ("a2", 1, 0)),))

    def test_repeated_arc_rejected(self):
        with pytest.raises(WordError):
            self_intersection(((("a1", 1, 0), ("a1", 1, 0),
                                ("b1", 1, 0), ("b2", 1, 0),
                                ("a2", 1, 0)),))


class TestSelfIntersection:
    """Solution sets of three one-parameter families of words."""

    def test_two_simple_curves_and_a_twisted_handle_curve(self):
        word = lambda q: ((("a1", 1, 0),), (("a2", 1, 0),),
                          (("b1", 1, q), ("b2", -1, 0)))
        hits = [q for q in range(-6, 7) if self_intersection(word(q)) == 3]
        assert hits == [-2, 0]

    def test_simple_curve_plus_three_letter_curve(self):
        word = lambda p, e: ((("a1", 1, 0),),
                             (("b1", 1, 0), ("b2", 1, p), ("a2", e, 0)))
        hits = [(p, e) for p in range(-6, 7) for e in (1, -1)
                if self_intersection(word(p, e)) == 3]
        assert hits == [(1, 1)]

    def test_single_four_letter_curve(self):
        word = lambda p, q, r: ((("a1", 1, 0), ("a2", -1, p),
                                 ("b1", 1, q), ("b2", -1, r)),)
        hits = [(p, q, r)
                for p in range(-3, 4) for q in range(-3, 4)
                for r in range(-3, 4)
                if self_intersection(word(p, q, r)) == 3]
        assert hits == [(-1, 0, 0), (0, 0, -1)]


class TestWordToMap:
    def test_golden_words_give_one_faced_genus_two_maps(self):
        for word in WORDS:
            build = word_to_map(word)
            m = build.map
            assert validate(m) == []
            assert m.num_vertices == 3
            assert len(m.faces) == 1
            assert m.genus == 2
            assert build.standard_basis()

    @pytest.mark.parametrize("i", range(4))
    def test_golden_words_give_fixture_maps_and_walks(self, i):
        # pins the half-edge labelling of the map builder
        build = word_to_map(WORDS[i])
        m, edges = parse_map(
            (FIXTURES / ("census%d.map" % (i + 1))).read_text())
        assert build.map.rotation == m.rotation
        assert build.map.pairing == m.pairing
        walks = (FIXTURES / ("census%d.walks" % (i + 1))).read_text()
        assert build.walks == parse_walks(walks, edges)

    def test_vertex_count_equals_self_intersection(self):
        for word in WORDS + (NEG_WORD,):
            build = word_to_map(word)
            assert build.map.num_vertices == self_intersection(word)

    def test_arc_edges_are_distinct(self):
        for word in WORDS:
            build = word_to_map(word)
            assert len({build.map.edge_index(h)
                        for walk in build.walks for h in walk}) == 4

    def test_untwisted_pairing_word_is_not_one_faced(self):
        build = word_to_map(NEG_WORD)
        assert len(build.map.faces) == 4

    def test_vertex_free_curve_rejected(self):
        with pytest.raises(WordError):
            word_to_map(((("a1", 1, 0),), (("b1", 1, 0),),
                         (("a2", 1, 0), ("b2", -1, 0))))

    def test_crossingless_collection_rejected(self):
        with pytest.raises(WordError):
            word_to_map(((("a1", 1, 0), ("b1", 1, 0)),
                         (("a2", 1, 0), ("b2", -1, 0))))


# every (letter, end) port of the four arcs, as census.PORTS keys them
ALL_PORTS = tuple((letter, end)
                  for letter in census.LETTERS for end in ("-", "+"))


def matching_word(matching, twists):
    """The word of a port matching with one twist per connector, each
    measured from the connector's first port: a curve starts at the
    first unused letter, run along its arc, and follows the connectors
    until it returns to that arc's '-' end."""
    link = {}
    for (u, v), t in zip(matching, twists):
        link[u] = (v, t)
        link[v] = (u, -t)
    word = []
    seen = set()
    for start in census.LETTERS:
        if start in seen:
            continue
        curve = []
        letter, sign = start, 1
        while letter not in seen:
            seen.add(letter)
            (letter_next, end), t = link[letter, "+" if sign > 0 else "-"]
            curve.append((letter, sign, t))
            letter, sign = letter_next, (1 if end == "-" else -1)
        if (letter, sign) != (start, 1):
            raise AssertionError("curve of %s does not close" % start)
        word.append(tuple(curve))
    return tuple(word)


def product_oracle(twist_bound):
    """The words with exactly three crossings, found by testing every
    twist tuple of the window on every port matching."""
    window = range(-twist_bound, twist_bound + 1)
    pair_cache = {}
    self_cache = {}
    out = []
    for matching in census._perfect_matchings(ALL_PORTS):
        ports = [(census.PORTS[u], census.PORTS[v]) for u, v in matching]
        bases = [census._base(u, v) for u, v in matching]
        for twists in product(window, repeat=4):
            total = 0
            for i in range(4):
                key = (matching[i], twists[i])
                if key not in self_cache:
                    self_cache[key] = annulus.count_self_crossings(
                        annulus.chord(ports[i][0], ports[i][1],
                                      twists[i] + bases[i]))
                total += self_cache[key]
            if total > 3:
                continue
            for i in range(4):
                for j in range(i + 1, 4):
                    key = (matching[i], twists[i], matching[j], twists[j])
                    if key not in pair_cache:
                        pair_cache[key] = annulus.count_crossings(
                            annulus.chord(ports[i][0], ports[i][1],
                                          twists[i] + bases[i]),
                            annulus.chord(ports[j][0], ports[j][1],
                                          twists[j] + bases[j]))
                    total += pair_cache[key]
            if total == 3:
                out.append(matching_word(matching, twists))
    return out


def word_to_map_oracle(curves):
    """word_to_map written out on its own: every chord is built with
    annulus.chord, every chord pair gets its own crossing_shifts call,
    and crossings are ordered by the Fraction parameters of
    segment_intersection_oracle, not by the integer keys of
    annulus.segment_intersection."""
    census._check_word(curves)
    chords = []
    for curve in curves:
        for (letter, sign, twist), (nletter, nsign, _) in zip(
                curve, curve[1:] + curve[:1]):
            u = (letter, "+" if sign > 0 else "-")
            v = (nletter, "-" if nsign > 0 else "+")
            chords.append(annulus.chord(census.PORTS[u], census.PORTS[v],
                                        twist + census._base(u, v)))
    crossings = []
    for i, ci in enumerate(chords):
        for j in range(i, len(chords)):
            for k in annulus.crossing_shifts(ci, chords[j],
                                             self_pair=(i == j)):
                hit = segment_intersection_oracle(
                    ci, annulus.chord(*chords[j], 0, shift=k))
                if hit is None:
                    raise AssertionError(
                        "chords %r and %r shifted by %d do not cross"
                        % (ci, chords[j], k))
                t1, t2, sign = hit
                crossings.append(((i, t1), (j, t2), sign * census.ORIENT))
    if not crossings:
        raise WordError("collection has no crossings")
    signs, conn_passages = passages(crossings, len(chords))
    strands = []
    arc_slots = {}
    conn_passages = iter(conn_passages)
    for ci, curve in enumerate(curves):
        strand = []
        for letter, sign, _ in curve:
            arc_slots[letter] = (ci, len(strand), sign)
            strand.extend(next(conn_passages))
        if not strand:
            raise WordError(
                "curve %s has no crossings (vertex-free component)"
                % word_label([curve]))
        strands.append(strand)
    rotation, pairing, outs = from_strands(signs, strands)
    m = CombinatorialMap(rotation, pairing)
    walks = []
    for letter, along in census.BASIS_SPEC:
        ci, slot, sign = arc_slots[letter]
        out = outs[ci][slot - 1]
        walks.append((out if (sign > 0) == along else m.pairing[out],))
    return m.rotation, m.pairing, tuple(walks), canonical_word(curves)


def one_faced_candidates(twist_bound):
    """(map, canonical key, walks, canonical word) of every one-faced
    candidate of the census search at a twist bound, in search order."""
    keys = {}
    for word, chords, crossings in census._three_crossing_words(
            range(-twist_bound, twist_bound + 1)):
        try:
            rotation, pairing, walks = census._realize(word, chords,
                                                       crossings)
        except census._VertexFree:
            continue
        if not one_faced(rotation, pairing):
            continue
        m = CombinatorialMap(rotation, pairing)
        if m not in keys:
            keys[m] = canonical_key(m, allow_reflection=True)
        yield m, keys[m], walks, canonical_word(word)


def on_distinct_edges(m, walks):
    """The census's rank rule: the four basis walks lie on four edges."""
    return len({m.edge_index(h) for walk in walks for h in walk}) == 4


def _realize(build, word):
    """(rotation, pairing, walks, word) of a word, or the exception that
    ``build`` raises on it as (type, message)."""
    try:
        return build(word)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


class TestCensus:
    @pytest.mark.parametrize("bound, count", [(2, 2581), (3, 3957),
                                              (1, 1047)])
    def test_search_matches_product_oracle(self, bound, count):
        # the same words, each found once; the order of the search does
        # not matter (see test_each_class_has_one_best_candidate)
        window = range(-bound, bound + 1)
        found = [word for word, _, _ in census._three_crossing_words(window)]
        assert len(found) == len(set(found)) == count
        assert sorted(found) == sorted(product_oracle(bound))

    def test_word_to_map_matches_uncached_oracle(self):
        def built(word):
            b = word_to_map(word)
            return b.map.rotation, b.map.pairing, b.walks, b.word

        outcomes = Counter()
        for word, _, _ in census._three_crossing_words(range(-2, 3)):
            got = _realize(built, word)
            assert got == _realize(word_to_map_oracle, word), word
            outcomes[isinstance(got[0], type)] += 1
        assert sum(outcomes.values()) == 2581
        assert outcomes[True] and outcomes[False]

    def test_each_shift_and_key_computed_once(self, monkeypatch):
        real_shifts = annulus.crossing_shifts
        real_intersection = annulus.segment_intersection
        real_key = census.canonical_key
        real_realize = census._realize
        real_validate = maps.validate
        real_form = homology.intersection_form
        shift_args = Counter()
        hits = Counter()
        keyed = Counter()
        validated = Counter()
        formed = Counter()
        realized = set()

        def crossing_shifts(c1, c2, self_pair=False):
            shift_args[c1, c2, self_pair] += 1
            return real_shifts(c1, c2, self_pair=self_pair)

        def segment_intersection(c1, c2):
            # c2 is a translate, so it names the chord pair and the shift
            hits[c1, c2] += 1
            return real_intersection(c1, c2)

        def key(m, allow_reflection=True):
            keyed[m.rotation, m.pairing] += 1
            return real_key(m, allow_reflection=allow_reflection)

        def validate(m):
            validated[m.rotation, m.pairing] += 1
            return real_validate(m)

        def intersection_form(m, basis):
            formed[m.rotation, m.pairing, tuple(basis)] += 1
            return real_form(m, basis)

        def realize(word, chords, crossings):
            rotation, pairing, walks = real_realize(word, chords, crossings)
            realized.add((rotation, pairing))
            return rotation, pairing, walks

        monkeypatch.setattr(annulus, "crossing_shifts", crossing_shifts)
        monkeypatch.setattr(annulus, "segment_intersection",
                            segment_intersection)
        monkeypatch.setattr(census, "canonical_key", key)
        monkeypatch.setattr(census, "_realize", realize)
        monkeypatch.setattr(maps, "validate", validate)
        monkeypatch.setattr(homology, "intersection_form", intersection_form)
        assert len(run_census()) == 4
        built = Counter(validated)
        single_face = set()
        for rotation, pairing in realized:
            try:
                m = CombinatorialMap(rotation, pairing)
            except InvalidMap:  # disconnected
                continue
            if len(m.faces) == 1:
                single_face.add((m.rotation, m.pairing))
        assert shift_args and max(shift_args.values()) == 1
        assert hits and max(hits.values()) == 1
        assert set(keyed) == single_face and max(keyed.values()) == 1
        assert len(single_face) == 40
        # one map per distinct (rotation, pairing), and one intersection
        # form per class: the certificate of its winner's basis
        assert set(built) == single_face and max(built.values()) == 1
        assert len(formed) == 4 and max(formed.values()) == 1
        # no table outlives a census: a second one in the same process
        # computes every shift and crossing again, each once
        first = dict(shift_args), dict(hits)
        shift_args.clear()
        hits.clear()
        assert len(run_census()) == 4
        assert (dict(shift_args), dict(hits)) == first

    def test_search_tables_freed_on_return(self):
        # the search's recursion refers to itself; its tables must go by
        # reference counting when the search ends or is closed, not wait
        # for the cyclic collector
        gc.collect()
        gc.disable()
        try:
            assert len(run_census()) == 4
            assert gc.collect() < 100
            search = census._three_crossing_words(range(-2, 3))
            next(search)
            search.close()
            del search
            assert gc.collect() < 100
        finally:
            gc.enable()

    def test_crossing_shift_calls_grow_slowly(self, monkeypatch):
        # the counts are keyed by pair class, whose number grows about
        # linearly with the twist window: doubling the window's bound at
        # most doubles the count_crossings calls (a count of chord pairs
        # would grow 2.49 times from [-4, 4] to [-8, 8]), and the
        # crossing_shifts calls, one per chord pair a yielded word holds
        real_count = annulus.count_crossings
        real_shifts = annulus.crossing_shifts
        counted = Counter()
        listed = Counter()

        def count_crossings(c1, c2):
            counted[bound] += 1
            return real_count(c1, c2)

        def crossing_shifts(c1, c2, self_pair=False):
            listed[bound] += 1
            return real_shifts(c1, c2, self_pair=self_pair)

        monkeypatch.setattr(annulus, "count_crossings", count_crossings)
        monkeypatch.setattr(annulus, "crossing_shifts", crossing_shifts)
        for bound in (4, 8):
            assert len(census._classes(range(-bound, bound + 1))) == 4
        assert 0 < counted[8] <= 2 * counted[4]
        assert 0 < listed[8] <= 2 * listed[4]

    def test_theorem_check_makes_one_lp_per_pair(self, monkeypatch):
        # the four balls and the intro polytope are symmetric, so each
        # hull decides one point of every +-p pair: 24 LPs for the balls'
        # 48 points (16, 12, 10 and 10, all vertices) and 4 for the intro
        # polytope's 8, where one LP per point would make 56
        real = polytope.in_convex_hull
        calls = []

        def in_convex_hull(point, points):
            calls.append(point)
            return real(point, points)

        monkeypatch.setattr(polytope, "in_convex_hull", in_convex_hull)
        assert verify_main_theorem()["pass"]
        assert len(calls) == 28

    @pytest.mark.parametrize("bound, counts", [(2, (712, 709)),
                                               (3, (1038, 1032))])
    def test_edge_rule_matches_intersection_form(self, bound, counts):
        # the census ranks by the edge rule and certifies its winners with
        # standard_basis; the intersection form is the oracle: the walks
        # are a standard symplectic basis exactly when they lie on four
        # distinct edges
        outcomes = Counter()
        for m, _, walks, word in one_faced_candidates(bound):
            form = homology.intersection_form(m, walks)
            standard = tuple(tuple(r) for r in form) == STANDARD_SYMPLECTIC
            assert on_distinct_edges(m, walks) == standard, word
            assert census.Genus2Build(word, m, walks).standard_basis() \
                == standard, word
            outcomes[standard] += 1
        assert (sum(outcomes.values()), outcomes[True]) == counts

    def test_each_winner_is_certified(self, monkeypatch, census_reps):
        monkeypatch.setattr(census.Genus2Build, "standard_basis",
                            lambda self: False)
        label = word_label(census_reps[0].word)
        with pytest.raises(AssertionError,
                           match=re.escape(label + " has no standard basis")):
            run_census()

    @pytest.mark.parametrize("bound, sizes", [(2, [87, 105, 248, 272]),
                                              (3, [121, 141, 376, 400]),
                                              (16, [537, 772, 1974, 2064])])
    def test_each_class_has_one_best_candidate(self, bound, sizes,
                                               census_reps):
        # no two candidates of a class tie on the census rank, so the
        # representatives do not depend on the search order; and the
        # window [-bound, bound] has the census's classes, each won by
        # the census's representative.  Its candidates contain those of
        # census.WINDOW, so at bound 16 this holds at every bound up to 16
        ranked = defaultdict(list)  # class key -> (rank, candidate)
        for m, key, walks, word in one_faced_candidates(bound):
            rank = (not on_distinct_edges(m, walks), census._label(word))
            ranked[key].append((rank, (word, m.rotation, m.pairing, walks)))
        assert sorted(map(len, ranked.values())) == sizes
        winners = set()
        for candidates in ranked.values():
            best = min(rank for rank, _ in candidates)
            held = [c for rank, c in candidates if rank == best]
            assert len(held) == 1
            winners.add(held[0])
        assert winners == {(b.word, b.map.rotation, b.map.pairing, b.walks)
                           for b in census_reps}

    @pytest.mark.parametrize("bound, funnel", [(2, (144, 1725, 712)),
                                               (3, (240, 2679, 1038)),
                                               (1, (48, 639, 360))])
    def test_one_face_test_matches_built_maps(self, bound, funnel):
        # every candidate, realized from the chords and crossings of
        # the search as the census does it, equals the uncached oracle's
        # realization of its word; the census drops a candidate on the
        # raw one-face test, and built as a map a candidate has one face
        # exactly when the test passes
        outcomes = Counter()
        for word, chords, crossings in census._three_crossing_words(
                range(-bound, bound + 1)):
            expected = _realize(word_to_map_oracle, word)
            if expected[0] is WordError:
                with pytest.raises(census._VertexFree):
                    census._realize(word, chords, crossings)
                with pytest.raises(WordError) as exc:
                    word_to_map(word)
                assert str(exc.value) == expected[1]
                outcomes["word error"] += 1
                continue
            rotation, pairing, walks = census._realize(word, chords,
                                                       crossings)
            try:
                m = CombinatorialMap(rotation, pairing)
            except InvalidMap as exc:  # disconnected
                assert expected == (InvalidMap, str(exc)), word
                single = False
            else:
                assert (m.rotation, m.pairing, walks) == expected[:3], word
                single = len(m.faces) == 1
            assert one_faced(rotation, pairing) == single, word
            outcomes[single] += 1
        assert (outcomes["word error"], outcomes[False], outcomes[True]) \
            == funnel

    def test_crossing_keys_order_as_their_fractions(self):
        # every crossing the search yields: a chord pair has the same
        # crossings in every candidate that holds it, their keys are the
        # integer floors of the oracle's exact parameters, and along each
        # chord the keys sort as the parameters do
        pairs = {}  # (chord, chord) -> their crossings
        for _, chords, crossings in census._three_crossing_words(
                range(-3, 4)):
            met = defaultdict(list)
            for (i, k1), (j, k2), sign in crossings:
                met[chords[i], chords[j]].append((k1, k2, sign))
            for pair, found in met.items():
                assert pairs.setdefault(pair, found) == found
        along = defaultdict(list)  # chord -> (key, parameter) per crossing
        for (c1, c2), found in pairs.items():
            exact = [segment_intersection_oracle(
                         c1, annulus.chord(*c2, 0, shift=k))
                     for k in annulus.crossing_shifts(c1, c2,
                                                      self_pair=c1 == c2)]
            assert [(k1, k2, sign * census.ORIENT)
                    for k1, k2, sign in found] \
                == [(floor_key(t1), floor_key(t2), sign)
                    for t1, t2, sign in exact]
            for (k1, k2, _), (t1, t2, _) in zip(found, exact):
                along[c1].append((k1, t1))
                along[c2].append((k2, t2))
        assert max(map(len, along.values())) > 1
        for keys in along.values():
            keys.sort()
            assert all(t == t_next for (k, t), (k_next, t_next)
                       in zip(keys, keys[1:]) if k == k_next)

    def test_pinned_representatives(self, capsys):
        # the canonical-key tests pin the classes; these digests also pin
        # the word, map and walks the census picks for each class: the
        # sha256 of `isonorm --json census`, and of the sorted (label,
        # rotation, pairing, walks) of the windows [-3, 3] and [-4, 4]
        assert cli.main(["--json", "census"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() \
            == CENSUS_JSON_SHA256
        for bound in (3, 4):
            reps = sorted((word_label(b.word), b.map.rotation,
                           b.map.pairing, b.walks)
                          for b in census._classes(range(-bound, bound + 1)))
            assert hashlib.sha256(repr(reps).encode()).hexdigest() \
                == REPRESENTATIVES_SHA256, bound

    def test_exactly_four_classes(self, census_reps):
        assert len(census_reps) == 4

    def test_classes_biject_with_golden_words(self, census_reps):
        golden_keys = [canonical_key(word_to_map(w).map,
                                     allow_reflection=True) for w in WORDS]
        rep_keys = [canonical_key(b.map, allow_reflection=True)
                    for b in census_reps]
        assert sorted(rep_keys) == sorted(golden_keys)

    def test_class_set_sizes_match_golden_words(self, census_reps):
        golden = {canonical_key(word_to_map(w).map, allow_reflection=True):
                  len(word_to_map(w).eulco_classes()) for w in WORDS}
        for build in census_reps:
            key = canonical_key(build.map, allow_reflection=True)
            assert len(build.eulco_classes()) == golden[key]

    def test_golden_word_class_sets(self):
        computed = [word_to_map(w).eulco_classes() for w in WORDS]
        assert computed[0] == GOLDEN_BALLS[0]
        assert computed[1] == GOLDEN_BALLS[1]
        assert computed[2] == GOLDEN_BALLS[2]
        assert computed[3] == GOLDEN_BALLS[3]

    def test_stable_when_window_grows(self, census_reps):
        wider = census._classes(range(-3, 4))
        assert [canonical_key(b.map, allow_reflection=True) for b in wider] \
            == [canonical_key(b.map, allow_reflection=True)
                for b in census_reps]

    def test_curve_counts(self, census_reps):
        assert [len(map_curves(b.map)) for b in census_reps] == [3, 2, 2, 1]


class TestPairClass:
    def test_equal_keys_give_equal_counts(self):
        # every ordered pair of connector chords with four distinct ports
        # and twists in [-3, 3], built from the ports alone: pairs with one
        # key have one crossing count, and far fewer keys than pairs
        chords = [(u, v, annulus.chord(census.PORTS[u], census.PORTS[v], t))
                  for u in ALL_PORTS for v in ALL_PORTS if u != v
                  for t in range(-3, 4)]
        arcs = [annulus.arc_class(c) for _, _, c in chords]
        counts = defaultdict(set)  # key -> crossing counts of its pairs
        pairs = 0
        for (u1, v1, c1), k1 in zip(chords, arcs):
            for (u2, v2, c2), k2 in zip(chords, arcs):
                if {u1, v1} & {u2, v2}:
                    continue
                key = annulus.pair_class(k1, k2)
                counts[key].add(len(annulus.crossing_shifts(c1, c2)))
                pairs += 1
        assert pairs == 56 * 30 * 7 * 7
        assert max(map(len, counts.values())) == 1
        assert len(counts) < pairs // 10
        assert len({n for ns in counts.values() for n in ns}) > 3

    def test_key_ignores_translation_and_reversal(self):
        u, v = census.PORTS["a1", "+"], census.PORTS["a2", "-"]
        c = annulus.chord(u, v, 2)
        moved = annulus.chord(u, v, 2, shift=-5)
        assert annulus.arc_class(c) == annulus.arc_class(moved[::-1])
        assert annulus.arc_class(c) != annulus.arc_class(
            annulus.chord(u, v, 3))


# The letter model of the census words: a connector's twists go around the
# core of the connecting annulus, which separates the surface, so in the
# word model a curve's class is the signed sum of its letters, each letter
# used once, and curves meet algebraically as their letters pair under the
# symplectic form OMEGA.
ARC_LETTERS = ("a1", "b1", "a2", "b2")
OMEGA = {("a1", "b1"): 1, ("b1", "a1"): -1,
         ("a2", "b2"): 1, ("b2", "a2"): -1}


def signed_crossings(m):
    """The signed crossing matrix between the distinct curves of
    ``map_curves(m)``: +1 when curve j leaves a vertex on the germ after
    curve i's outgoing germ in rotation order; self-crossings left out."""
    strands = map_curves(m)
    n = len(strands)
    curve_of = {h: i for i, s in enumerate(strands) for h in s}
    crossing = [[0] * n for _ in range(n)]
    for g, i in curve_of.items():
        j = curve_of.get(m.rotation[g])
        if j is not None and j != i:
            crossing[i][j] += 1
            crossing[j][i] -= 1
    return crossing


def letter_model_matches(crossing, place, signs):
    """The curve reversals under which the letters of ARC_LETTERS, each on
    curve ``place[k]`` with sign ``signs[k]``, pair as ``crossing``."""
    n = len(crossing)
    pairing = [[0] * n for _ in range(n)]
    for x, cx, sx in zip(ARC_LETTERS, place, signs):
        for y, cy, sy in zip(ARC_LETTERS, place, signs):
            pairing[cx][cy] += sx * sy * OMEGA.get((x, y), 0)
    return sum(all(pairing[i][j] == flip[i] * flip[j] * crossing[i][j]
                   for i in range(n) for j in range(n))
               for flip in product((1, -1), repeat=n))


def curve_classes(m, walks):
    """The class of each strand of ``map_curves(m)`` read against the
    walks: its dual cocycle, +1 on a step that crosses the strand from
    its right to its left, evaluated on each walk."""
    out = []
    for strand in map_curves(m):
        cochain = [0] * m.n
        for h in strand:
            cochain[h] += 1
            cochain[m.pairing[h]] -= 1
        out.append(homology.class_of(m, cochain, walks))
    return out


def letter_class(letters):
    """The signed sum of (letter, sign) pairs read against the census's
    basis walks: walk i crosses only the arc of census.BASIS_SPEC[i],
    once, along the arc's direction or against it as the spec says."""
    return tuple(sum(sign for letter, sign in letters if letter == x)
                 * (1 if along else -1) for x, along in census.BASIS_SPEC)


def letter_assignment_holds(build, place, signs):
    """Whether the letters of ARC_LETTERS, each on curve ``place[k]`` of
    ``build.word`` with sign ``signs[k]``, give the map's signed crossing
    matrix and each curve's class, under one bijection of the curves to
    the strands of the map and some curve reversals."""
    crossing = signed_crossings(build.map)
    classes = curve_classes(build.map, build.walks)
    n = len(crossing)
    sums = [letter_class([(x, sign) for x, ci, sign
                          in zip(ARC_LETTERS, place, signs) if ci == curve])
            for curve in range(n)]
    return any(
        letter_model_matches(crossing, [to_strand[ci] for ci in place], signs)
        and all(classes[to_strand[ci]] in (got, tuple(-x for x in got))
                for ci, got in enumerate(sums))
        for to_strand in permutations(range(n)))


class TestExhaustiveMaps:
    def test_six_classes_all_genus_two(self):
        reps = exhaustive_unicellular_maps()
        assert len(reps) == 6
        for m in reps:
            assert validate(m) == []
            assert m.num_vertices == 3
            assert len(m.faces) == 1
            assert m.genus == 2

    def test_one_face_test_matches_built_maps(self):
        rot = [4 * (h // 4) + (h + 1) % 4 for h in range(12)]
        outcomes = Counter()
        for match in census._perfect_matchings(tuple(range(12))):
            pairing = [0] * 12
            for a, b in match:
                pairing[a], pairing[b] = b, a
            try:
                faces = len(CombinatorialMap(rot, pairing).faces)
            except InvalidMap:  # disconnected
                faces = 0
            assert one_faced(rot, pairing) == (faces == 1), pairing
            outcomes["pairings"] += 1
            outcomes["connected"] += faces > 0
            outcomes["one-faced"] += faces == 1
        assert outcomes == {"pairings": 10395, "connected": 9504,
                            "one-faced": 1440}

    def test_complete_by_a_count(self):
        # with the rotation s fixed, the one-faced maps are the pairings a
        # with s a a 12-cycle, counted by a character sum; the centraliser
        # of s acts on them with the orientation classes as orbits, each
        # of size |C(s)| / |Aut+|.  So the listed classes, with the mirror
        # of any chiral one, are all the one-faced maps if their orbit
        # sizes add up to the count.  Nothing from the enumerator is used
        listed = [(m.rotation, m.pairing)
                  for m in exhaustive_unicellular_maps()]
        rotation = listed[0][0]
        for r, p in listed:
            assert r == rotation and cycle_type(p) == (2,) * 6
            assert cycle_type([r[p[h]] for h in range(12)]) == (12,)
        count = one_faced_pairing_count(cycle_type(rotation))
        assert count == 1440
        classes = []  # each listed map, and the mirror of a chiral one
        for m in listed:
            classes.append(m)
            if not orientation_isomorphisms(m, mirror(*m)):
                classes.append(mirror(*m))
        assert all(not orientation_isomorphisms(m1, m2)
                   for i, m1 in enumerate(classes) for m2 in classes[i + 1:])
        auts = [orientation_isomorphisms(m, m) for m in classes]
        assert auts == [2, 4, 2, 1, 1, 2]
        assert sum(Fraction(centraliser_order(cycle_type(rotation)), a)
                   for a in auts) == count

    def test_census_classes_embed(self, census_reps):
        keys = {canonical_key(m, allow_reflection=True)
                for m in exhaustive_unicellular_maps()}
        for build in census_reps:
            assert canonical_key(build.map, allow_reflection=True) in keys

    def test_curve_count_multiset(self):
        counts = sorted(len(map_curves(m))
                        for m in exhaustive_unicellular_maps())
        assert counts == [1, 2, 2, 3, 3, 4]

    def test_balls_and_separating_cycles(self):
        balls = []
        for m in exhaustive_unicellular_maps():
            assert not has_separating_cycle(m)
            walks = homology.homology_basis(m).walks
            balls.append(polytope.convex_hull(
                coorient.eulco_classes(m, walks)))
        assert sorted(len(b.vertices) for b in balls) == \
            [10, 10, 12, 12, 16, 16]
        assert not any(polytope.is_p8(b) for b in balls)

    def test_classes_the_census_misses(self, census_reps):
        found = {canonical_key(b.map, allow_reflection=True)
                 for b in census_reps}
        missed = [sorted(len(c) for c in map_curves(m))
                  for m in exhaustive_unicellular_maps()
                  if canonical_key(m, allow_reflection=True) not in found]
        assert sorted(missed) == [[1, 1, 2, 2], [1, 2, 3]]

    def test_letter_model_reaches_four_classes(self):
        # why the census misses two classes, from the maps alone (see
        # OMEGA): count the (letter assignment, curve reversal) pairs that
        # give each map's signed crossing matrix
        found = {}
        for m in exhaustive_unicellular_maps():
            crossing = signed_crossings(m)
            n = len(crossing)
            count = 0
            for place in product(range(n), repeat=4):
                if len(set(place)) < n:  # every curve holds a letter
                    continue
                for signs in product((1, -1), repeat=4):
                    count += letter_model_matches(crossing, place, signs)
            found[tuple(sorted(len(s) for s in map_curves(m)))] = count
        assert found == {(1, 1, 4): 256, (1, 5): 256, (6,): 32, (2, 4): 256,
                         (1, 1, 2, 2): 0, (1, 2, 3): 0}

    def test_census_words_are_letter_assignments(self, census_reps):
        # each representative's own word, read as which curve holds each
        # letter and with which sign, is one of the assignments counted
        # above: under some bijection of its curves to the strands of its
        # map, and some curve reversals, it gives the signed crossing
        # matrix of that map, and each curve's class is the signed sum of
        # its letters (the core of the annulus bounds, so its twists add
        # nothing).  The classes pin the signs: of the 16 sign vectors,
        # only the word's own and those its curve reversals give pass
        for build in census_reps:
            held = {letter: (ci, sign) for ci, curve in enumerate(build.word)
                    for letter, sign, _ in curve}
            place, own = zip(*(held[x] for x in ARC_LETTERS))
            assert len(build.word) == len(map_curves(build.map))
            passing = [signs for signs in product((1, -1), repeat=4)
                       if letter_assignment_holds(build, place, signs)]
            assert own in passing, word_label(build.word)
            assert len(passing) == 2 ** len(build.word), \
                word_label(build.word)


class TestSeparatingCycles:
    def test_census_collections_are_filling(self, census_reps):
        for build in census_reps:
            assert not has_separating_cycle(build.map)

    def test_planar_loops_separate(self):
        assert has_separating_cycle(FIGURE_EIGHT)

    def test_torus_curves_do_not_separate(self):
        assert not has_separating_cycle(TORUS_CROSS)

    def test_matches_edge_set_oracle(self, census_reps, rng):
        cases = ([b.map for b in census_reps]
                 + list(exhaustive_unicellular_maps())
                 + [FIGURE_EIGHT, TORUS_CROSS, CHAIN]
                 + [random_valid_map(rng, rng.randint(1, 8))
                    for _ in range(1000)])
        answers = set()
        for m in cases:
            answer = has_separating_cycle(m)
            assert answer == separating_cycle_oracle(m), (m.rotation,
                                                          m.pairing)
            answers.add(answer)
        assert answers == {True, False}


class TestMainTheorem:
    def test_report(self, census_reps):
        report = verify_main_theorem()
        assert report["pass"]
        assert report["classes"] == 4
        assert sorted(e["vertices"] for e in report["balls"]) == \
            [10, 10, 12, 16]
        assert not any(e["is_p8"] for e in report["balls"])
        assert report["intro_is_p8"]
        intro = polytope.convex_hull(INTRO_VECTORS)
        assert polytope.is_p8(intro)

import json

import pytest
from hypothesis import given, settings, strategies as st

from hybridkit.errors import InvalidStructureError
from hybridkit.structures import (
    INF,
    Signature,
    Structure,
    ball_part,
    disjoint_union,
    gaifman_distance,
    gaifman_graph,
    is_homomorphism,
    is_partial_isomorphism,
    reachable_part,
    structure_from_data,
    structure_to_data,
)

from helpers import relabel
from fixtures import (
    BACK_EDGE,
    BOUNDED_FIXTURES,
    C2,
    FIXTURES30,
    ISOLATED_P,
    LOOP,
    PATH3,
    SINGLE,
    UNIMODAL,
    unimodal,
)


def brute_force_distances(s):
    """Floyd-Warshall oracle, independent of the BFS implementation."""
    adj = gaifman_graph(s)
    dist = {
        (x, y): 0 if x == y else (1 if y in adj[x] else INF)
        for x in s.universe
        for y in s.universe
    }
    for via in s.universe:
        for x in s.universe:
            for y in s.universe:
                alt = dist[(x, via)] + dist[(via, y)]
                if alt < dist[(x, y)]:
                    dist[(x, y)] = alt
    return dist


class TestGaifman:
    def test_path3_edges(self):
        adj = gaifman_graph(PATH3)
        assert adj == {"a": ("b",), "b": ("a", "c"), "c": ("b",)}

    def test_empty_relations(self):
        adj = gaifman_graph(SINGLE)
        assert adj == {"a": ()}

    def test_ternary_tuple_pairwise_adjacent(self):
        sig = Signature({"R": 3}, [], 1)
        s = Structure(sig, ["a", "b", "c"], {"R": [("a", "b", "c")]}, ["a"])
        adj = gaifman_graph(s)
        assert adj["a"] == ("b", "c")
        assert adj["b"] == ("a", "c")
        assert adj["c"] == ("a", "b")

    def test_distance_path3(self):
        assert gaifman_distance(PATH3).distance("a", "c") == 2

    def test_distance_singleton(self):
        assert gaifman_distance(SINGLE).distance("a", "a") == 0

    def test_distance_across_disjoint_union(self):
        summed = disjoint_union(PATH3, C2)
        d = gaifman_distance(summed)
        assert d.distance("L:a", "R:b0") == INF

    @pytest.mark.parametrize("s", FIXTURES30, ids=range(len(FIXTURES30)))
    def test_distance_matches_floyd_warshall(self, s):
        d = gaifman_distance(s)
        oracle = brute_force_distances(s)
        for x in s.universe:
            for y in s.universe:
                assert d.distance(x, y) == oracle[(x, y)]

    @pytest.mark.parametrize("s", FIXTURES30[:12], ids=range(12))
    def test_metric_axioms(self, s):
        d = gaifman_distance(s)
        for x in s.universe:
            assert d.distance(x, x) == 0
            for y in s.universe:
                assert d.distance(x, y) == d.distance(y, x)
                for z in s.universe:
                    assert d.distance(x, z) <= d.distance(x, y) + d.distance(y, z)


class TestDisjointUnion:
    def test_cardinality(self):
        a = unimodal(["a", "b", "c"], [])
        b = unimodal(["a", "b", "c", "d"], [])
        assert len(disjoint_union(a, b)) == 7

    def test_basepoints_from_left(self):
        assert disjoint_union(PATH3, C2).basepoints == ("L:a",)

    def test_signature_mismatch(self):
        other = Structure(Signature({"E": 2}, ["E"], 1), ["a"], {"E": []}, ["a"])
        with pytest.raises(InvalidStructureError):
            disjoint_union(PATH3, other)

    def test_reachable_part_ignores_right_summand(self):
        for b in (C2, PATH3, LOOP):
            summed = disjoint_union(PATH3, b)
            for k in (0, 1, 2, INF):
                reduced = reachable_part(summed, k)
                expected = reachable_part(PATH3, k)
                stripped = relabel(
                    reduced, {e: e.removeprefix("L:") for e in reduced.universe}
                )
                assert stripped == expected

    def test_ball_part_ignores_right_summand(self):
        summed = disjoint_union(PATH3, C2)
        for k in (0, 1, 2):
            reduced = ball_part(summed, k)
            stripped = relabel(
                reduced, {e: e.removeprefix("L:") for e in reduced.universe}
            )
            assert stripped == ball_part(PATH3, k)


class TestSubstructureOperators:
    def test_reachable_path3_k1(self):
        assert reachable_part(PATH3, 1).universe == ("a", "b")

    def test_reachable_unbounded(self):
        assert reachable_part(PATH3, INF) == PATH3

    def test_reachable_respects_direction(self):
        assert reachable_part(BACK_EDGE, INF).universe == ("a",)

    def test_ball_path3_k1(self):
        assert ball_part(PATH3, 1).universe == ("a", "b")

    def test_ball_covers_component(self):
        assert ball_part(PATH3, 2) == PATH3

    def test_ball_is_undirected(self):
        assert ball_part(BACK_EDGE, 1).universe == ("a", "b")

    @pytest.mark.parametrize("s", FIXTURES30, ids=range(len(FIXTURES30)))
    def test_idempotence(self, s):
        for k in (0, 1, 2, 3, INF):
            r = reachable_part(s, k)
            assert reachable_part(r, k) == r
            b = ball_part(s, k if k != INF else len(s))
            assert ball_part(b, k if k != INF else len(s)) == b

    @pytest.mark.parametrize("s", FIXTURES30, ids=range(len(FIXTURES30)))
    def test_reachable_after_ball_collapses(self, s):
        for k in (0, 1, 2, 3):
            assert reachable_part(ball_part(s, k), k) == reachable_part(s, k)

    @pytest.mark.parametrize("s", FIXTURES30[:12], ids=range(12))
    def test_monotone_in_k(self, s):
        for k in (0, 1, 2):
            assert set(reachable_part(s, k).universe) <= set(
                reachable_part(s, k + 1).universe
            )
            assert set(ball_part(s, k).universe) <= set(ball_part(s, k + 1).universe)


PATH5 = Structure(
    Signature({"E": 2}, ["E"], 1),
    "abcde",
    {"E": [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]},
    ["a"],
)

WALK_SIGNATURE = Signature({"P": 1, "E": 2, "F": 2, "R": 3}, ["E", "F"], 2)


@st.composite
def walk_structures(draw) -> Structure:
    """Up to 7 elements over two transitions and a ternary relation, which
    adds Gaifman edges but no transition steps."""
    size = draw(st.integers(1, 7))
    universe = [f"v{i}" for i in range(size)]
    element = st.sampled_from(universe)
    rels = {
        name: draw(st.lists(st.tuples(*[element] * arity), max_size=size))
        for name, arity in sorted(WALK_SIGNATURE.relations.items())
    }
    basepoints = draw(st.lists(element, min_size=2, max_size=2))
    return Structure(WALK_SIGNATURE, universe, rels, basepoints)


def transition_distances(s):
    """Directed transition distance from the nearest basepoint, by a BFS
    over the relation tuples themselves."""
    dist = {e: 0 for e in s.basepoints}
    frontier = list(dist)
    while frontier:
        nxt = []
        for name in sorted(s.signature.transitions):
            for u, v in s.relations[name]:
                if u in frontier and v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


class TestWalkOut:
    def test_a_level_counts_only_within_the_radius(self):
        assert reachable_part(PATH5, 2.5).universe == ("a", "b", "c")
        assert ball_part(PATH5, 2.5).universe == ("a", "b", "c")

    @settings(max_examples=150, deadline=None)
    @given(walk_structures(), st.sampled_from([0, 1, 2, 2.5, 3, INF]))
    def test_parts_keep_exactly_the_elements_within_k(self, s, k):
        # an element no path reaches is at distance INF, in no part even at
        # k = INF
        dist = transition_distances(s)
        near = [e for e in s.universe if e in dist and dist[e] <= k]
        assert reachable_part(s, k).universe == tuple(near)
        rows = [gaifman_distance(s).row(b) for b in s.basepoints]
        nearest = {e: min(row[e] for row in rows) for e in s.universe}
        near = [e for e, d in nearest.items() if d != INF and d <= k]
        assert ball_part(s, k).universe == tuple(near)


class TestIndex:
    @pytest.mark.parametrize("s", FIXTURES30 + BOUNDED_FIXTURES, ids=range(40))
    def test_tuples_at_matches_scan(self, s):
        for e in s.universe:
            expected = [(n, t) for n, ts in s.relations.items() for t in ts if e in t]
            assert list(s.tuples_at(e)) == expected

    @pytest.mark.parametrize("s", FIXTURES30 + BOUNDED_FIXTURES, ids=range(40))
    def test_edges_and_gaifman_built_once_read_only(self, s):
        adj = gaifman_graph(s)
        assert adj is gaifman_graph(s)
        with pytest.raises(TypeError):
            adj["a"] = ()
        assert list(adj) == list(s.universe)
        for x in s.universe:
            near = {y for ts in s.relations.values() for t in ts if x in t for y in t}
            assert adj[x] == tuple(y for y in s.universe if y in near - {x})

    @pytest.mark.parametrize("s", FIXTURES30 + BOUNDED_FIXTURES, ids=range(40))
    def test_accessible_matches_edge_scan(self, s):
        edges = {t for n in s.signature.transitions for t in s.relations[n]}
        for size in (0, 1, 2):
            for elems in {tuple(s.universe[i : i + size]) for i in range(len(s))}:
                forward = [v for v in s.universe if any((u, v) in edges for u in elems)]
                both = [
                    v
                    for v in s.universe
                    if any((u, v) in edges or (v, u) in edges for u in elems)
                ]
                assert s.accessible(elems) == tuple(forward)
                assert s.accessible(iter(elems), backward=True) == tuple(both)


    @pytest.mark.parametrize("s", FIXTURES30 + BOUNDED_FIXTURES, ids=range(40))
    def test_partners_match_edge_scan(self, s):
        for name, arity in s.signature.relations.items():
            if arity != 2:
                with pytest.raises(ValueError):
                    s.partners(name)
                continue
            edges = s.relations[name]
            succ, pred = s.partners(name), s.partners(name, backward=True)
            assert succ is s.partners(name) and pred is s.partners(name, True)
            assert list(succ) == list(pred) == list(s.universe)
            for x in s.universe:
                assert succ[x] == tuple(v for v in s.universe if (x, v) in edges)
                assert pred[x] == tuple(u for u in s.universe if (u, x) in edges)


class TestMorphismPredicates:
    def test_constant_map_to_loop(self):
        h = {e: "a" for e in PATH3.universe}
        assert is_homomorphism(h, PATH3, LOOP)

    def test_identity(self):
        h = {e: e for e in PATH3.universe}
        assert is_homomorphism(h, PATH3, PATH3)

    def test_loop_to_path3_fails(self):
        assert not is_homomorphism({"a": "a"}, LOOP, PATH3)

    def test_partial_map_outside_codomain(self):
        with pytest.raises(ValueError):
            is_homomorphism({"a": "zzz"}, LOOP, PATH3)

    def test_partial_iso_loop_c2(self):
        assert not is_partial_isomorphism([("a", "b0")], LOOP, C2)

    def test_partial_iso_empty(self):
        assert is_partial_isomorphism([], LOOP, C2)

    def test_partial_iso_not_a_function(self):
        assert not is_partial_isomorphism([("a", "b0"), ("a", "b1")], C2, C2)


class TestPartialIsoAgainstDefinition:
    @staticmethod
    def oracle(pairs, a, b):
        from itertools import product as iproduct

        fwd, bwd = {}, {}
        for x, y in pairs:
            if x not in a._pos or y not in b._pos:
                return False
            if fwd.get(x, y) != y or bwd.get(y, x) != x:
                return False
            fwd[x] = y
            bwd[y] = x
        for name, arity in a.signature.relations.items():
            for dom_tuple in iproduct(sorted(fwd), repeat=arity):
                preserved = a.has_tuple(name, dom_tuple) == b.has_tuple(
                    name, tuple(fwd[e] for e in dom_tuple)
                )
                if not preserved:
                    return False
        return True

    def test_random_pair_sets(self):
        import random

        rng = random.Random(555)
        for _ in range(300):
            a = rng.choice(FIXTURES30)
            b = rng.choice(FIXTURES30)
            size = rng.randint(0, 4)
            pairs = [
                (rng.choice(a.universe), rng.choice(b.universe)) for _ in range(size)
            ]
            assert is_partial_isomorphism(pairs, a, b) == self.oracle(pairs, a, b)


class TestJson:
    def test_round_trip(self):
        data = structure_to_data(PATH3)
        assert structure_from_data(json.loads(json.dumps(data))) == PATH3

    def test_documented_shape(self):
        s = structure_from_data(
            {
                "signature": {"relations": {"E": 2, "P": 1}, "transitions": ["E"]},
                "universe": ["a", "b"],
                "relations": {"E": [["a", "b"]]},
                "basepoints": ["a"],
            }
        )
        assert s.universe == ("a", "b")
        assert s.relations["E"] == (("a", "b"),)

    @pytest.mark.parametrize(
        "mutation, path",
        [
            ({"universe": ["a", "a"]}, "universe[1]"),
            ({"relations": {"E": [["a", "zzz"]]}}, "relations.E[0][1]"),
            ({"relations": {"E": [["a"]]}}, "relations.E[0]"),
            ({"basepoints": ["nope"]}, "basepoints[0]"),
            ({"relations": {"X": []}}, "relations.X"),
        ],
    )
    def test_first_violation_reported_with_path(self, mutation, path):
        data = {
            "signature": {"relations": {"E": 2}, "transitions": ["E"]},
            "universe": ["a", "b"],
            "relations": {"E": [["a", "b"]]},
            "basepoints": ["a"],
        }
        data.update(mutation)
        with pytest.raises(InvalidStructureError) as err:
            structure_from_data(data)
        assert path in str(err.value)

    @pytest.mark.parametrize("arity", [True, False, 1.0, "2"])
    def test_arity_must_be_a_positive_int(self, arity):
        with pytest.raises(InvalidStructureError) as err:
            Signature({"E": arity}, [], 1)
        assert str(err.value).startswith("signature.relations.E: arity must be")

    @pytest.mark.parametrize("count", [True, False, -1, 1.0])
    def test_num_basepoints_must_be_a_natural_int(self, count):
        with pytest.raises(InvalidStructureError) as err:
            Signature({"E": 2}, ["E"], count)
        assert str(err.value).startswith("signature.num_basepoints: must be")

    def test_reserved_identity_rejected(self):
        with pytest.raises(InvalidStructureError):
            Signature({"I": 2}, [], 1)

    def test_unreachable_p_vertex_fixture(self):
        # sanity for the invariance counterexample used elsewhere
        assert reachable_part(ISOLATED_P, 1).universe == ("a",)

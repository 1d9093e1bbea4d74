import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from hybridkit import coalgebras
from hybridkit.coalgebras import (
    Coalgebra,
    TreeCover,
    check_coalgebra_laws,
    check_open_pathwise_embedding,
    coalgebra_number,
    coalgebra_to_cover,
    cover_to_coalgebra,
    enumerate_coalgebras,
    enumerate_generated_covers,
    generated_tree_depth,
    is_generated_tree_cover,
)
from hybridkit.comonads import ComonadKind, build_comonad, counit, play_join
from hybridkit.errors import ResourceLimitError
from hybridkit.structures import INF, Signature, Structure, is_partial_isomorphism

from helpers import carrier_tree_cover

from fixtures import (
    BOUNDED_FIXTURES,
    FIXTURES30,
    ISOLATED_P,
    LOOP,
    PATH3,
    STAR2,
    UNIMODAL,
    unimodal,
)

CHAIN3 = TreeCover(PATH3, {"b": "a", "c": "b"})
STAR_COVER = TreeCover(STAR2, {"b1": "a", "b2": "a"})


def brute_force_covers(s, k_bound=None):
    """Oracle: every parent map over the universe, filtered through the
    cover predicate."""
    m = s.signature.num_basepoints
    if m < 1 or len(set(s.basepoints)) != m:
        return
    fixed = {s.basepoints[i]: s.basepoints[i - 1] for i in range(1, m)}
    rest = [e for e in s.universe if e not in s.basepoints]
    choices = [[p for p in s.universe if p != e] for e in rest]
    for combo in product(*choices) if rest else [()]:
        parent = dict(fixed)
        parent.update(zip(rest, combo))
        cover = TreeCover(s, parent)
        try:
            if is_generated_tree_cover(cover, k_bound):
                yield cover
        except ValueError:
            continue  # cyclic parent choice


def assert_search_matches_oracle(s):
    """Covers at every bound are the oracle's, each once, and the depth is
    the oracle's least height."""
    every = list(brute_force_covers(s))
    m = s.signature.num_basepoints
    for k in (None, 0, 1, 2, 3):
        found = list(enumerate_generated_covers(s, k))
        assert len(found) == len(set(found)), (s, k)
        want = {c for c in every if k is None or c.height() - m <= k}
        assert set(found) == want, (s, k)
    assert generated_tree_depth(s) == min((c.height() for c in every), default=INF)


VOCABULARIES = [
    ({"P": 1, "E": 2}, ["E"]),
    ({"P": 1, "E": 2, "F": 2}, ["E", "F"]),
    ({"E": 2, "R": 2}, ["E"]),  # R adds Gaifman edges no transition gives
]


@st.composite
def small_structures(draw):
    """Up to six elements, one or two transitions, one or two basepoints.
    Most elements get a transition from an earlier one, so that covers are
    common, but elements may be unreachable and basepoints may repeat."""
    relations, transitions = draw(st.sampled_from(VOCABULARIES))
    m = draw(st.integers(1, 2))
    n = draw(st.integers(m, 6))
    universe = [f"v{i}" for i in range(n)]
    element = st.sampled_from(universe)
    interp = {
        name: draw(st.lists(st.tuples(*[element] * arity), max_size=n))
        for name, arity in relations.items()
    }
    for i in range(1, n):
        source = draw(st.integers(0, i))  # i: no edge into v{i}
        if source < i:
            name = draw(st.sampled_from(transitions))
            interp[name].append((universe[source], universe[i]))
    basepoints = draw(
        st.just(universe[:m]) | st.lists(element, min_size=m, max_size=m)
    )
    return Structure(Signature(relations, transitions, m), universe, interp, basepoints)


class TestCoverPredicate:
    def test_path3_chain(self):
        assert is_generated_tree_cover(CHAIN3)
        assert CHAIN3.height() == 3

    def test_star_cover(self):
        assert is_generated_tree_cover(STAR_COVER)
        assert STAR_COVER.height() == 2

    def test_adjacent_elements_must_be_comparable(self):
        flat = TreeCover(PATH3, {"b": "a", "c": "a"})
        assert not is_generated_tree_cover(flat)

    def test_generation_requires_transition_from_strict_predecessor(self):
        s = unimodal(["a", "b"], [])  # no edges: b cannot be generated
        assert not is_generated_tree_cover(TreeCover(s, {"b": "a"}))

    def test_cycle_raises(self):
        cover = TreeCover(PATH3, {"b": "c", "c": "b"})
        with pytest.raises(ValueError):
            is_generated_tree_cover(cover)

    def test_height_bound(self):
        assert is_generated_tree_cover(CHAIN3, 2)
        assert not is_generated_tree_cover(CHAIN3, 1)


class TestConversions:
    def test_path3_alpha(self):
        alg = cover_to_coalgebra(CHAIN3, 2)
        assert alg.alpha["c"] == "a.b.c"

    def test_star_alpha(self):
        alg = cover_to_coalgebra(STAR_COVER, 1)
        assert alg.alpha["b1"] == "a.b1"
        assert alg.alpha["b2"] == "a.b2"

    def test_round_trip_on_enumerated_covers(self):
        for s in FIXTURES30[:12]:
            for k in (1, 2, 3):
                for cover in enumerate_generated_covers(s, k):
                    alg = cover_to_coalgebra(cover, k)
                    assert coalgebra_to_cover(alg) == cover

    def test_height_bound_enforced(self):
        with pytest.raises(ValueError):
            cover_to_coalgebra(CHAIN3, 1)


class TestLaws:
    def test_converted_covers_pass(self):
        report = check_coalgebra_laws(cover_to_coalgebra(CHAIN3, 2))
        assert report.all_pass

    def test_truncated_play_fails_counit(self):
        alg = cover_to_coalgebra(CHAIN3, 2)
        bad = dict(alg.alpha)
        bad["c"] = "a.b"
        report = check_coalgebra_laws(Coalgebra(alg.target, bad))
        assert not report.counit_law

    def test_ef_style_assignment_fails_hybrid_membership(self):
        # an isolated vertex can be played in the EF carrier but is not
        # generated, so the branch is not a hybrid play
        target = build_comonad(ISOLATED_P, ComonadKind.HYBRID, 2)
        alpha = {"a": "a", "z": "a.z"}
        report = check_coalgebra_laws(Coalgebra(target, alpha))
        assert not report.membership
        ef = build_comonad(ISOLATED_P, ComonadKind.EF, 2)
        assert "a.z" in set(ef.plays)


class TestLawPins:
    """One sabotaged assignment per failure branch of
    ``check_coalgebra_laws``: flags and failures in the order checked."""

    def report(self, base, alpha):
        target = build_comonad(base, ComonadKind.HYBRID, 2)
        report = check_coalgebra_laws(Coalgebra(target, alpha))
        flags = (
            report.membership,
            report.counit_law,
            report.comultiplication_law,
            report.homomorphism,
        )
        return flags, report.failures

    def test_no_play_assigned(self):
        assert self.report(PATH3, {"a": "a", "b": "a.b"}) == (
            (False, False, False, False),
            ("no play assigned to 'c'",),
        )

    def test_not_a_play(self):
        # the first element in universe order is blamed, not the missing one
        assert self.report(PATH3, {"a": "a", "b": "a.c"}) == (
            (False, False, False, False),
            ("branch of 'b' is not a play of the carrier",),
        )

    def test_counit(self):
        assert self.report(PATH3, {"a": "a", "b": "a.b", "c": "a.b"}) == (
            (True, False, True, False),
            (
                "counit law fails at 'c'",
                "assignment is not a homomorphism into the carrier",
            ),
        )

    def test_comultiplication(self):
        # b's branch runs through c, whose own branch runs through b
        edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")]
        base = unimodal(["a", "b", "c"], edges)
        assert self.report(base, {"a": "a", "b": "a.c.b", "c": "a.b.c"}) == (
            (True, True, False, False),
            (
                "comultiplication law fails at 'b' (entry 'c')",
                "assignment is not a homomorphism into the carrier",
            ),
        )

    def test_homomorphism(self):
        # consistent branches, but the edge b -> c joins incomparable plays
        base = unimodal(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")])
        assert self.report(base, {"a": "a", "b": "a.b", "c": "a.c"}) == (
            (True, True, True, False),
            ("assignment is not a homomorphism into the carrier",),
        )


class TestDepthAndNumber:
    def test_path3(self):
        assert generated_tree_depth(PATH3) == 3

    def test_star(self):
        assert generated_tree_depth(STAR2) == 2

    def test_isolated_vertex_has_no_cover(self):
        assert generated_tree_depth(ISOLATED_P) == INF
        assert coalgebra_number(ISOLATED_P) == INF

    @pytest.mark.parametrize("s", FIXTURES30[:14], ids=range(14))
    def test_number_matches_depth_offset(self, s):
        depth = generated_tree_depth(s)
        number = coalgebra_number(s, ComonadKind.HYBRID)
        if depth == INF:
            assert number == INF
        else:
            assert number == max(depth - 1, 1)


class TestCoverSearch:
    @pytest.mark.parametrize("s", FIXTURES30 + BOUNDED_FIXTURES, ids=range(40))
    def test_fixtures_match_oracle(self, s):
        assert_search_matches_oracle(s)

    @settings(max_examples=80, deadline=None)
    @given(small_structures())
    def test_random_structures_match_oracle(self, s):
        assert_search_matches_oracle(s)

    def test_depth_of_twelve_elements_within_a_second(self):
        # an out-tree from v0 on twelve elements, plus twenty chords
        v = [f"v{i}" for i in range(12)]
        edges = [(v[i // 2], v[i]) for i in range(1, 12)]
        edges += [(v[(5 * i + 3) % 12], v[(7 * i) % 12]) for i in range(20)]
        s = unimodal(v, edges, basepoint="v0")
        start = time.perf_counter()
        depth = generated_tree_depth(s)
        assert time.perf_counter() - start < 1.0
        witness = next(enumerate_generated_covers(s, depth - 1))
        assert is_generated_tree_cover(witness) and witness.height() == depth
        assert next(enumerate_generated_covers(s, depth - 2), None) is None


class TestBijectionCount:
    @pytest.mark.parametrize("s", FIXTURES30[:12], ids=range(12))
    def test_counts_match(self, s):
        for k in (1, 2, 3):
            covers = list(enumerate_generated_covers(s, k))
            coalgebras = list(enumerate_coalgebras(s, ComonadKind.HYBRID, k))
            assert len(covers) == len(coalgebras)
            converted = {coalgebra_to_cover(c) for c in coalgebras}
            assert converted == set(covers)

    def test_bounded_m2_chain_condition(self):
        for s in BOUNDED_FIXTURES[:4]:
            m = s.signature.num_basepoints
            for cover in enumerate_generated_covers(s, 2):
                bps = s.basepoints
                assert cover.roots() == (bps[0],)
                for i in range(1, m):
                    assert cover.parent[bps[i]] == bps[i - 1]
                assert cover.height() - m <= 2


class TestCarrierCover:
    @pytest.mark.parametrize("s", FIXTURES30[:8], ids=range(8))
    def test_prefix_order_is_generated_cover(self, s):
        c = build_comonad(s, ComonadKind.HYBRID, 2)
        cover = carrier_tree_cover(c)
        assert is_generated_tree_cover(cover, 2)

    @pytest.mark.parametrize("s", FIXTURES30[:8], ids=range(8))
    def test_counit_triangle(self, s):
        for k in (1, 2):
            for cover in enumerate_generated_covers(s, k):
                alg = cover_to_coalgebra(cover, k)
                for e in s.universe:
                    assert counit(alg.target, alg.alpha[e]) == e


class TestOpenPathwiseEmbeddings:
    def test_identity(self):
        ident = {e: e for e in PATH3.universe}
        assert check_open_pathwise_embedding(ident, CHAIN3, CHAIN3)

    def test_collapsing_distinct_atoms_is_not_pathwise(self):
        base = unimodal(["a", "b1", "b2"], [("a", "b1"), ("a", "b2")], pos=["b1"])
        target = unimodal(["a", "b"], [("a", "b")], pos=["b"])
        cover = TreeCover(base, {"b1": "a", "b2": "a"})
        target_cover = TreeCover(target, {"b": "a"})
        f = {"a": "a", "b1": "b", "b2": "b"}
        assert not check_open_pathwise_embedding(f, cover, target_cover)

    def test_pruned_branch_fails_lifting(self):
        full = unimodal(["a", "b", "c"], [("a", "b"), ("b", "c")])
        pruned = unimodal(["a", "b"], [("a", "b")])
        full_cover = TreeCover(full, {"b": "a", "c": "b"})
        pruned_cover = TreeCover(pruned, {"b": "a"})
        inclusion = {"a": "a", "b": "b"}
        assert not check_open_pathwise_embedding(inclusion, pruned_cover, full_cover)

    def test_pins_not_pathwise(self):
        # a cover morphism, open, but b2 lacks P, and its image b has it
        base = unimodal(["a", "b1", "b2"], [("a", "b1"), ("a", "b2")], pos=["b1"])
        target = unimodal(["a", "b"], [("a", "b")], pos=["b"])
        cover = TreeCover(base, {"b1": "a", "b2": "a"})
        target_cover = TreeCover(target, {"b": "a"})
        f = {"a": "a", "b1": "b", "b2": "b"}
        pairs = tuple((e, f[e]) for e in cover.branch("b2"))
        assert not is_partial_isomorphism(pairs, base, target)
        assert not check_open_pathwise_embedding(f, cover, target_cover)

    def test_pins_not_open(self):
        # every branch embeds, but the branch a.c of the target has no lift
        small = unimodal(["a", "b"], [("a", "b")])
        big = unimodal(["a", "b", "c"], [("a", "b"), ("a", "c")])
        cover = TreeCover(small, {"b": "a"})
        big_cover = TreeCover(big, {"b": "a", "c": "a"})
        f = {"a": "a", "b": "b"}
        for x in small.universe:
            pairs = tuple((e, f[e]) for e in cover.branch(x))
            assert is_partial_isomorphism(pairs, small, big)
        assert not check_open_pathwise_embedding(f, cover, big_cover)

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(coalgebras, "MAX_EMBEDDING_SIZE", 2)
        with pytest.raises(ResourceLimitError):
            check_open_pathwise_embedding(
                {e: e for e in PATH3.universe}, CHAIN3, CHAIN3
            )

    def test_non_morphism_rejected(self):
        with pytest.raises(ValueError):
            check_open_pathwise_embedding(
                {"a": "a", "b": "a", "c": "a"}, CHAIN3, CHAIN3
            )

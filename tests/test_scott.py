import pytest

from hybridkit import syntax as sx
from hybridkit.games import GameVariant, solve, solve_bijection
from hybridkit.parser import parse_fo, print_fo
from hybridkit.scott import (
    characteristic_formula,
    normalize_counting,
    scott_formula,
    scott_type,
)
from hybridkit.semantics import eval_fo
from hybridkit.structures import Signature, Structure
from hybridkit.syntax import is_bounded, quantifier_rank

from helpers import relabel
from fixtures import C2, FIXTURES30, LOOP, PATH3, STAR2, STAR3, UNIMODAL


class TestScottType:
    def test_isomorphic_structures_agree(self):
        relabeled = relabel(PATH3, {"a": "u", "b": "v", "c": "w"})
        for k in (0, 1, 2, 3):
            assert scott_type(PATH3, k) == scott_type(relabeled, k)

    def test_loop_vs_c2_at_one(self):
        assert scott_type(LOOP, 1) != scott_type(C2, 1)

    def test_star_counts_differ(self):
        assert scott_type(STAR2, 1) != scott_type(STAR3, 1)
        assert scott_type(STAR2, 0) == scott_type(STAR3, 0)


@pytest.mark.parametrize("build", [characteristic_formula, scott_type, scott_formula])
def test_negative_rank_is_rejected(build):
    with pytest.raises(ValueError, match="rank must be non-negative, got -1"):
        build(LOOP, -1)


def test_deep_rank_stays_within_the_recursion_limit():
    # on LOOP every rank keeps the one-element tuple: one frame plus the
    # cache wrapper per rank
    descriptor, depth = scott_type(LOOP, 400), 0
    while descriptor[0] == "counts":
        ((descriptor, count),) = descriptor[1]  # the loop's one successor
        assert count == 1
        depth += 1
    assert (descriptor[0], depth) == ("atomic", 400)


class TestCharacteristicFormula:
    def test_true_on_itself(self):
        for s in FIXTURES30[:10]:
            for k in (0, 1, 2):
                assert eval_fo(characteristic_formula(s, k), s)

    def test_rank_zero_separates_loop_from_c2(self):
        assert not eval_fo(characteristic_formula(LOOP, 0), C2)

    def test_rank_one_cannot_count_stars(self):
        assert eval_fo(characteristic_formula(STAR2, 1), STAR3)
        assert eval_fo(characteristic_formula(STAR3, 1), STAR2)

    def test_is_bounded_and_rank(self):
        for s in (LOOP, C2, STAR2):
            for k in (0, 1, 2, 3):
                chi = characteristic_formula(s, k)
                assert is_bounded(chi, s.signature)
                assert quantifier_rank(chi) <= k

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_agrees_with_game_on_small_pairs(self, k):
        subset = FIXTURES30[:8]
        for a in subset:
            chi = characteristic_formula(a, k)
            for b in subset:
                game = solve(a, b, GameVariant.BACK_FORTH_BOUNDED, k).winner
                assert eval_fo(chi, b) == (game == "Duplicator")

    def test_temporal_variant_separates_back_edges(self):
        from fixtures import BACK_EDGE, SINGLE

        chi = characteristic_formula(SINGLE, 1, temporal=True)
        assert not eval_fo(chi, BACK_EDGE)
        plain = characteristic_formula(SINGLE, 1, temporal=False)
        assert eval_fo(plain, BACK_EDGE)


class TestScottFormula:
    def test_models_itself(self):
        for s in FIXTURES30[:10]:
            for k in (0, 1, 2):
                assert eval_fo(scott_formula(s, k), s)

    def test_models_iff_types_equal(self):
        subset = FIXTURES30[:8]
        for a in subset:
            for k in (0, 1, 2):
                fm = scott_formula(a, k)
                for b in subset:
                    assert eval_fo(fm, b) == (scott_type(a, k) == scott_type(b, k))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_unpointed_sentence_prints_back(self, k):
        # no basepoints: the root tuple is empty, and so are its acc sources
        unpointed = Signature({"P": 1, "E": 2}, ["E"], 0)
        s = Structure(unpointed, ["a"], {"P": [], "E": [("a", "a")]}, [])
        f = scott_formula(s, k)
        assert parse_fo(print_fo(f)) is f

    def test_type_equality_matches_bijection_game(self):
        subset = FIXTURES30[:8]
        for a in subset:
            for b in subset:
                for k in (0, 1, 2):
                    bij = solve_bijection(a, b, k).winner == "Duplicator"
                    assert bij == (scott_type(a, k) == scott_type(b, k))


class TestCountNormalization:
    def cases(self):
        acc = sx.Acc((sx.Const(1),), "y")
        yield sx.CountExists(2, "y", acc, sx.TRUE)
        yield sx.CountExists(1, "y", acc, sx.Rel("P", (sx.Var("y"),)))
        two_guards = sx.Or(
            sx.Rel("E", (sx.Const(1), sx.Var("y"))),
            sx.Rel("E", (sx.Var("y"), sx.Const(1))),
        )
        yield sx.CountExists(2, "y", two_guards, sx.TRUE)
        yield sx.Not(sx.CountExists(3, "y", acc, sx.TRUE))

    def test_preserves_semantics(self):
        for f in self.cases():
            g = normalize_counting(f, UNIMODAL)
            for s in FIXTURES30[:12]:
                assert eval_fo(f, s) == eval_fo(g, s), (f, s)

    def test_preserves_rank(self):
        for f in self.cases():
            assert quantifier_rank(normalize_counting(f, UNIMODAL)) == quantifier_rank(f)

    def test_output_uses_single_guards(self):
        acc = sx.Acc((sx.Const(1), sx.Const(1)), "y")
        g = normalize_counting(sx.CountExists(2, "y", acc, sx.TRUE), UNIMODAL)

        def walk(f):
            if isinstance(f, sx.CountExists):
                assert isinstance(f.guard, sx.Rel)
                walk(f.body)
            elif isinstance(f, (sx.And, sx.Or)):
                walk(f.left)
                walk(f.right)
            elif isinstance(f, sx.Not):
                walk(f.sub)

        walk(g)

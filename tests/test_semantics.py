import hashlib
import random

import pytest

from hybridkit import syntax as sx
from hybridkit.errors import ScopeError
from hybridkit.parser import parse_fo, parse_hybrid, print_fo
from hybridkit.scott import characteristic_formula
from randgen import random_hybrid_formula
from hybridkit.semantics import (
    eval_fo,
    eval_hybrid,
    gaifman_relativize,
    standard_translation,
)
from hybridkit.structures import Signature, Structure, ball_part
from hybridkit.syntax import hybrid_depth, is_bounded, quantifier_rank

from fixtures import C2, FIXTURES30, LOOP, PATH3, PATH6, STAR2, STAR3, UNIMODAL


class TestDepthAndRank:
    def test_diamond_atom(self):
        assert hybrid_depth(parse_hybrid("dia p")) == 1

    def test_diamond_variable_is_free(self):
        assert hybrid_depth(sx.Dia(sx.WVar("x"))) == 0

    def test_binder_mixed(self):
        f = parse_hybrid("down x. dia (p & dia x)")
        assert hybrid_depth(f) == 1

    def test_rank_atomic(self):
        assert quantifier_rank(parse_fo("E(c1,c1)")) == 0

    def test_rank_bounded_exists(self):
        assert quantifier_rank(parse_fo("exists y (E(c1,y) & P(y))")) == 1

    def test_rank_nested(self):
        f = parse_fo("exists y (E(c1,y) & exists z (E(y,z) & P(z)))")
        assert quantifier_rank(f) == 2

    def test_rank_counting(self):
        assert quantifier_rank(parse_fo("exists>=2 y (E(c1,y) & true)")) == 1


class TestStandardTranslation:
    def test_diamond_atom(self):
        st = standard_translation(parse_hybrid("dia p"))
        assert print_fo(st) == "exists y (E(x,y) & P(y))"

    def test_atom(self):
        assert print_fo(standard_translation(parse_hybrid("p"))) == "P(x)"

    def test_binder_substitution(self):
        st = standard_translation(parse_hybrid("down x. dia x"))
        assert print_fo(st) == "exists y (E(x,y) & y = x)"

    def test_nominal_clauses(self):
        st = standard_translation(parse_hybrid("c1", num_nominals=1))
        assert print_fo(st) == "x = c1"
        st = standard_translation(parse_hybrid("@c1 p", num_nominals=1))
        assert print_fo(st) == "P(c1)"

    def test_backward_clause(self):
        st = standard_translation(parse_hybrid("diainv p"))
        assert print_fo(st) == "exists y (E(y,x) & P(y))"

    def test_box_clause(self):
        st = standard_translation(parse_hybrid("box p"))
        assert print_fo(st) == "forall y (E(x,y) -> P(y))"

    def test_output_is_bounded(self):
        rng = random.Random(5)
        for _ in range(60):
            f = random_hybrid_formula(rng, depth=3)
            st = standard_translation(f)
            assert is_bounded(st, UNIMODAL)

    def test_rank_dominates_depth(self):
        rng = random.Random(6)
        for _ in range(60):
            f = random_hybrid_formula(rng, depth=3)
            assert quantifier_rank(standard_translation(f)) >= hybrid_depth(f)


class TestEvalFO:
    def test_loop_self_edge(self):
        assert eval_fo(parse_fo("E(c1,c1)"), LOOP)

    def test_reflexive_equality(self):
        assert eval_fo(parse_fo("x = x"), PATH3, {"x": "a"})

    def test_counting_on_stars(self):
        f = parse_fo("exists>=2 y (E(c1,y) & true)")
        assert eval_fo(f, STAR3)
        assert eval_fo(f, STAR2)
        one_star = STAR2.induced(["a", "b1"])
        assert not eval_fo(f, one_star)

    def test_unbound_variable(self):
        with pytest.raises(ScopeError):
            eval_fo(parse_fo("P(x)"), PATH3)

    def test_constant_out_of_range(self):
        with pytest.raises(ScopeError):
            eval_fo(parse_fo("P(c2)"), PATH3)


class TestEvalHybrid:
    def test_loop_binder_diamond(self):
        assert eval_hybrid(parse_hybrid("down x. dia x"), LOOP)

    def test_c2_binder_diamond(self):
        assert not eval_hybrid(parse_hybrid("down x. dia x"), C2)

    def test_tautology(self):
        for s in (LOOP, C2, PATH3):
            assert eval_hybrid(parse_hybrid("p | !p"), s)

    def test_agrees_with_translation_on_random_formulas(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_hybrid_formula(rng, depth=2)
            st = standard_translation(f)
            for s in (LOOP, C2, PATH3, STAR2):
                assert eval_hybrid(f, s) == eval_fo(st, s, {"x": s.basepoints[0]})


class TestNominals:
    def test_nominal_evaluation_with_two_basepoints(self):
        from hybridkit.structures import Signature, Structure

        sig = Signature({"P": 1, "E": 2}, ["E"], 2)
        s = Structure(
            sig,
            ["a", "b"],
            {"E": [("a", "b")], "P": [("b",)]},
            ["a", "b"],
        )
        assert eval_hybrid(parse_hybrid("@c2 p", num_nominals=2), s)
        assert not eval_hybrid(parse_hybrid("c2", num_nominals=2), s)
        assert eval_hybrid(parse_hybrid("c1", num_nominals=2), s)
        assert eval_hybrid(parse_hybrid("dia c2", num_nominals=2), s)


class TestIsBounded:
    def test_translation_output(self):
        st = standard_translation(parse_hybrid("box (p & dia q)"))
        assert is_bounded(st, UNIMODAL)

    def test_unguarded_exists(self):
        assert not is_bounded(parse_fo("exists y (P(y))"), UNIMODAL)

    def test_non_transition_guard(self):
        f = sx.BoundedExists(
            "y", sx.Rel("F", (sx.Const(1), sx.Var("y"))), sx.TRUE
        )
        assert not is_bounded(f, UNIMODAL)


class TestExactCounts:
    def test_exact_count_abbreviation(self):
        guard = sx.Rel("E", (sx.Const(1), sx.Var("y")))
        for s in (STAR2, STAR3, LOOP, PATH3):
            degree = sum(1 for (u, _) in s.relations["E"] if u == s.basepoints[0])
            for i in range(4):
                exact = sx.exact_count(i, "y", guard, sx.TRUE)
                at_least = eval_fo(sx.CountExists(max(i, 1), "y", guard, sx.TRUE), s)
                above = eval_fo(sx.CountExists(i + 1, "y", guard, sx.TRUE), s)
                expected = (at_least if i else True) and not above
                assert eval_fo(exact, s) == expected == (degree == i)


def naive_eval(f, s, env):
    """Cache-free reference evaluator for differential testing."""
    if isinstance(f, sx.Rel):
        return s.has_tuple(f.name, tuple(_term(t, s, env) for t in f.args))
    if isinstance(f, sx.Eq):
        return _term(f.left, s, env) == _term(f.right, s, env)
    if isinstance(f, sx.Top):
        return True
    if isinstance(f, sx.Bottom):
        return False
    if isinstance(f, sx.Acc):
        sources = [_term(t, s, env) for t in f.sources]
        return any(
            (src, env[f.var]) in set(s.relations[name])
            for name in s.signature.transitions
            for src in sources
        )
    if isinstance(f, sx.Not):
        return not naive_eval(f.sub, s, env)
    if isinstance(f, sx.And):
        return naive_eval(f.left, s, env) and naive_eval(f.right, s, env)
    if isinstance(f, sx.Or):
        return naive_eval(f.left, s, env) or naive_eval(f.right, s, env)
    if isinstance(f, sx.Forall):
        return all(naive_eval(f.body, s, {**env, f.var: e}) for e in s.universe)
    if isinstance(f, sx.Exists):
        return any(naive_eval(f.body, s, {**env, f.var: e}) for e in s.universe)
    if isinstance(f, sx.BoundedForall):
        return all(
            not naive_eval(f.guard, s, {**env, f.var: e})
            or naive_eval(f.body, s, {**env, f.var: e})
            for e in s.universe
        )
    if isinstance(f, sx.BoundedExists):
        return any(
            naive_eval(f.guard, s, {**env, f.var: e})
            and naive_eval(f.body, s, {**env, f.var: e})
            for e in s.universe
        )
    if isinstance(f, sx.CountExists):
        hits = sum(
            1
            for e in s.universe
            if naive_eval(f.guard, s, {**env, f.var: e})
            and naive_eval(f.body, s, {**env, f.var: e})
        )
        return hits >= f.count
    raise TypeError(f)


def _term(t, s, env):
    if isinstance(t, sx.Var):
        return env[t.name]
    return s.basepoints[t.index - 1]


class TestEvalAgainstReference:
    def test_random_sentences(self):
        from randgen import random_bounded_sentence, random_fo_sentence

        rng = random.Random(808)
        for _ in range(120):
            s = FIXTURES30[rng.randrange(len(FIXTURES30))]
            f = (
                random_bounded_sentence(rng, UNIMODAL, rng.randint(0, 2))
                if rng.random() < 0.5
                else random_fo_sentence(rng, UNIMODAL, rng.randint(0, 2))
            )
            assert eval_fo(f, s) == naive_eval(f, s, {})

    def test_characteristic_formulas(self):
        from hybridkit.scott import characteristic_formula

        for a in FIXTURES30[:5]:
            chi = characteristic_formula(a, 2)
            for b in FIXTURES30[:5]:
                assert eval_fo(chi, b) == naive_eval(chi, b, {})


class TestRelativization:
    def test_expands_distance_guard(self):
        rel = gaifman_relativize(parse_fo("exists y (P(y))"), 2, UNIMODAL)
        assert isinstance(rel, sx.Exists)
        assert isinstance(rel.body, sx.And)

    def test_quantifier_free_unchanged(self):
        f = parse_fo("E(c1,c1) | !P(c1)")
        assert gaifman_relativize(f, 3, UNIMODAL) == f

    def test_ball_property_on_path6(self):
        formulas = [
            "exists y (P(y))",
            "exists y (E(c1,y) & exists z (E(y,z) & true))",
            "forall y (E(y,y) | !E(y,y))",
            "exists y (exists z (E(y,z) & true))",
        ]
        for text in formulas:
            f = parse_fo(text)
            for k in (1, 2):
                rel = gaifman_relativize(f, k, UNIMODAL)
                assert eval_fo(rel, PATH6) == eval_fo(f, ball_part(PATH6, k))

    # a ternary relation makes the adjacency formulas quantify inner names,
    # which must not capture the variables of the distance levels
    TERNARY = Structure(
        Signature({"E": 2, "R": 3, "P": 1}, ["E"], 1),
        ["a", "b", "c", "d", "e"],
        {"R": [("a", "b", "d"), ("b", "c", "e")], "P": [("c",)]},
        ["a"],
    )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_ball_property_with_a_ternary_relation(self, k):
        s = self.TERNARY
        for text in ("exists y (P(y))", "forall y (!P(y) | exists z (R(y,z,z) | z = y))"):
            f = parse_fo(text)
            rel = gaifman_relativize(f, k, s.signature)
            assert eval_fo(rel, s) == eval_fo(f, ball_part(s, k))

    @pytest.mark.parametrize("s", FIXTURES30[:10], ids=range(10))
    def test_ball_property_across_fixtures(self, s):
        f = parse_fo("exists y (P(y) & exists z (E(z,y) & true))")
        for k in (1, 2):
            rel = gaifman_relativize(f, k, s.signature)
            assert eval_fo(rel, s) == eval_fo(f, ball_part(s, k))

    def test_shared_subformulas_relativize_as_before(self):
        # χ is a DAG that shares most of its nodes; this output was pinned
        # while relativization still walked it as a tree
        s = FIXTURES30[20]
        rel = gaifman_relativize(characteristic_formula(s, 3), 1, s.signature)
        assert hashlib.sha256(print_fo(rel).encode()).hexdigest() == (
            "02fa3aea14e23f1e6a94df72cab9ffa2fe66d95566ca221526b7f18e14e6e3b3"
        )

    def test_ball_property_of_a_rank4_characteristic_formula(self):
        chi = characteristic_formula(FIXTURES30[20], 4)
        rel = gaifman_relativize(chi, 1, UNIMODAL)
        for s in FIXTURES30[:8] + [FIXTURES30[20]]:
            assert eval_fo(rel, s) == eval_fo(chi, ball_part(s, 1))

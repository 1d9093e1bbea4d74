import sys

import pytest

from hybridkit.errors import ParseError, ScopeError
from hybridkit.parser import parse_fo, parse_hybrid, print_fo, print_hybrid
from hybridkit import syntax as sx


class TestHybridParsing:
    def test_binder_diamond(self):
        assert parse_hybrid("down x. dia x") == sx.Bind("x", sx.Dia(sx.WVar("x")))

    def test_unbound_variable_is_scope_error(self):
        with pytest.raises(ScopeError):
            parse_hybrid("dia x")

    def test_open_mode_allows_free_variables(self):
        assert parse_hybrid("dia x", closed=False) == sx.Dia(sx.WVar("x"))

    def test_nominal_and_at(self):
        f = parse_hybrid("@c1 p", num_nominals=1)
        assert f == sx.At(sx.Nom(1), sx.Atom("p"))

    def test_nominal_out_of_range(self):
        with pytest.raises(ScopeError):
            parse_hybrid("@c2 p", num_nominals=1)

    def test_precedence(self):
        f = parse_hybrid("p & q | !r")
        assert f == sx.Disj(sx.Conj(sx.Atom("p"), sx.Atom("q")), sx.Neg(sx.Atom("r")))

    def test_binder_scopes_to_the_right(self):
        f = parse_hybrid("down x. dia x & p")
        assert f == sx.Bind("x", sx.Conj(sx.Dia(sx.WVar("x")), sx.Atom("p")))

    def test_backwards_modalities(self):
        f = parse_hybrid("diainv p | boxinv q")
        assert f == sx.Disj(sx.DiaInv(sx.Atom("p")), sx.BoxInv(sx.Atom("q")))

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_hybrid("p & ")
        assert "position" in str(err.value)


class TestFOParsing:
    def test_bounded_exists(self):
        f = parse_fo("exists y (E(c1,y) & P(y))")
        assert f == sx.BoundedExists(
            "y",
            sx.Rel("E", (sx.Const(1), sx.Var("y"))),
            sx.Rel("P", (sx.Var("y"),)),
        )

    def test_bounded_forall_from_implication(self):
        f = parse_fo("forall y (E(c1,y) -> P(y))")
        assert f == sx.BoundedForall(
            "y",
            sx.Rel("E", (sx.Const(1), sx.Var("y"))),
            sx.Rel("P", (sx.Var("y"),)),
        )

    def test_counting(self):
        f = parse_fo("exists>=3 y (E(c1,y) & true)")
        assert f == sx.CountExists(
            3, "y", sx.Rel("E", (sx.Const(1), sx.Var("y"))), sx.TRUE
        )

    def test_counting_needs_guard(self):
        with pytest.raises(ParseError):
            parse_fo("exists>=2 y (P(y))")

    def test_unguarded_quantifiers(self):
        f = parse_fo("exists y (P(y))")
        assert f == sx.Exists("y", sx.Rel("P", (sx.Var("y"),)))
        g = parse_fo("forall y (P(y) | Q(y))")
        assert isinstance(g, sx.Forall)

    def test_self_guard_stays_plain(self):
        # E(y,y) does not qualify as a guard, so the quantifier is unguarded
        f = parse_fo("exists y (E(y,y) & P(y))")
        assert isinstance(f, sx.Exists)

    def test_backward_guard(self):
        f = parse_fo("exists y (E(y,c1) & P(y))")
        assert isinstance(f, sx.BoundedExists)
        assert f.guard == sx.Rel("E", (sx.Var("y"), sx.Const(1)))

    def test_equality_and_acc(self):
        assert parse_fo("x = c2") == sx.Eq(sx.Var("x"), sx.Const(2))
        assert parse_fo("acc(c1,x; y)") == sx.Acc((sx.Const(1), sx.Var("x")), "y")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_fo("P(x) P(y)")

    @pytest.mark.parametrize(
        "text, char, position",
        [
            ("P(x)  $", "$", 6),
            ("P(x)  - Q(x)", "-", 6),
            ("P(x)\t> Q(x)", ">", 5),
            ("exists>=2 y (E(c1,y) &  ->> P(y))", ">", 26),
            ("$", "$", 0),
        ],
    )
    def test_unexpected_character_is_named_where_it_stands(self, text, char, position):
        with pytest.raises(ParseError) as err:
            parse_fo(text)
        assert err.value.position == position
        assert str(err.value) == f"at position {position}: unexpected character {char!r}"

    def test_hybrid_parser_shares_the_tokenizer(self):
        with pytest.raises(ParseError) as err:
            parse_hybrid("p &  $q")
        assert str(err.value) == "at position 5: unexpected character '$'"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("P(x) &", "at position 6: expected a formula, found 'end of input'"),
            ("exists>=0 y (E(c1,y) & P(y))", "at position 8: counting threshold must be at least 1"),
            ("exists>= y (P(y))", "at position 9: expected a count after '>=', found 'y'"),
            ("exists>=2 y (P(y))", "at position 10: counting quantifier requires a guarded body of the form (E(t,y) & f)"),
            ("acc(c1 y)", "at position 7: expected ';', found 'y'"),
            ("forall c1 (P(c1))", "at position 7: expected a variable, found 'c1'"),
            ("P(true)", "at position 2: expected a term, found 'true'"),
            ("(P(x)", "at position 5: expected ')', found 'end of input'"),
            ("P(x)) ", "at position 4: unexpected trailing input ')'"),
        ],
    )
    def test_error_messages_and_positions(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_fo(text)
        assert str(err.value) == message


HYBRID_CASES = [
    "down x. dia x",
    "p & q | !r",
    "box (p | q)",
    "@c1 dia p",
    "down x. box (p & dia x)",
    "diainv !p",
    "(down x. p) & q",
]

FO_CASES = [
    "exists y (E(c1,y) & P(y))",
    "forall y (E(c1,y) -> P(y))",
    "exists>=3 y (E(c1,y) & true)",
    "E(c1,c1)",
    "exists y (P(y))",
    "c1 = c2 | !(x = x)",
    "acc(c1; y)",
    "forall y (P(y) | false)",
]


class TestRoundTrips:
    @pytest.mark.parametrize("text", HYBRID_CASES)
    def test_hybrid_text_round_trip(self, text):
        f = parse_hybrid(text, closed=False)
        assert print_hybrid(f) == text
        assert parse_hybrid(print_hybrid(f), closed=False) == f

    @pytest.mark.parametrize("text", FO_CASES)
    def test_fo_text_round_trip(self, text):
        f = parse_fo(text)
        assert print_fo(f) == text
        assert parse_fo(print_fo(f)) == f

    def test_random_hybrid_round_trip(self):
        import random

        from randgen import random_hybrid_formula

        rng = random.Random(404)
        for _ in range(150):
            f = random_hybrid_formula(rng, depth=3)
            assert parse_hybrid(print_hybrid(f)) == f

    def test_random_fo_round_trip(self):
        import random

        from randgen import random_bounded_sentence, random_fo_sentence
        from hybridkit.structures import Signature

        sig = Signature({"P": 1, "Q": 1, "E": 2}, ["E"], 2)
        rng = random.Random(405)
        for _ in range(150):
            f = random_bounded_sentence(rng, sig, rng.randint(0, 3))
            assert parse_fo(print_fo(f)) == f
            g = random_fo_sentence(rng, sig, rng.randint(0, 2))
            assert parse_fo(print_fo(g)) == g


@pytest.mark.parametrize(
    "parse, show, atom",
    [(parse_fo, print_fo, "E(c1,c1)"), (parse_hybrid, print_hybrid, "p")],
)
def test_a_nesting_level_costs_the_parser_two_frames_and_the_printer_one(
    parse, show, atom
):
    limit = sys.getrecursionlimit()
    depth = limit * 2 // 5
    assert parse("(" * depth + atom + ")" * depth) == parse(atom)
    chain = " & ".join([atom] * (limit * 4 // 5))  # left-nested when parsed
    assert show(parse(chain)) == chain

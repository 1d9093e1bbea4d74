"""The incremental checks against their from-scratch references.

``scott_type``, ``find_cokleisli_morphism`` and ``back_and_forth_rank``
build atomic information incrementally along each extension tuple or play,
through the one atom step ``Structure.atoms_at_last``, a carrier keeps its
element tuples, prefixes and children from one walk of its play tree and
lifts its relations through the same step, the game arena filters Duplicator's replies through
per-structure atom codes, the first-order evaluator walks guarded
quantifiers over the partner index and memoizes only compound operands, and
the parsers read a token list made by one ``findall``, and strategies are
keyed on the solver's memo key, with Hall pairs for Spoiler in the
bijection game; ``oracles`` keeps the forms they replaced.  On random unimodal pairs, the games are also
checked against the independent procedures that characterize them.
Random structures of up to 6 elements come in four shapes: unimodal,
bimodal with two basepoints, with a ternary relation, and with a repeated
basepoint; the games draw theirs with a ternary relation in every shape.
"""
import contextlib
import hashlib
import signal
import time
from itertools import groupby, permutations

import pytest
from hypothesis import given, settings, strategies as st

from hybridkit import games, syntax as sx
from hybridkit.characterization import ef_types_agree
from hybridkit.comonads import (
    ComonadKind,
    build_comonad,
    comultiplication,
    counit,
    find_cokleisli_morphism,
    play_join,
    play_parts,
)
from hybridkit.errors import ParseError, ResourceLimitError, ScopeError
from hybridkit.games import (
    DUPLICATOR,
    GameVariant,
    back_and_forth_rank,
    solve,
    solve_Gk,
    verify_strategy,
)
from hybridkit import scott
from hybridkit.scott import scott_type
from hybridkit.parser import parse_fo, parse_hybrid, print_fo, print_hybrid
from hybridkit.semantics import eval_fo
from hybridkit.structures import Signature, Structure, is_partial_isomorphism

import oracles
from helpers import relabel
from fixtures import BOUNDED_FIXTURES, C2, FIXTURES30, LOOP, fitting_kinds, pairs, star

BIMODAL = Signature({"P": 1, "E": 2, "F": 2}, ["E", "F"], 2)
SHAPES = {
    "unimodal": (Signature({"P": 1, "Q": 1, "E": 2}, ["E"], 1), False),
    "bimodal": (BIMODAL, False),
    "ternary": (Signature({"P": 1, "E": 2, "R": 3}, ["E"], 1), False),
    "repeated": (BIMODAL, True),
}


@st.composite
def structures(draw, signature: Signature, repeated: bool) -> Structure:
    size = draw(st.integers(1, 6))
    universe = [f"v{i}" for i in range(size)]
    element = st.sampled_from(universe)
    rels = {
        name: draw(st.lists(st.tuples(*[element] * arity), max_size=2 * size))
        for name, arity in sorted(signature.relations.items())
    }
    m = signature.num_basepoints
    if repeated:
        basepoints = [draw(element)] * m
    else:
        basepoints = draw(st.lists(element, min_size=m, max_size=m))
    return Structure(signature, universe, rels, basepoints)


TERNARY_BIMODAL = Signature({"P": 1, "E": 2, "F": 2, "R": 3}, ["E", "F"], 2)
GAME_SHAPES = {
    "unimodal": (Signature({"P": 1, "E": 2, "R": 3}, ["E"], 1), False),
    "bimodal": (TERNARY_BIMODAL, False),
    "repeated": (TERNARY_BIMODAL, True),
}


@st.composite
def structure_pairs(draw, shapes=SHAPES):
    """A structure and a partner: independent, a relabelled copy in another
    universe order, or the structure with one tuple added."""
    signature, repeated = shapes[draw(st.sampled_from(sorted(shapes)))]
    a = draw(structures(signature, repeated))
    how = draw(st.sampled_from(["far", "iso", "near"]))
    if how == "far":
        return a, draw(structures(signature, repeated))
    if how == "iso":
        order = draw(st.permutations(a.universe))
        mapping = {e: f"w{i}" for i, e in enumerate(order)}
        image = relabel(a, mapping)
        return a, Structure(
            signature, sorted(image.universe), image.relations, image.basepoints
        )
    name = draw(st.sampled_from(sorted(signature.relations)))
    extra = tuple(
        draw(st.sampled_from(a.universe)) for _ in range(signature.relations[name])
    )
    rels = {n: list(tuples) for n, tuples in a.relations.items()}
    rels[name].append(extra)
    return a, Structure(signature, a.universe, rels, a.basepoints)


def _listed(morphism):
    return None if morphism is None else list(morphism.items())


class TestAgainstOracles:
    @settings(max_examples=200, deadline=None)
    @given(structure_pairs(), st.integers(0, 2), st.data())
    def test_checks_match_their_references(self, pair, k, data):
        a, b = pair
        tup = a.basepoints + tuple(
            data.draw(st.lists(st.sampled_from(a.universe), max_size=3))
        )
        assert scott._types(a)(tup, 0) == ("atomic", oracles.atomic_type_key(a, tup))
        assert (scott_type(a, k) == scott_type(b, k)) == (
            oracles.scott_type(a, k) == oracles.scott_type(b, k)
        )
        assert back_and_forth_rank(a, b, k) == oracles.back_and_forth_rank(a, b, k)
        for kind in fitting_kinds(a) if k else ():
            assert _listed(find_cokleisli_morphism(a, b, kind, k)) == _listed(
                oracles.carrier_cokleisli_morphism(a, b, kind, k)
            )


#: Shapes whose basepoints repeat one element, with one or two basepoints.
REPEATED_SHAPES = {
    "repeated": (BIMODAL, True),
    "repeated-one": (BIMODAL.with_num_basepoints(1), True),
}


class TestRepeatsAtHigherRank:
    # the distinct-element recursions of scott_type and back_and_forth_rank
    # against the literal-tuple references, where repeats pile up
    @settings(max_examples=100, deadline=None)
    @given(
        structure_pairs(REPEATED_SHAPES).filter(lambda p: max(map(len, p)) <= 5),
        st.integers(3, 4),
    )
    def test_checks_match_their_references(self, pair, k):
        a, b = pair
        assert (scott_type(a, k) == scott_type(b, k)) == (
            oracles.scott_type(a, k) == oracles.scott_type(b, k)
        )
        assert back_and_forth_rank(a, b, k) == oracles.back_and_forth_rank(a, b, k)


class TestRepeatsOnOneSide:
    # every play over LOOP repeats its one element, while C2's first move
    # is new: the rank and coKleisli checks settle LOOP's repeats from the
    # prefix and take the atom step on C2
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_loop_against_c2(self, k):
        kind = ComonadKind.HYBRID
        for a, b in ((LOOP, C2), (C2, LOOP)):
            assert not back_and_forth_rank(a, b, k)
            assert not oracles.back_and_forth_rank(a, b, k)
            assert _listed(find_cokleisli_morphism(a, b, kind, k)) == _listed(
                oracles.carrier_cokleisli_morphism(a, b, kind, k)
            )
        assert find_cokleisli_morphism(LOOP, C2, kind, k) is None
        image = find_cokleisli_morphism(C2, LOOP, kind, k)
        assert list(image) == list(build_comonad(C2, kind, k).plays)
        assert set(image.values()) == {"a"}


def _outputs(structure_pairs):
    for a, b in structure_pairs:
        for k in (0, 1, 2):
            yield f"scott {k} {scott_type(a, k) == scott_type(b, k)}"
            yield f"rank {k} {back_and_forth_rank(a, b, k)}"
        for k in (1, 2):
            for kind in fitting_kinds(a):
                morphism = find_cokleisli_morphism(a, b, kind, k)
                yield f"cokleisli {kind.value} {k} {_listed(morphism)}"


class TestAtomStep:
    # the one atom step behind the independent checks and the carrier lift,
    # on random structures with a ternary relation and tuples that repeat
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(GAME_SHAPES)), st.data())
    def test_atoms_at_last_match_brute_force(self, shape, data):
        s = data.draw(structures(*GAME_SHAPES[shape]))
        element = st.sampled_from(s.universe)
        tup = tuple(data.draw(st.lists(element, min_size=1, max_size=5)))
        if data.draw(st.booleans()):  # end on an element played before
            tup += (data.draw(st.sampled_from(tup)),)
        found, earlier = s.atoms_at_last(tup)
        atoms, expected_earlier = oracles.atoms_at_last(s, tup)
        assert len(found) == len(set(found)) and set(found) == atoms
        assert earlier == expected_earlier
        names = [name for name, _ in found]
        assert len(list(groupby(names))) == len(set(names))


class TestPinnedOutputs:
    def test_check_outputs_are_unchanged(self):
        # computed before the checks became incremental
        digest = hashlib.sha256()
        for line in _outputs(
            list(pairs(FIXTURES30[:8])) + list(pairs(BOUNDED_FIXTURES))
        ):
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == (
            "11b18ef01e514b482d3d8ab2f461d11a6ae0f73d45ab4565aea10998924c9c65"
        )


class TestCarrierMapsAgainstDecoding:
    # the maps a carrier keeps are what decoding its play strings gives
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(SHAPES)), st.integers(1, 2), st.booleans(), st.data())
    def test_maps_match_the_decoded_plays(self, shape, k, with_I, data):
        s = data.draw(structures(*SHAPES[shape]))
        kind = data.draw(st.sampled_from(fitting_kinds(s)))
        c = build_comonad(s, kind, k, with_I=with_I)
        assert list(c.parts) == list(c.prefixes) == list(c.plays)
        children = oracles.carrier_children(c)
        for play in c.plays:
            parts = play_parts(play)
            prefixes = tuple(play_join(parts[:i]) for i in range(1, len(parts) + 1))
            assert c.parts[play] == parts
            assert c.prefixes[play] == prefixes == comultiplication(c, play)
            assert counit(c, play) == parts[-1]
            assert c.children(play) == children[play]
        lifted = {name: set(tuples) for name, tuples in c.carrier.relations.items()}
        assert lifted == oracles.carrier_relations(c)


class TestThreeWayCrosswalk:
    # the back-and-forth game, the comonadic game and the rank relation, and
    # the existential game and the coKleisli search, on random unimodal pairs
    @settings(max_examples=300, deadline=None)
    @given(structure_pairs({"unimodal": SHAPES["unimodal"]}), st.integers(1, 2))
    def test_games_agree_with_the_independent_checks(self, pair, k):
        a, b = pair
        game = solve(a, b, GameVariant.BACK_FORTH_HYBRID, k).winner == DUPLICATOR
        assert (solve_Gk(a, b, k).winner == DUPLICATOR) == game
        assert back_and_forth_rank(a, b, k) == game
        existential = solve(a, b, GameVariant.EXISTENTIAL_HYBRID, k).winner
        morphism = find_cokleisli_morphism(a, b, ComonadKind.HYBRID, k)
        assert (existential == DUPLICATOR) == (morphism is not None)


class TestEFTypes:
    # rank-k EF types computed in each structure against the EF game, on
    # pairs with one or two basepoints
    @settings(max_examples=200, deadline=None)
    @given(structure_pairs(), st.integers(0, 2))
    def test_types_agree_with_the_game(self, pair, k):
        a, b = pair
        game = solve(a, b, GameVariant.EF, k).winner == DUPLICATOR
        assert ef_types_agree(a, b, k) == game

    def test_fixture_pairs_reach_both_winners(self):
        winners = set()
        for fixtures in (FIXTURES30[:8], BOUNDED_FIXTURES[:6]):
            for a, b in pairs(fixtures):
                for k in (0, 1, 2):
                    game = solve(a, b, GameVariant.EF, k).winner == DUPLICATOR
                    assert ef_types_agree(a, b, k) == game, (a, b, k)
                    winners.add(game)
        assert winners == {True, False}


class TestPartialIsomorphismAgainstOracle:
    # pair sets over both universes and an unknown element, so that some
    # are not functions, some not injective and some leave the universe
    @settings(max_examples=150, deadline=None)
    @given(structure_pairs(), st.data())
    def test_matches_the_oracle(self, pair, data):
        a, b = pair
        left = st.sampled_from(a.universe + ("zz",))
        right = st.sampled_from(b.universe + ("zz",))
        pair_set = data.draw(st.lists(st.tuples(left, right), max_size=5))
        expected = oracles.is_partial_isomorphism(pair_set, a, b)
        assert is_partial_isomorphism(pair_set, a, b) == expected

    def test_identity_pairs_of_fixtures(self):
        for s in FIXTURES30[:10] + BOUNDED_FIXTURES[:5]:
            for size in (1, 2, 3):
                for chosen in permutations(s.universe, size):
                    same = [(e, e) for e in chosen]
                    assert is_partial_isomorphism(same, s, s)
                    shifted = list(zip(chosen, chosen[1:] + chosen[:1]))
                    assert is_partial_isomorphism(
                        shifted, s, s
                    ) == oracles.is_partial_isomorphism(shifted, s, s)


def _oracle_fits(arena, pos, side, x, among):
    return [y for y in among if oracles.extends(arena, pos, side, x, y)]


def _game_pair(data, variant):
    """A pair as ``structure_pairs`` draws it, or half the time a structure
    and a copy with one more ternary tuple over three distinct elements,
    which no atom code sees, in either order."""
    unimodal = variant in games._UNIMODAL
    shapes = {"unimodal": GAME_SHAPES["unimodal"]} if unimodal else GAME_SHAPES
    a, b = data.draw(structure_pairs(shapes))
    triples = list(permutations(a.universe, 3))
    if triples and data.draw(st.booleans()):
        rels = {name: list(tuples) for name, tuples in a.relations.items()}
        rels["R"].append(data.draw(st.sampled_from(triples)))
        b = Structure(a.signature, a.universe, rels, a.basepoints)
        if data.draw(st.booleans()):
            a, b = b, a
    return a, b


class TestReplyFilter:
    """``fits`` returns exactly the replies the per-reply check accepts, in
    order, at every position of a random play."""

    @pytest.mark.parametrize(
        "variant",
        [v for v in GameVariant if v is not GameVariant.BIJECTION],
        ids=lambda v: v.value,
    )
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fits_matches_the_oracle(self, variant, data):
        a, b = _game_pair(data, variant)
        top = 2 if variant is GameVariant.COMONADIC_GK else 3
        arena = games._arena(a, b, variant, data.draw(st.integers(1, top)))
        pos = arena.start
        while arena.holds(pos):
            steps = []
            for side, x in arena.options(pos):
                fitting = list(arena.fits(pos, side, x))
                replies = arena.replies(pos, side)
                assert fitting == _oracle_fits(arena, pos, side, x, replies)
                steps += [(side, x, y) for y in fitting]
            if not steps:
                break
            pos = arena.step(pos, *data.draw(st.sampled_from(steps)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bijection_good_pairs_match_the_oracle(self, data):
        a, b = _game_pair(data, GameVariant.BIJECTION)
        arena = games._arena(a, b, GameVariant.BIJECTION, data.draw(st.integers(1, 3)))
        pos = arena.start
        while arena.holds(pos) and not isinstance(state := arena.round(pos), str):
            acc_a, acc_b = state
            oracle = set()
            for x in acc_a:
                fitting = _oracle_fits(arena, pos, "A", x, acc_b)
                assert list(arena.fits(pos, "A", x, acc_b)) == fitting
                oracle |= {
                    (x, y)
                    for y in fitting
                    if arena.win(arena.step(pos, "A", x, y)) == DUPLICATOR
                }
            good = arena.good(pos, acc_a, acc_b)
            assert good == oracle
            if not good:
                break
            pos = arena.step(pos, "A", *data.draw(st.sampled_from(sorted(good))))


def _solver_outputs(structure_pairs):
    """One line per game: its winner and its strategy expanded to one entry
    per move sequence, in order; in the bijection game, Duplicator's
    matchings and the replay verdict."""
    for a, b in structure_pairs:
        for variant in GameVariant:
            for k in (0, 1, 2, 3):
                try:
                    result = solve(a, b, variant, k)
                except (ValueError, ResourceLimitError) as exc:
                    yield f"{variant.value} {k} {type(exc).__name__}"
                    continue
                arena = games._arena(a, b, variant, k)
                if variant is GameVariant.BIJECTION:
                    matchings = []
                    if result.winner == DUPLICATOR:
                        expanded = oracles.expand_certificate(arena, result.strategy, DUPLICATOR)
                        matchings = list(expanded.items())
                    verdict = verify_strategy(result, a, b, variant, k)
                    yield f"{variant.value} {k} {result.winner} {matchings} {verdict}"
                    continue
                expanded = oracles.expand_certificate(arena, result.strategy, result.winner)
                yield f"{variant.value} {k} {result.winner} {list(expanded.items())}"


class TestPinnedSolverOutputs:
    def test_winners_and_strategies_are_unchanged(self):
        # computed before the reply filter read the atom codes; the bijection
        # lines were re-pinned when Spoiler's picks per matching gave way to
        # Hall pairs
        digest = hashlib.sha256()
        for line in _solver_outputs(
            list(pairs(FIXTURES30[:8])) + list(pairs(BOUNDED_FIXTURES))
        ):
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == (
            "374bbc534b330186b3b28aa5244b3db3b7905557af71d0001bfe24b0bebfe302"
        )


def _bijection_pair(data):
    """A pair as ``_game_pair`` draws it, or half the time a structure and a
    copy with the ``P`` mark of one element flipped, in either order:
    accessible sets of one size whose good pairs often lack a perfect
    matching."""
    a, b = _game_pair(data, GameVariant.BIJECTION)
    if data.draw(st.booleans()):
        flip = {(data.draw(st.sampled_from(a.universe)),)}
        rels = {name: list(tuples) for name, tuples in a.relations.items()}
        rels["P"] = sorted(set(rels["P"]) ^ flip)
        b = Structure(a.signature, a.universe, rels, a.basepoints)
        if data.draw(st.booleans()):
            a, b = b, a
    return a, b


class TestCertificatesAgainstOracle:
    """Strategies keyed on the memo key against the sequence-keyed
    extraction and replay they replaced, and Hall pairs against Spoiler
    picking once per matching."""

    @pytest.mark.parametrize(
        "variant",
        [v for v in GameVariant if v is not GameVariant.BIJECTION],
        ids=lambda v: v.value,
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_expanded_certificate_is_the_oracle_strategy(self, variant, data):
        a, b = _game_pair(data, variant)
        top = 2 if variant is GameVariant.COMONADIC_GK else 3
        k = data.draw(st.integers(1, top))
        result = solve(a, b, variant, k)
        arena = games._arena(a, b, variant, k)
        expected = oracles.sequence_extract(games._arena(a, b, variant, k), result.winner)
        expanded = oracles.expand_certificate(arena, result.strategy, result.winner)
        assert list(expanded.items()) == list(expected.items())
        # keyed in the order the oracle first reaches each key
        first = oracles.first_per_key(arena, expected, result.winner)
        assert list(result.strategy.items()) == list(first.items())
        verdict = oracles.sequence_replay(arena, expected, result.winner)
        assert verify_strategy(result, a, b, variant, k) == verdict

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_hall_certificates_pass_the_permutation_replay(self, data):
        a, b = _bijection_pair(data)
        _bijection_agrees_with_oracles(a, b, data.draw(st.integers(0, 3)))

    @pytest.mark.parametrize("leaves", range(1, 7))
    def test_marked_stars(self, leaves):
        # one more marked leaf on the right: S is every unmarked leaf of the
        # left, and N the right's fewer unmarked leaves; the oracles try
        # every matching, so a second round is played on the smaller stars
        widest = 0
        for marked in range(leaves):
            a = star(leaves, pos=[f"b{i}" for i in range(1, marked + 1)])
            b = star(leaves, pos=[f"b{i}" for i in range(1, marked + 2)])
            for k in (1, 2) if leaves <= 4 else (1,):
                result = _bijection_agrees_with_oracles(a, b, k)
                assert result.winner == games.SPOILER
                widest = max(widest, *(len(s) for s, _ in result.strategy.values()))
        assert widest == leaves


def _bijection_agrees_with_oracles(a, b, k):
    """The bijection game's winner against the permutation oracle; its Hall
    certificate, expanded to one pick per matching, passes the permutation
    replay, and Duplicator's matchings are the oracle extraction's."""
    variant = GameVariant.BIJECTION
    result = solve(a, b, variant, k)
    arena = games._arena(a, b, variant, k)
    assert result.winner == oracles.bijection_winner(arena)
    expanded = oracles.expand_certificate(arena, result.strategy, result.winner)
    assert oracles.bijection_replay(arena, expanded, result.winner)
    assert verify_strategy(result, a, b, variant, k)
    oracle = oracles.bijection_extract(arena, result.winner)
    if result.winner == DUPLICATOR:
        assert list(expanded.items()) == list(oracle.items())
    assert oracles.bijection_replay(arena, oracle, result.winner)
    return result


# -- formulas --------------------------------------------------------------------------

#: two transitions, a non-transition binary relation and a ternary one
EVAL_RELATIONS = {"P": 1, "E": 2, "F": 2, "N": 2, "R": 3}


@st.composite
def eval_structures(draw) -> Structure:
    """Up to 6 elements over ``EVAL_RELATIONS`` with 1 or 2 basepoints, where
    about one element in three carries an ``E`` loop."""
    m = draw(st.integers(1, 2))
    size = draw(st.integers(1, 6))
    universe = [f"v{i}" for i in range(size)]
    element = st.sampled_from(universe)
    rels = {}
    for name, arity in sorted(EVAL_RELATIONS.items()):
        # one draw per tuple: its number in base ``size``
        codes = draw(st.lists(st.integers(0, size**arity - 1), max_size=2 * size))
        rels[name] = [
            tuple(universe[code // size**i % size] for i in range(arity)) for code in codes
        ]
    rels["E"] += [(e, e) for e in draw(st.lists(element, max_size=size // 3 + 1))]
    basepoints = draw(st.lists(element, min_size=m, max_size=m))
    signature = Signature(EVAL_RELATIONS, ["E", "F"], m)
    return Structure(signature, universe, rels, basepoints)


@st.composite
def eval_formulas(draw, scope: tuple[str, ...] = ("x",), depth: int = 3, top: bool = False):
    """A first-order formula over ``EVAL_RELATIONS`` whose terms are mostly
    the variables in ``scope`` and the constants c1, c2, now and then an
    unbound variable, the constant c3 or the unknown relation ``Z``; with
    ``top``, a quantified one."""
    names = list(scope) * 12 + ["w"]
    term = st.sampled_from(
        [sx.Var(v) for v in names] + [sx.Const(1)] * 8 + [sx.Const(2)] * 3 + [sx.Const(3)]
    )
    kinds = ["rel", "rel", "eq", "acc", "truth", "not", "and", "or"]
    if depth:
        kinds = ([] if top else kinds) + ["quantifier"] * 8
    kind = draw(st.sampled_from(kinds))
    if kind == "rel":
        name = draw(st.sampled_from(sorted(EVAL_RELATIONS) * 3 + ["Z"]))
        arity = EVAL_RELATIONS.get(name, 2)
        return sx.Rel(name, tuple(draw(term) for _ in range(arity)))
    if kind == "eq":
        return sx.Eq(draw(term), draw(term))
    if kind == "acc":
        sources = tuple(draw(st.lists(term, min_size=1, max_size=2)))
        return sx.Acc(sources, draw(st.sampled_from(names)))
    if kind == "truth":
        return draw(st.sampled_from([sx.TRUE, sx.FALSE]))
    if kind == "not":
        return sx.Not(draw(eval_formulas(scope, depth)))
    if kind in ("and", "or"):
        join = sx.conj_all if kind == "and" else sx.disj_all
        return join(draw(st.lists(eval_formulas(scope, depth), min_size=2, max_size=3)))
    var = draw(st.sampled_from(["y", "z"]))
    inner = tuple(dict.fromkeys(scope + (var,)))
    body = draw(eval_formulas(inner, depth - 1))
    quantifier = draw(
        st.sampled_from(["forall", "exists"] + ["bforall", "bexists", "count"] * 2)
    )
    if quantifier == "forall":
        return sx.Forall(var, body)
    if quantifier == "exists":
        return sx.Exists(var, body)
    guard = draw(guards(var, term))
    if quantifier == "bforall":
        return sx.BoundedForall(var, guard, body)
    if quantifier == "bexists":
        return sx.BoundedExists(var, guard, body)
    return sx.CountExists(draw(st.integers(1, 3)), var, guard, body)


@st.composite
def guards(draw, var: str, term):
    """A forward or backward atom over a transition, ``N``, the unary ``P``
    or the unknown ``Z``; a self-guard; an ``Acc``; or any atom."""
    y = sx.Var(var)
    shape = draw(st.sampled_from(["forward"] * 3 + ["backward"] * 2 + ["self", "acc", "other"]))
    name = draw(st.sampled_from(["E"] * 4 + ["F"] * 2 + ["N", "P", "Z"]))
    if shape == "forward":
        return sx.Rel(name, (draw(term), y))
    if shape == "backward":
        return sx.Rel(name, (y, draw(term)))
    if shape == "self":
        return sx.Rel(name, (y, y))
    if shape == "acc":
        return sx.Acc(tuple(draw(st.lists(term, min_size=1, max_size=2))), var)
    return draw(eval_formulas((var,), 0))


def _outcome(fn, *args):
    """The value of ``fn``, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ScopeError, ParseError) as exc:
        return type(exc), str(exc)


@contextlib.contextmanager
def _interrupted_after(seconds: float):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed,
    where the platform has interval timers."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestEvaluatorAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(eval_structures(), eval_formulas(top=True), st.data())
    def test_values_and_errors_match(self, s, f, data):
        bound = data.draw(st.sampled_from([True] * 5 + [False]))
        env = {"x": data.draw(st.sampled_from(s.universe))} if bound else {}
        assert _outcome(eval_fo, f, s, env) == _outcome(oracles.eval_fo, f, s, env)

    def test_empty_universe_raises_no_guard_error(self):
        empty = Structure(Signature({"E": 2}, ["E"], 0), [], {})
        y = sx.Var("y")
        for guard in (sx.Rel("Z", (sx.Var("w"), y)), sx.Rel("E", (sx.Const(4), y))):
            f = sx.CountExists(1, "y", guard, sx.TRUE)
            assert not eval_fo(f, empty)
            assert eval_fo(sx.BoundedForall("y", guard, sx.FALSE), empty)
            one = Structure(Signature({"E": 2}, ["E"], 0), ["a"], {})
            assert _outcome(eval_fo, f, one) == _outcome(oracles.eval_fo, f, one)
            assert isinstance(_outcome(eval_fo, f, one), tuple)

    @pytest.mark.parametrize("ctor, base", [(sx.And, True), (sx.Or, False)])
    def test_shared_operands_stay_polynomial(self, ctor, base):
        # f_{i+1} = ctor(f_i, f_i) is 40 nodes but 2^40 tree leaves; both
        # operands are evaluated at every level on a loop
        loop = Structure(Signature({"E": 2}, ["E"], 1), ["a"], {"E": [("a", "a")]}, ["a"])
        y = sx.Var("y")
        f = sx.Rel("E", (y, y)) if base else sx.Not(sx.Rel("E", (y, y)))
        for _ in range(40):
            f = ctor(f, f)
        sentence = sx.BoundedExists("y", sx.Rel("E", (sx.Const(1), y)), f)
        start = time.perf_counter()
        with _interrupted_after(5):  # an exponential walk would never end
            assert eval_fo(sentence, loop) == base
        assert time.perf_counter() - start < 1


VOCABULARY = [
    "(", ")", ",", ";", ".", "=", "&", "|", "!", "@", "->", ">=",
    "exists", "forall", "true", "false", "acc", "box", "dia", "down",
    "E", "P", "x", "y", "c1", "c0", "p", "2", "0", "$", "-", ">",
]


@st.composite
def mutated(draw, text: str) -> str:
    """``text``, or it with one token dropped, inserted or replaced."""
    spans = [(start, start + len(tok)) for _, tok, start in oracles.tokenize(text)[:-1]]
    how = draw(st.sampled_from(["same", "drop", "insert", "replace"]))
    if how == "same":
        return text
    if how == "insert" or not spans:
        at = draw(st.sampled_from([start for start, _ in spans] + [len(text)]))
        return f"{text[:at]}{draw(st.sampled_from(VOCABULARY))} {text[at:]}"
    start, end = draw(st.sampled_from(spans))
    new = "" if how == "drop" else draw(st.sampled_from(VOCABULARY))
    return text[:start] + new + text[end:]


class TestParsersAgainstOracle:
    @staticmethod
    def check(text: str) -> None:
        assert _outcome(parse_fo, text) == _outcome(oracles.parse_fo, text)
        assert _outcome(parse_hybrid, text, False) == _outcome(oracles.parse_hybrid, text)

    @settings(max_examples=150, deadline=None)
    @given(eval_formulas(depth=2), st.data())
    def test_printed_first_order_formulas(self, f, data):
        self.check(data.draw(mutated(print_fo(f))))

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_printed_hybrid_formulas(self, rng, data):
        from randgen import random_hybrid_formula

        self.check(data.draw(mutated(print_hybrid(random_hybrid_formula(rng, depth=3)))))


def _formula_outputs(structure_pairs):
    """The printed characteristic formulas and Scott sentence of each left
    structure, and on each pair the values of those, the temporal
    characteristic formula and the counting normal form."""
    built = {}
    for a, b in structure_pairs:
        for k in (1, 2):
            if (a, k) not in built:
                chi = scott.characteristic_formula(a, k)
                chi_t = scott.characteristic_formula(a, k, temporal=True)
                sentence = scott.scott_formula(a, k)
                normal = scott.normalize_counting(sentence, a.signature)
                built[a, k] = (chi, chi_t, sentence, normal)
                yield f"chi {k} {print_fo(chi)}"
                yield f"chi-t {k} {print_fo(chi_t)}"
                yield f"scott {k} {print_fo(sentence)}"
            values = " ".join(f"{eval_fo(f, b):d}" for f in built[a, k])
            yield f"eval {k} {values}"


class TestPinnedFormulaOutputs:
    def test_formulas_and_values_are_unchanged(self):
        # computed before guarded quantifiers walked the partner index
        digest = hashlib.sha256()
        for line in _formula_outputs(pairs(FIXTURES30[:8])):
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == (
            "3500eee4f9593c3a0ff8e3117c53a85c4685d738aaecd21b6b64426a2d4272bf"
        )

"""The incremental checks against their from-scratch references.

``scott_type``, ``find_cokleisli_morphism`` and ``back_and_forth_rank``
build atomic information incrementally along each extension tuple or play,
and the game arena filters Duplicator's replies through per-structure atom
codes; ``oracles`` keeps the from-scratch forms they replaced.  Random
structures of up to 6 elements come in four shapes: unimodal, bimodal with
two basepoints, with a ternary relation, and with a repeated basepoint; the
games draw theirs with a ternary relation in every shape.
"""
import hashlib
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from hybridkit import games
from hybridkit.comonads import ComonadKind, find_cokleisli_morphism
from hybridkit.errors import ResourceLimitError
from hybridkit.games import DUPLICATOR, GameVariant, back_and_forth_rank, solve
from hybridkit import scott
from hybridkit.scott import scott_type
from hybridkit.structures import Signature, Structure

import oracles
from fixtures import BOUNDED_FIXTURES, FIXTURES30, pairs

UNIMODAL_KINDS = (ComonadKind.MODAL, ComonadKind.HYBRID, ComonadKind.HYBRID_TEMPORAL)

BIMODAL = Signature({"P": 1, "E": 2, "F": 2}, ["E", "F"], 2)
SHAPES = {
    "unimodal": (Signature({"P": 1, "Q": 1, "E": 2}, ["E"], 1), False),
    "bimodal": (BIMODAL, False),
    "ternary": (Signature({"P": 1, "E": 2, "R": 3}, ["E"], 1), False),
    "repeated": (BIMODAL, True),
}


def fitting_kinds(s: Structure):
    """The comonad kinds whose carrier exists over the structure's signature."""
    unimodal = s.signature.is_unimodal()
    return [kind for kind in ComonadKind if unimodal or kind not in UNIMODAL_KINDS]


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
        image = a.relabel(mapping)
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


def _outputs(structure_pairs):
    for a, b in structure_pairs:
        for k in (0, 1, 2):
            yield f"scott {k} {scott_type(a, k) == scott_type(b, k)}"
            yield f"rank {k} {back_and_forth_rank(a, b, k)}"
        for k in (1, 2):
            for kind in fitting_kinds(a):
                morphism = find_cokleisli_morphism(a, b, kind, k)
                yield f"cokleisli {kind.value} {k} {_listed(morphism)}"


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
    for a, b in structure_pairs:
        for variant in GameVariant:
            for k in (0, 1, 2, 3):
                try:
                    result = solve(a, b, variant, k)
                except (ValueError, ResourceLimitError) as exc:
                    yield f"{variant.value} {k} {type(exc).__name__}"
                    continue
                strategy = list(result.strategy.items())
                yield f"{variant.value} {k} {result.winner} {strategy}"


class TestPinnedSolverOutputs:
    def test_winners_and_strategies_are_unchanged(self):
        # computed before the reply filter read the atom codes
        digest = hashlib.sha256()
        for line in _solver_outputs(
            list(pairs(FIXTURES30[:8])) + list(pairs(BOUNDED_FIXTURES))
        ):
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == (
            "36936de618d6f13afa806eb1f8b4351a7ed3ae5c7828a0d0043ba41b9beab0cb"
        )

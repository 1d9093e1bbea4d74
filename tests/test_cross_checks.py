"""The independent checks against their from-scratch references.

``scott_type``, ``find_cokleisli_morphism`` and ``back_and_forth_rank``
build atomic information incrementally along each extension tuple or play;
``oracles`` keeps the from-scratch forms they replaced.  Random structures
of up to 6 elements come in four shapes: unimodal, bimodal with two
basepoints, with a ternary relation, and with a repeated basepoint.
"""
import hashlib

from hypothesis import given, settings, strategies as st

from hybridkit.comonads import ComonadKind, find_cokleisli_morphism
from hybridkit.games import back_and_forth_rank
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


@st.composite
def structure_pairs(draw):
    """A structure and a partner: independent, a relabelled copy in another
    universe order, or the structure with one tuple added."""
    signature, repeated = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
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

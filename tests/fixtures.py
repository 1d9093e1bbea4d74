"""Shared fixtures: classic small structures plus a deterministic 30-structure
set (sizes 1..4) used by the exhaustive sweeps."""
from __future__ import annotations

import random

from hybridkit.comonads import ComonadKind
from hybridkit.structures import Signature, Structure
from randgen import random_structure

UNIMODAL = Signature({"P": 1, "Q": 1, "E": 2}, ["E"], 1)
BARE = Signature({"E": 2, "P": 1}, ["E"], 1)
BOUNDED2 = Signature({"P": 1, "E": 2, "F": 2}, ["E", "F"], 2)


def unimodal(universe, edges, basepoint="a", pos=(), qos=()):
    return Structure(
        UNIMODAL,
        universe,
        {"E": edges, "P": [(e,) for e in pos], "Q": [(e,) for e in qos]},
        [basepoint],
    )


def star(leaves: int, pos=()):
    """A basepoint ``a`` with successors ``b1`` to ``b<leaves>``, those in
    ``pos`` marked ``P``."""
    names = [f"b{i}" for i in range(1, leaves + 1)]
    return unimodal(["a"] + names, [("a", b) for b in names], pos=pos)


LOOP = unimodal(["a"], [("a", "a")])
SINGLE = unimodal(["a"], [])
PATH2 = unimodal(["a", "b"], [("a", "b")])
PATH3 = unimodal(["a", "b", "c"], [("a", "b"), ("b", "c")])
PATH4 = unimodal(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
C2 = unimodal(["b0", "b1"], [("b0", "b1"), ("b1", "b0")], basepoint="b0")
C3 = unimodal(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
STAR2 = unimodal(["a", "b1", "b2"], [("a", "b1"), ("a", "b2")])
STAR3 = unimodal(["a", "b1", "b2", "b3"], [("a", "b1"), ("a", "b2"), ("a", "b3")])
BACK_EDGE = unimodal(["a", "b"], [("b", "a")])
DIAMOND = unimodal(
    ["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
)
LOOP_P = unimodal(["a"], [("a", "a")], pos=["a"])
PATH2_P = unimodal(["a", "b"], [("a", "b")], pos=["b"])
ISOLATED_P = unimodal(["a", "z"], [], pos=["z"])

PATH6 = unimodal(
    ["a", "x1", "x2", "x3", "x4", "x5"],
    [("a", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")],
)

_HANDMADE = [
    LOOP,
    SINGLE,
    PATH2,
    PATH3,
    PATH4,
    C2,
    C3,
    STAR2,
    STAR3,
    BACK_EDGE,
    DIAMOND,
    LOOP_P,
    PATH2_P,
    ISOLATED_P,
]


def _random_fill(count: int, seed: int, signature: Signature, max_size: int = 4):
    rng = random.Random(seed)
    return [random_structure(rng, max_size=max_size, signature=signature) for _ in range(count)]


#: The 30-structure unimodal fixture set for exhaustive pair sweeps.
FIXTURES30 = _HANDMADE + _random_fill(30 - len(_HANDMADE), seed=2024, signature=UNIMODAL)

#: m=2 bounded fixtures with two transition relations.
BOUNDED_FIXTURES = _random_fill(10, seed=77, signature=BOUNDED2)


def fitting_kinds(s: Structure) -> list[ComonadKind]:
    """The comonad kinds whose carrier exists over the structure's signature."""
    unimodal_kinds = (ComonadKind.MODAL, ComonadKind.HYBRID, ComonadKind.HYBRID_TEMPORAL)
    unimodal = s.signature.is_unimodal()
    return [kind for kind in ComonadKind if unimodal or kind not in unimodal_kinds]


def pairs(fixtures):
    """All ordered pairs, including the diagonal."""
    for a in fixtures:
        for b in fixtures:
            yield a, b

"""Small test-only helpers over package objects."""
from __future__ import annotations

from typing import Mapping

from hybridkit import syntax as sx
from hybridkit.coalgebras import TreeCover
from hybridkit.comonads import ComonadStructure, play_join, play_parts
from hybridkit.structures import Structure, is_homomorphism, with_identity_I


def relabel(s: Structure, mapping: Mapping[str, str]) -> Structure:
    """Rename elements injectively; universe order follows the old order."""
    images = [mapping[e] for e in s.universe]
    if len(set(images)) != len(images):
        raise ValueError("relabeling must be injective")
    rels = {
        name: [tuple(mapping[e] for e in t) for t in tuples]
        for name, tuples in s.relations.items()
    }
    bps = tuple(mapping[e] for e in s.basepoints)
    return Structure(s.signature, images, rels, bps)


def is_cokleisli_homomorphism(
    h: Mapping[str, str], c_a: ComonadStructure, b: Structure
) -> bool:
    """Whether h is a homomorphism from the carrier over A to B, with the
    identity interpretation of I when the carrier tracks it."""
    target = with_identity_I(b) if c_a.with_I else b
    return is_homomorphism(h, c_a.carrier, target)


def lift_homomorphism(
    f: Mapping[str, str], c_a: ComonadStructure, c_b: ComonadStructure
) -> dict[str, str]:
    """Functorial lift of a base homomorphism: map plays elementwise."""
    return {
        play: play_join(f[e] for e in play_parts(play)) for play in c_a.plays
    }


def lands_in_carrier(h_star: Mapping[str, str], c: ComonadStructure) -> bool:
    """Whether every image of a coextension is a play of the given carrier."""
    plays = set(c.plays)
    return all(v in plays for v in h_star.values())


def carrier_tree_cover(c: ComonadStructure) -> TreeCover:
    """The prefix order on a carrier, as a cover of the carrier structure."""
    parent = {}
    for play in c.plays:
        parts = play_parts(play)
        if len(parts) > 1:
            parent[play] = play_join(parts[:-1])
    return TreeCover(c.carrier, parent)


def interned_count() -> int:
    """Number of live first-order nodes (terms and formulas)."""
    return len(sx._table)

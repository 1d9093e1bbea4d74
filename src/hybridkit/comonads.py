"""Explicit construction of the play comonads over pointed structures.

A carrier is an ordinary :class:`Structure` whose elements name plays
(nonempty sequences of base elements), so every structure operation and
morphism predicate applies to carriers unchanged.  One walk of the play
tree, ``_play_tree``, names each play from its parent's name and maps it to
its element tuple, whose last element is the counit ε, to its prefix plays,
which are the comultiplication δ, and to its children.  It serves the
carrier (:class:`ComonadStructure` keeps the maps next to it), the
coKleisli search and the game ``G_k`` alike, and refuses a tree of more
than ``MAX_PLAYS`` plays.  A structure keeps the last carrier built over
it, so repeated requests for one kind, k and ``with_I`` (every cover of a
structure, then the coalgebra search) share one play tree and one lift; the
coKleisli search and ``G_k`` walk a tree of their own and store nothing.
Other modules read these maps.  How a name encodes its play (the elements
joined with ``.``) is private to this module; ``play_parts`` and
``play_join`` state it for the tests, for coextension values that need not
be plays of any carrier, and for the image plays this module renders.

Plays start with the basepoint tuple and are capped at length k+m; each
comonad kind restricts how a play may grow:

* EF: no restriction (any element may be played);
* Modal: each element is seen by its immediate predecessor;
* Hybrid: each element is seen by some earlier element;
* HybridTemporal: seen forward or backward by some earlier element;
* Bounded: seen from some earlier element through any transition relation.

Relations are lifted along plays: a tuple of plays is related when the plays
are pairwise comparable in the prefix order and the base relation holds of
their last elements.  The Modal kind instead relates a play only to its
immediate extensions through the transition relation.  With ``with_I`` the
lift runs over the base extended by its identity relation ``I``
(``with_identity_I``), so ``I`` is lifted like any other relation: it relates
comparable plays with equal last elements.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Mapping

from .errors import InvalidStructureError, ResourceLimitError
from .structures import (
    RESERVED_IDENTITY,
    Structure,
    check_comparable,
    with_identity_I,
)

PLAY_SEP = "."

MAX_PLAYS = 200_000


def play_parts(play: str) -> tuple[str, ...]:
    return tuple(play.split(PLAY_SEP))


def play_join(parts) -> str:
    return PLAY_SEP.join(parts)


class ComonadKind(Enum):
    EF = "ef"
    MODAL = "modal"
    HYBRID = "hybrid"
    HYBRID_TEMPORAL = "hybrid-temporal"
    BOUNDED = "bounded"


_UNIMODAL_KINDS = (ComonadKind.MODAL, ComonadKind.HYBRID, ComonadKind.HYBRID_TEMPORAL)


@dataclass(frozen=True)
class ComonadStructure:
    """A carrier over its base structure, with the comonad's structure maps.

    ``parts`` gives each play's element sequence, whose last element is the
    counit ε; ``prefixes`` gives each play's prefix plays, shortest first,
    which is the comultiplication δ.  Both maps and the children behind
    ``children`` are built with the carrier and must not be changed."""

    kind: ComonadKind
    k: int
    base: Structure
    carrier: Structure
    with_I: bool
    parts: Mapping[str, tuple[str, ...]] = field(compare=False, repr=False)
    prefixes: Mapping[str, tuple[str, ...]] = field(compare=False, repr=False)
    _children: Mapping[str, tuple[str, ...]] = field(compare=False, repr=False)

    @property
    def plays(self) -> tuple[str, ...]:
        return self.carrier.universe

    def children(self, play: str) -> tuple[str, ...]:
        """Immediate extensions of a play inside the carrier."""
        return self._children[play]


def _play_tree(base: Structure, kind: ComonadKind, k: int) -> tuple[dict, dict, dict]:
    """The play tree of the carrier over a pointed structure, each play named
    once from its parent's name: ``(parts, prefixes, children)``, mapping each
    name to its element tuple, its prefix names (shortest first, itself last)
    and its children's names.  Plays start with the basepoint chain and are
    ordered by length, then lexicographically by base universe positions.
    Raises when the carrier cannot be built or would pass ``MAX_PLAYS``."""
    if k < 1:
        raise ValueError(f"comonad resource k must be at least 1, got {k}")
    sig = base.signature
    m = sig.num_basepoints
    if kind in _UNIMODAL_KINDS and not sig.is_unimodal():
        raise ValueError(
            f"{kind.value} comonads need a unimodal signature "
            "(one transition relation, one basepoint)"
        )
    if kind is ComonadKind.BOUNDED and m < 1:
        raise ValueError("bounded comonads need at least one basepoint")
    for e in base.universe:
        if PLAY_SEP in e:
            raise ValueError(
                f"element id {e!r} contains the play separator {PLAY_SEP!r}"
            )

    def extensions(played: tuple[str, ...]) -> tuple[str, ...]:
        """The elements that may extend a play, in universe order."""
        n = len(played)
        if n < m:
            return base.basepoints[n : n + 1]
        if n == k + m:
            return ()
        if not played or kind is ComonadKind.EF:
            return base.universe
        if kind is ComonadKind.MODAL:
            return base.accessible(played[-1:])
        if kind is ComonadKind.HYBRID_TEMPORAL:
            return base.accessible(played, backward=True)
        return base.accessible(played)

    parts: dict[str, tuple[str, ...]] = {}
    prefixes: dict[str, tuple[str, ...]] = {}
    children: dict[str, tuple[str, ...]] = {}
    frontier = [("", ())]  # the empty sequence, whose children go unrecorded
    while frontier:
        nxt: list[tuple[str, tuple[str, ...]]] = []
        for up, played in frontier:
            above = prefixes[up] if played else ()
            names = []
            for e in extensions(played):
                name = up + PLAY_SEP + e if played else e
                parts[name] = play = played + (e,)
                prefixes[name] = above + (name,)
                names.append(name)
                nxt.append((name, play))
            if played:
                children[up] = tuple(names)
        if len(parts) > MAX_PLAYS:
            raise ResourceLimitError(f"carrier would exceed {MAX_PLAYS} plays")
        frontier = nxt
    return parts, prefixes, children


def build_comonad(
    base: Structure, kind: ComonadKind, k: int, with_I: bool = False
) -> ComonadStructure:
    """Materialize the comonad carrier over a pointed structure.

    The carrier universe is ordered by play length, then lexicographically by
    base universe positions, which fixes deterministic iteration for morphism
    search and dump output.  Plays are named by ``_play_tree``.  Relations
    are lifted from each play's atoms through its last position
    (``Structure.atoms_at_last``): an atom at positions ``idx`` relates the
    prefix plays at those depths, so every tuple is found once, from its
    longest play.  With ``with_I`` the lift runs over ``with_identity_I(base)``,
    so ``I`` is lifted like any other relation: a play is related to itself
    and, both ways, to each prefix ending in the same element.  A base that
    already interprets ``I`` raises ``InvalidStructureError``.

    The base keeps the pieces of the last carrier built over it, so a second
    call with the same kind, k and ``with_I`` returns a new
    ``ComonadStructure`` around the same carrier and maps; ``MAX_PLAYS`` is
    checked again.  A call that raises stores nothing.
    """
    key = (kind, k, with_I)
    got = base._carrier
    if got is not None and got[0] == key:
        _, carrier, parts, prefixes, children = got
        if len(parts) > MAX_PLAYS:
            raise ResourceLimitError(f"carrier would exceed {MAX_PLAYS} plays")
        return ComonadStructure(kind, k, base, carrier, with_I, parts, prefixes, children)
    parts, prefixes, children = _play_tree(base, kind, k)
    lifted = with_identity_I(base) if with_I else base
    sig = lifted.signature
    plays = list(parts)
    rels: dict[str, list[tuple[str, ...]]] = {name: [] for name in sig.relations}
    modal_edge = next(iter(sig.transitions)) if kind is ComonadKind.MODAL else None
    for p in plays:
        chain, played = prefixes[p], parts[p]
        for name, idx in lifted.atoms_at_last(played)[0]:
            if name != modal_edge:
                rels[name].append(tuple(map(chain.__getitem__, idx)))
        if modal_edge is not None and base.has_tuple(modal_edge, played[-2:]):
            rels[modal_edge].append(chain[-2:])
    carrier = Structure(sig, plays, rels, plays[: sig.num_basepoints])
    base._carrier = key, carrier, parts, prefixes, children
    return ComonadStructure(kind, k, base, carrier, with_I, parts, prefixes, children)


def counit(c: ComonadStructure, play: str) -> str:
    """Last element of a play: the current focus."""
    parts = c.parts.get(play)
    if parts is None:
        raise ValueError(f"play {play!r} is not in the carrier")
    return parts[-1]


def cokleisli_extension(
    h: Mapping[str, str], c_a: ComonadStructure, c_b: ComonadStructure
) -> dict[str, str]:
    """The coextension of a map from plays over A to elements of B: apply the
    map to every prefix.  Total on the carrier of A; lands in the carrier of
    B whenever the input is a coKleisli homomorphism."""
    if c_a.kind is not c_b.kind or c_a.k != c_b.k:
        raise ValueError("coKleisli extension needs matching kind and resource")
    missing = next((play for play in c_a.plays if play not in h), None)
    if missing is not None:
        raise ValueError(f"map is not total: no image for play {missing!r}")
    return {
        play: play_join(h[prefix] for prefix in c_a.prefixes[play])
        for play in c_a.plays
    }


def comultiplication(c: ComonadStructure, play: str) -> tuple[str, ...]:
    """The play of plays listing all prefixes; this is the coextension of the
    identity map."""
    prefixes = c.prefixes.get(play)
    if prefixes is None:
        raise ValueError(f"play {play!r} is not in the carrier")
    return prefixes


@dataclass(frozen=True)
class ComonadLawReport:
    counit_law: bool  # counit after coextension recovers the map
    identity_law: bool  # coextension of the counit is the identity
    associativity_law: bool  # coextension distributes over coKleisli composition
    failures: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return self.counit_law and self.identity_law and self.associativity_law


def check_comonad_laws(
    c_a: ComonadStructure,
    c_b: ComonadStructure,
    c_c: ComonadStructure,
    h: Mapping[str, str],
    g: Mapping[str, str],
) -> ComonadLawReport:
    """Check the three Kleisli-form equations pointwise on every play.

    ``h`` maps plays over A to elements of B, ``g`` plays over B to elements
    of C.
    """
    failures: list[str] = []

    def first(fails) -> str | None:
        """The first play over A where ``fails`` holds, or None."""
        return next((play for play in c_a.plays if fails(play)), None)

    def law(name: str, fails) -> bool:
        bad = first(fails)
        if bad is not None:
            failures.append(f"{name} law fails at {bad!r}")
        return bad is None

    h_star = cokleisli_extension(h, c_a, c_b)
    g_star = cokleisli_extension(g, c_b, c_c)
    law1 = law("counit", lambda p: play_parts(h_star[p])[-1] != h[p])
    eps = {play: c_a.parts[play][-1] for play in c_a.plays}
    eps_star = cokleisli_extension(eps, c_a, c_a)
    law2 = law("identity", lambda p: eps_star[p] != p)
    escape = first(lambda p: h_star[p] not in g_star)
    if escape is not None:
        law3 = False
        failures.append(
            f"associativity law not checkable at {escape!r}: "
            f"{h_star[escape]!r} is outside the middle carrier"
        )
    else:
        gh_star = cokleisli_extension({p: g[h_star[p]] for p in c_a.plays}, c_a, c_c)
        law3 = law("associativity", lambda p: gh_star[p] != g_star[h_star[p]])
    return ComonadLawReport(law1, law2, law3, tuple(failures))


def find_cokleisli_morphism(
    a: Structure, b: Structure, kind: ComonadKind, k: int
) -> dict[str, str] | None:
    """Deterministic least coKleisli morphism from A to B, or None.

    The morphism is a homomorphism from the I-carrier over A to B with the
    identity I-relation, preserving basepoints.  Carrier relations only
    relate comparable plays, so the constraints on the image of a play come
    from A and the play's prefix alone, and no carrier is built: every tuple
    of A through the play's last element whose elements all occur in the
    prefix must map into B's relation at each choice of prefix depths that
    realizes it (``Structure.atoms_at_last``; for the Modal kind's
    transition relation, only the parent-to-child edge counts), and a play
    whose last element occurs at an earlier depth must repeat that depth's
    image (the I-relation).  Such a repeat takes no atom step: each of its
    atoms then maps onto a tuple already checked along its prefix.
    Subtree viability is memoized on (play, branch images), and witnesses
    are chosen least in universe order, keyed by play in carrier order.
    """
    check_comparable(a, b)
    parts, prefixes, children = _play_tree(a, kind, k)
    if RESERVED_IDENTITY in a.signature.relations:
        raise InvalidStructureError("structure already interprets 'I'")
    m = a.signature.num_basepoints
    modal_edge = (
        next(iter(a.signature.transitions)) if kind is ComonadKind.MODAL else None
    )

    @cache
    def constraints(play: str):
        """The earlier depth whose image the play's last depth must repeat
        (or None), and the (B relation, depths) pairs through that depth;
        a repeat has none but the Modal parent-to-child edge."""
        seq = parts[play]
        n = len(seq) - 1
        same = seq.index(seq[n])
        found = a.atoms_at_last(seq)[0] if same == n else ()
        tuples = [
            (b.tuple_set(name), depths) for name, depths in found if name != modal_edge
        ]
        if n and modal_edge is not None and a.has_tuple(modal_edge, seq[n - 1 :]):
            tuples.append((b.tuple_set(modal_edge), (n - 1, n)))
        return (same if same < n else None), tuples

    def choices(play: str, images: tuple[str, ...]):
        """The image tuples of the play that extend its parent's ``images``
        and meet the play's constraints, least last image first."""
        same, tuples = constraints(play)
        n = len(images)
        pool = b.universe if n >= m else (b.basepoints[n],)
        if same is not None:
            want = images[same]
            pool = (want,) if n >= m or pool[0] == want else ()
        for v in pool:
            full = images + (v,)
            if all(tuple(full[d] for d in ds) in target for target, ds in tuples):
                yield full

    @cache
    def viable(play: str, images: tuple[str, ...]) -> bool:
        return all(
            any(viable(child, full) for full in choices(child, images))
            for child in children[play]
        )

    chosen: dict[str, tuple[str, ...]] = {"": ()}  # the empty sequence
    witness: dict[str, str] = {}
    for play, chain in prefixes.items():
        parent = chain[-2] if len(chain) > 1 else ""
        images = next(
            (full for full in choices(play, chosen[parent]) if viable(play, full)),
            None,
        )
        if images is None:
            return None
        chosen[play] = images
        witness[play] = images[-1]
    return witness


def dump_carrier(c: ComonadStructure) -> str:
    """Diffable dump: one play per line, then one block per relation."""
    lines = [f"kind: {c.kind.value}", f"k: {c.k}", f"plays: {len(c.plays)}"]
    lines.extend(c.plays)
    for name in sorted(c.carrier.relations):
        lines.append(f"[{name}]")
        for tup in sorted(c.carrier.relations[name]):
            lines.append(" ".join(tup))
    return "\n".join(lines) + "\n"

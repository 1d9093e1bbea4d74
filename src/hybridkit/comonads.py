"""Explicit construction of the play comonads over pointed structures.

A carrier is an ordinary :class:`Structure` whose elements encode plays
(nonempty sequences of base elements joined with ``.``), so every structure
operation and morphism predicate applies to carriers unchanged.  Plays start
with the basepoint tuple and are capped at length k+m; each comonad kind
restricts how a play may grow:

* EF: no restriction (any element may be played);
* Modal: each element is seen by its immediate predecessor;
* Hybrid: each element is seen by some earlier element;
* HybridTemporal: seen forward or backward by some earlier element;
* Bounded: seen from some earlier element through any transition relation.

Relations are lifted along plays: a tuple of plays is related when the plays
are pairwise comparable in the prefix order and the base relation holds of
their last elements.  The Modal kind instead relates a play only to its
immediate extensions through the transition relation.  With ``with_I`` the
identity-tracking relation ``I`` is added: comparable plays with equal last
elements.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Mapping

from .errors import InvalidStructureError, ResourceLimitError
from .structures import (
    RESERVED_IDENTITY,
    Signature,
    Structure,
    is_homomorphism,
    with_identity_I,
)

PLAY_SEP = "."

DEFAULT_MAX_PLAYS = 200_000


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
    kind: ComonadKind
    k: int
    base: Structure
    carrier: Structure
    with_I: bool

    @property
    def plays(self) -> tuple[str, ...]:
        return self.carrier.universe

    def children(self, play: str) -> tuple[str, ...]:
        """Immediate extensions of a play inside the carrier."""
        return self._children_map()[play]

    def _children_map(self) -> dict[str, tuple[str, ...]]:
        cached = getattr(self, "_children_cache", None)
        if cached is None:
            out: dict[str, list[str]] = {p: [] for p in self.plays}
            for p in self.plays:
                parts = play_parts(p)
                if len(parts) > 1:
                    out[play_join(parts[:-1])].append(p)
            cached = {p: tuple(v) for p, v in out.items()}
            object.__setattr__(self, "_children_cache", cached)
        return cached


def _plays(
    base: Structure, kind: ComonadKind, k: int, max_plays: int
) -> list[tuple[str, ...]]:
    """The plays of the carrier over a pointed structure, as element tuples,
    ordered by length, then lexicographically by base universe positions.
    Raises when the carrier cannot be built or would pass ``max_plays``."""
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
        if not played or kind is ComonadKind.EF:
            return base.universe
        if kind is ComonadKind.MODAL:
            return base.accessible(played[-1:])
        if kind is ComonadKind.HYBRID_TEMPORAL:
            return base.accessible(played, backward=True)
        return base.accessible(played)

    plays: list[tuple[str, ...]] = []
    frontier: list[tuple[str, ...]] = []
    for i in range(1, m + 1):
        prefix = base.basepoints[:i]
        plays.append(prefix)
        frontier = [prefix]
    if m == 0:
        frontier = [()]
    while frontier:
        nxt: list[tuple[str, ...]] = []
        for played in frontier:
            if len(played) >= k + m:
                continue
            for candidate in extensions(played):
                nxt.append(played + (candidate,))
        plays.extend(nxt)
        if len(plays) > max_plays:
            raise ResourceLimitError(
                f"carrier would exceed {max_plays} plays; "
                "raise max_plays to build it anyway"
            )
        frontier = nxt
    return plays


def build_comonad(
    base: Structure,
    kind: ComonadKind,
    k: int,
    with_I: bool = False,
    max_plays: int = DEFAULT_MAX_PLAYS,
) -> ComonadStructure:
    """Materialize the comonad carrier over a pointed structure.

    The carrier universe is ordered by play length, then lexicographically by
    base universe positions, which fixes deterministic iteration for morphism
    search and dump output.
    """
    plays = _plays(base, kind, k, max_plays)
    sig = base.signature
    m = sig.num_basepoints
    encoded = [play_join(p) for p in plays]
    rels: dict[str, list[tuple[str, ...]]] = {name: [] for name in sig.relations}
    single_transition = next(iter(sig.transitions)) if sig.transitions else None
    by_parts = {p: play_parts(p) for p in encoded}
    prefix_sets = {
        p: [play_join(by_parts[p][:i]) for i in range(1, len(by_parts[p]) + 1)]
        for p in encoded
    }
    for name, arity in sig.relations.items():
        base_tuples = set(base.relations[name])
        out = rels[name]
        if kind is ComonadKind.MODAL and name == single_transition:
            for p in encoded:
                parts = by_parts[p]
                if len(parts) > 1 and (parts[-2], parts[-1]) in base_tuples:
                    out.append((play_join(parts[:-1]), p))
            continue
        if arity == 1:
            out.extend((p,) for p in encoded if (by_parts[p][-1],) in base_tuples)
            continue
        seen: set[tuple[str, ...]] = set()
        for p in encoded:
            chain = prefix_sets[p]
            for tup in _tuples_over_chain(chain, p, arity):
                if tup in seen:
                    continue
                seen.add(tup)
                lasts = tuple(by_parts[q][-1] for q in tup)
                if lasts in base_tuples:
                    out.append(tup)
    if with_I:
        identity: list[tuple[str, str]] = []
        seen_i: set[tuple[str, str]] = set()
        for p in encoded:
            chain = prefix_sets[p]
            last_p = by_parts[p][-1]
            for q in chain:
                for tup in ((p, q), (q, p)):
                    if tup not in seen_i:
                        seen_i.add(tup)
                        if by_parts[tup[0]][-1] == by_parts[tup[1]][-1]:
                            identity.append(tup)
        rels[RESERVED_IDENTITY] = identity
        carrier_rels = dict(sig.relations)
        carrier_rels[RESERVED_IDENTITY] = 2
        carrier_sig = Signature(
            carrier_rels, sig.transitions, m, _allow_reserved=True
        )
    else:
        carrier_sig = Signature(sig.relations, sig.transitions, m, _allow_reserved=True)
    carrier_bps = tuple(play_join(base.basepoints[: i + 1]) for i in range(m))
    carrier = Structure(carrier_sig, encoded, rels, carrier_bps)
    return ComonadStructure(kind, k, base, carrier, with_I)


def _tuples_over_chain(chain: list[str], top: str, arity: int):
    """All arity-tuples of plays from the chain that mention its top element.

    Comparable tuples lie on a single branch, so enumerating per branch with
    the longest play required avoids duplicates across branches.
    """
    if arity == 2:
        for q in chain:
            yield (top, q)
            if q != top:
                yield (q, top)
        return

    def rec(partial: tuple[str, ...]):
        if len(partial) == arity:
            if top in partial:
                yield partial
            return
        for q in chain:
            yield from rec(partial + (q,))

    yield from rec(())


def counit(c: ComonadStructure, play: str) -> str:
    """Last element of a play: the current focus."""
    if play not in c.carrier._pos:
        raise ValueError(f"play {play!r} is not in the carrier")
    return play_parts(play)[-1]


def cokleisli_extension(
    h: Mapping[str, str], c_a: ComonadStructure, c_b: ComonadStructure
) -> dict[str, str]:
    """The coextension of a map from plays over A to elements of B: apply the
    map to every prefix.  Total on the carrier of A; lands in the carrier of
    B whenever the input is a coKleisli homomorphism."""
    if c_a.kind is not c_b.kind or c_a.k != c_b.k:
        raise ValueError("coKleisli extension needs matching kind and resource")
    out: dict[str, str] = {}
    for play in c_a.plays:
        parts = play_parts(play)
        images = []
        for i in range(1, len(parts) + 1):
            prefix = play_join(parts[:i])
            if prefix not in h:
                raise ValueError(f"map is not total: no image for play {prefix!r}")
            images.append(h[prefix])
        out[play] = play_join(images)
    return out


def comultiplication(c: ComonadStructure, play: str) -> tuple[str, ...]:
    """The play of plays listing all prefixes; this is the coextension of the
    identity map."""
    if play not in c.carrier._pos:
        raise ValueError(f"play {play!r} is not in the carrier")
    parts = play_parts(play)
    return tuple(play_join(parts[:i]) for i in range(1, len(parts) + 1))


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
    h_star: Mapping[str, str] | None = None,
    g_star: Mapping[str, str] | None = None,
) -> ComonadLawReport:
    """Check the three Kleisli-form equations pointwise on every play.

    ``h`` maps plays over A to elements of B, ``g`` plays over B to elements
    of C.  Precomputed coextensions may be supplied (e.g. corrupted ones, as
    a negative control); by default they are computed here.
    """
    failures: list[str] = []
    if h_star is None:
        h_star = cokleisli_extension(h, c_a, c_b)
    if g_star is None:
        g_star = cokleisli_extension(g, c_b, c_c)

    law1 = True
    for play in c_a.plays:
        if play_parts(h_star[play])[-1] != h[play]:
            law1 = False
            failures.append(f"counit law fails at {play!r}")
            break

    eps = {play: play_parts(play)[-1] for play in c_a.plays}
    eps_star = cokleisli_extension(eps, c_a, c_a)
    law2 = True
    for play in c_a.plays:
        if eps_star[play] != play:
            law2 = False
            failures.append(f"identity law fails at {play!r}")
            break

    law3 = True
    escape = next((p for p in c_a.plays if h_star[p] not in g_star), None)
    if escape is not None:
        law3 = False
        failures.append(
            f"associativity law not checkable at {escape!r}: "
            f"{h_star[escape]!r} is outside the middle carrier"
        )
    else:
        gh = {p: g[h_star[p]] for p in c_a.plays}
        gh_star = cokleisli_extension(gh, c_a, c_c)
        for play in c_a.plays:
            if gh_star[play] != g_star[h_star[play]]:
                law3 = False
                failures.append(f"associativity law fails at {play!r}")
                break

    return ComonadLawReport(law1, law2, law3, tuple(failures))


def find_cokleisli_morphism(
    a: Structure,
    b: Structure,
    kind: ComonadKind,
    k: int,
    max_plays: int = DEFAULT_MAX_PLAYS,
) -> dict[str, str] | None:
    """Deterministic least coKleisli morphism from A to B, or None.

    The morphism is a homomorphism from the I-carrier over A to B with the
    identity I-relation, preserving basepoints.  Carrier relations only
    relate comparable plays, so the constraints on the image of a play come
    from A and the play's prefix alone, and no carrier is built: every tuple
    of A through the play's last element whose elements all occur in the
    prefix must map into B's relation at each choice of prefix depths that
    realizes it (for the Modal kind's transition relation, only the
    parent-to-child edge counts), and a play whose last element occurs at
    an earlier depth must repeat that depth's image (the I-relation).
    Subtree viability is memoized on (play, branch images), and witnesses
    are chosen least in universe order, keyed by play in carrier order.
    """
    if not a.signature.same_vocabulary(b.signature):
        raise ValueError("signature mismatch between the two structures")
    if a.signature.num_basepoints != b.signature.num_basepoints:
        raise ValueError("basepoint count mismatch between the two structures")
    plays = _plays(a, kind, k, max_plays)
    if RESERVED_IDENTITY in a.signature.relations:
        raise InvalidStructureError("structure already interprets 'I'")
    m = a.signature.num_basepoints
    targets = {name: frozenset(tuples) for name, tuples in b.relations.items()}
    modal_edge = (
        next(iter(a.signature.transitions)) if kind is ComonadKind.MODAL else None
    )

    children: dict[tuple[str, ...], list[tuple[str, ...]]] = {p: [] for p in plays}
    for play in plays:
        if len(play) > 1:
            children[play[:-1]].append(play)

    constraints: dict[tuple[str, ...], tuple] = {}

    def constraints_of(play: tuple[str, ...]):
        """The earlier depth whose image the play's last depth must repeat
        (or None), and the (B relation, depths) pairs through that depth."""
        n = len(play) - 1
        last = play[n]
        where: dict[str, list[int]] = {}
        for depth, e in enumerate(play):
            where.setdefault(e, []).append(depth)
        first = where[last][0]
        tuples = []
        for name, tup in a.tuples_at(last):
            if name == modal_edge:
                continue
            places = [where.get(e) for e in tup]
            if None in places:
                continue
            target = targets[name]
            tuples.extend(
                (target, depths) for depths in product(*places) if n in depths
            )
        if n and modal_edge is not None and a.has_tuple(modal_edge, play[n - 1 :]):
            tuples.append((targets[modal_edge], (n - 1, n)))
        return (first if first < n else None), tuples

    def choices(play: tuple[str, ...], images: tuple[str, ...]):
        """The image tuples of the play that extend its prefix's ``images``
        and meet the play's constraints, least last image first."""
        got = constraints.get(play)
        if got is None:
            got = constraints[play] = constraints_of(play)
        same, tuples = got
        n = len(images)
        pool = b.universe if n >= m else (b.basepoints[n],)
        if same is not None:
            want = images[same]
            pool = (want,) if n >= m or pool[0] == want else ()
        for v in pool:
            full = images + (v,)
            if all(tuple(full[d] for d in ds) in target for target, ds in tuples):
                yield full

    viable_memo: dict[tuple[tuple[str, ...], tuple[str, ...]], bool] = {}

    def viable(play: tuple[str, ...], images: tuple[str, ...]) -> bool:
        key = (play, images)
        got = viable_memo.get(key)
        if got is None:
            got = viable_memo[key] = all(
                any(viable(child, full) for full in choices(child, images))
                for child in children[play]
            )
        return got

    chosen: dict[tuple[str, ...], tuple[str, ...]] = {}
    witness: dict[str, str] = {}
    for play in plays:
        images = next(
            (
                full
                for full in choices(play, chosen.get(play[:-1], ()))
                if viable(play, full)
            ),
            None,
        )
        if images is None:
            return None
        chosen[play] = images
        witness[play_join(play)] = images[-1]
    return witness


def is_cokleisli_homomorphism(
    h: Mapping[str, str], c_a: ComonadStructure, b: Structure
) -> bool:
    """Whether h is a homomorphism from the carrier over A to B, with the
    identity interpretation of I when the carrier tracks it."""
    target = with_identity_I(b) if c_a.with_I else b
    return is_homomorphism(h, c_a.carrier, target)


def dump_carrier(c: ComonadStructure) -> str:
    """Diffable dump: one play per line, then one block per relation."""
    lines = [f"kind: {c.kind.value}", f"k: {c.k}", f"plays: {len(c.plays)}"]
    lines.extend(c.plays)
    for name in sorted(c.carrier.relations):
        lines.append(f"[{name}]")
        for tup in sorted(c.carrier.relations[name]):
            lines.append(" ".join(tup))
    return "\n".join(lines) + "\n"

"""Reference implementations the tests compare the production checks with.

Each one is the from-scratch form of something the package now computes
incrementally: the atomic type of a whole tuple, the coKleisli morphism
search over the materialized I-carrier, the back-and-forth relation that
compares every atom of every extension tuple, and the per-reply check of the
games' winning condition that the arena's atom-code filter replaced.
"""
from __future__ import annotations

from collections import Counter
from itertools import product

from hybridkit.comonads import (
    DEFAULT_MAX_PLAYS,
    ComonadKind,
    build_comonad,
    play_join,
    play_parts,
)
from hybridkit.structures import Structure, with_identity_I


def atomic_type_key(s: Structure, tup: tuple[str, ...]):
    """Canonical atomic type of a tuple: which relation atoms and equalities
    hold between its components."""
    atoms = []
    for name in sorted(s.signature.relations):
        arity = s.signature.relations[name]
        hits = frozenset(
            idx
            for idx in product(range(len(tup)), repeat=arity)
            if s.has_tuple(name, tuple(tup[i] for i in idx))
        )
        atoms.append((name, tuple(sorted(hits))))
    eqs = tuple(
        sorted(
            (i, j)
            for i in range(len(tup))
            for j in range(i + 1, len(tup))
            if tup[i] == tup[j]
        )
    )
    return (tuple(atoms), eqs)


def scott_type(s: Structure, k: int):
    """``scott.scott_type`` with every atomic type computed from scratch."""
    memo: dict[tuple[tuple[str, ...], int], object] = {}

    def ty(tup: tuple[str, ...], rank: int):
        key = (tup, rank)
        got = memo.get(key)
        if got is not None:
            return got
        if rank == 0:
            out = ("atomic", atomic_type_key(s, tup))
        else:
            acc = s.accessible(tup)
            if not acc:
                out = ("stuck", atomic_type_key(s, tup))
            else:
                counts = Counter(ty(tup + (b,), rank - 1) for b in acc)
                out = ("counts", tuple(sorted(counts.items())))
        memo[key] = out
        return out

    return ty(s.basepoints, k)


def carrier_cokleisli_morphism(
    a: Structure,
    b: Structure,
    kind: ComonadKind,
    k: int,
    max_plays: int = DEFAULT_MAX_PLAYS,
) -> dict[str, str] | None:
    """Deterministic least coKleisli morphism from A to B, or None, searched
    on the materialized carrier.

    The search looks for a homomorphism from the I-carrier over A to B with
    the identity I-relation, preserving basepoints.  Carrier relations only
    relate comparable plays, so the image of a play is constrained by its
    prefix branch alone; subtree viability is memoized on (play, branch
    images) and witnesses are chosen least in universe order.
    """
    if not a.signature.same_vocabulary(b.signature):
        raise ValueError("signature mismatch between the two structures")
    if a.signature.num_basepoints != b.signature.num_basepoints:
        raise ValueError("basepoint count mismatch between the two structures")
    c_a = build_comonad(a, kind, k, with_I=True, max_plays=max_plays)
    target = with_identity_I(b)
    carrier = c_a.carrier
    m = a.signature.num_basepoints

    by_parts = {p: play_parts(p) for p in carrier.universe}
    # Constraint tuples grouped under their longest component play.
    constraints: dict[str, list[tuple[set[tuple[str, ...]], tuple[int, ...]]]] = {
        p: [] for p in carrier.universe
    }
    for name, tuples in carrier.relations.items():
        target_set = set(target.relations[name])
        for tup in tuples:
            longest = max(tup, key=lambda q: len(by_parts[q]))
            depths = tuple(len(by_parts[q]) - 1 for q in tup)
            constraints[longest].append((target_set, depths))

    forced: dict[str, str] = {}
    for i in range(m):
        forced[play_join(a.basepoints[: i + 1])] = b.basepoints[i]

    def candidates(play: str) -> tuple[str, ...]:
        want = forced.get(play)
        if want is not None:
            return (want,)
        return b.universe

    def constraints_ok(play: str, images: tuple[str, ...]) -> bool:
        for target_set, depths in constraints[play]:
            mapped = tuple(images[d] for d in depths)
            if mapped not in target_set:
                return False
        return True

    viable_memo: dict[tuple[str, tuple[str, ...]], bool] = {}

    def viable(play: str, images: tuple[str, ...]) -> bool:
        key = (play, images)
        got = viable_memo.get(key)
        if got is not None:
            return got
        ok = True
        for child in c_a.children(play):
            if not any(
                constraints_ok(child, images + (v,)) and viable(child, images + (v,))
                for v in candidates(child)
            ):
                ok = False
                break
        viable_memo[key] = ok
        return ok

    witness: dict[str, str] = {}
    for play in carrier.universe:
        parts = by_parts[play]
        images = tuple(
            witness[play_join(parts[:i])] for i in range(1, len(parts))
        )
        chosen = None
        for v in candidates(play):
            if constraints_ok(play, images + (v,)) and viable(play, images + (v,)):
                chosen = v
                break
        if chosen is None:
            return None
        witness[play] = chosen
    return witness


def back_and_forth_rank(a: Structure, b: Structure, k: int) -> bool:
    """The inductively defined rank-k back-and-forth relation over extension
    tuples: atomic agreement at every level, and matching one-step transition
    extensions of every tuple component.  Independent of the game engine."""
    if not a.signature.same_vocabulary(b.signature):
        raise ValueError("signature mismatch between the two structures")
    if a.signature.num_basepoints != b.signature.num_basepoints:
        raise ValueError("basepoint count mismatch between the two structures")
    transitions = sorted(a.signature.transitions)
    a_edges = {n: set(a.relations[n]) for n in transitions}
    b_edges = {n: set(b.relations[n]) for n in transitions}
    memo: dict[tuple[tuple[str, ...], tuple[str, ...], int], bool] = {}

    rel_sets = {
        name: (set(a.relations[name]), set(b.relations[name]))
        for name in a.signature.relations
    }

    def atomic_agree(ta: tuple[str, ...], tb: tuple[str, ...]) -> bool:
        for i in range(len(ta)):
            for j in range(i + 1, len(ta)):
                if (ta[i] == ta[j]) != (tb[i] == tb[j]):
                    return False
        for name, arity in a.signature.relations.items():
            a_set, b_set = rel_sets[name]
            for idx in product(range(len(ta)), repeat=arity):
                in_a = tuple(ta[i] for i in idx) in a_set
                in_b = tuple(tb[i] for i in idx) in b_set
                if in_a != in_b:
                    return False
        return True

    def bf(ta: tuple[str, ...], tb: tuple[str, ...], rank: int) -> bool:
        key = (ta, tb, rank)
        got = memo.get(key)
        if got is not None:
            return got
        value = atomic_agree(ta, tb)
        if value and rank > 0:
            for name in transitions:
                ea, eb = a_edges[name], b_edges[name]
                for i in range(len(ta)):
                    forth = all(
                        any(
                            (tb[i], y) in eb and bf(ta + (x,), tb + (y,), rank - 1)
                            for y in b.universe
                        )
                        for x in a.universe
                        if (ta[i], x) in ea
                    )
                    back = forth and all(
                        any(
                            (ta[i], x) in ea and bf(ta + (x,), tb + (y,), rank - 1)
                            for x in a.universe
                        )
                        for y in b.universe
                        if (tb[i], y) in eb
                    )
                    if not (forth and back):
                        value = False
                        break
                if not value:
                    break
        memo[key] = value
        return value

    return bf(a.basepoints, b.basepoints, k)



def extends(arena, pos, side: str, x, y) -> bool:
    """Whether the arena's winning condition still holds after Spoiler's
    ``x`` on ``side`` is answered by ``y``, given that it holds at ``pos``:
    every tuple through the new pair is mapped through the pairs, one reply
    at a time."""
    x, y = arena.elements((x, y))
    if side == "B":
        x, y = y, x
    pairs = arena.pairs(pos)
    fwd = dict(pairs)
    if x in fwd:
        return fwd[x] == y
    fwd[x] = y
    if arena.existential:
        return _maps_into(arena.a.tuples_at(x), fwd, arena.b)
    bwd = {v: u for u, v in pairs}
    if y in bwd:
        return False
    bwd[y] = x
    return _maps_into(arena.a.tuples_at(x), fwd, arena.b) and _maps_into(
        arena.b.tuples_at(y), bwd, arena.a
    )


def _maps_into(tuples, h, target: Structure) -> bool:
    for name, tup in tuples:
        if all(e in h for e in tup) and not target.has_tuple(
            name, tuple(h[e] for e in tup)
        ):
            return False
    return True

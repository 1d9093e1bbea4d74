"""Reference implementations the tests compare the production checks with.

Each one is the from-scratch form of something the package now computes
incrementally or more cheaply: the atoms through a tuple's last position
tested at every tuple of positions, the atomic type of a whole tuple, the
relations of a carrier enumerated over every chain of prefixes, the
children of each carrier play found by splitting the play strings, the
coKleisli morphism search over the materialized I-carrier, the
back-and-forth relation that compares every atom of every extension tuple,
the per-reply check of the games' winning condition that the arena's
atom-code filter replaced, the partial-isomorphism test that checks a tuple
once per element of the domain it holds, the games' strategies keyed by
move sequence (the bijection game's Spoiler picking once per matching) with
their extraction and replay, the workspace replay that steps
through every move sequence and checks every state's invariants literally,
the first-order evaluator that tests every guard on every element and
memoizes every node, and the parsers over a tokenizer that matches one
token at a time.
"""
from __future__ import annotations

import re
from collections import Counter
from itertools import permutations, product
from typing import Mapping

from hybridkit.comonads import (
    ComonadKind,
    ComonadStructure,
    build_comonad,
    play_join,
    play_parts,
)
from hybridkit import syntax as sx
from hybridkit.characterization import REAL_TAG
from hybridkit.games import DUPLICATOR, SPOILER, _BijectionArena, _least_matching
from hybridkit.errors import ParseError, ScopeError
from hybridkit.structures import Structure, with_identity_I
from hybridkit.syntax import (
    Acc,
    And,
    Bottom,
    BoundedExists,
    BoundedForall,
    Const,
    CountExists,
    Eq,
    Exists,
    FOFormula,
    Forall,
    Not,
    Or,
    Rel,
    Term,
    Top,
    Var,
)


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


def atoms_at_last(s: Structure, tup: tuple[str, ...]):
    """``Structure.atoms_at_last`` with the atoms as a set: every relation
    tested at every tuple of positions that holds the last one."""
    n = len(tup) - 1
    return {
        (name, idx)
        for name, arity in s.signature.relations.items()
        for idx in product(range(n + 1), repeat=arity)
        if n in idx and s.has_tuple(name, tuple(tup[i] for i in idx))
    }


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


def carrier_children(c: ComonadStructure) -> dict[str, tuple[str, ...]]:
    """Each play's immediate extensions, in carrier order, found by
    splitting every play and re-joining all but its last element."""
    out: dict[str, list[str]] = {p: [] for p in c.plays}
    for p in c.plays:
        parts = play_parts(p)
        if len(parts) > 1:
            out[play_join(parts[:-1])].append(p)
    return {p: tuple(v) for p, v in out.items()}


def carrier_relations(c: ComonadStructure) -> dict[str, set[tuple[str, ...]]]:
    """The relations of a carrier from their definition, over each play's
    chain of prefixes: every tuple of plays on the chain that holds the
    play and whose last elements the base relation holds (for the Modal
    kind's transition, only the parent and the play), and with ``I`` every
    pair on the chain that holds the play and ends in equal elements."""
    sig = c.base.signature
    modal_edge = next(iter(sig.transitions)) if c.kind is ComonadKind.MODAL else None
    out = {name: set() for name in c.carrier.signature.relations}
    for top in c.plays:
        chain = c.prefixes[top]
        last = {q: c.parts[q][-1] for q in chain}
        if modal_edge is not None and c.base.has_tuple(modal_edge, c.parts[top][-2:]):
            out[modal_edge].add(chain[-2:])
        for name, arity in sig.relations.items():
            for tup in product(chain, repeat=arity):
                if name != modal_edge and top in tup and c.base.has_tuple(
                    name, tuple(last[q] for q in tup)
                ):
                    out[name].add(tup)
        if c.with_I:
            out["I"].update(
                (p, q) for p in chain for q in chain if top in (p, q) and last[p] == last[q]
            )
    return out


def carrier_cokleisli_morphism(
    a: Structure,
    b: Structure,
    kind: ComonadKind,
    k: int,
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
    c_a = build_comonad(a, kind, k, with_I=True)
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
    i = 0 if side == "A" else 1
    (x,), (y,) = arena.elements(i, (x,)), arena.elements(1 - i, (y,))
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


def is_partial_isomorphism(pairs, a: Structure, b: Structure) -> bool:
    """``structures.is_partial_isomorphism`` checking every relation tuple
    through each element of the domain (the range), once per element it
    holds, and looking each tuple set up per tuple."""
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    for x, y in pairs:
        if x not in a._pos or y not in b._pos:
            return False
        if fwd.get(x, y) != y or bwd.get(y, x) != x:
            return False
        fwd[x] = y
        bwd[y] = x
    for h, source, target in ((fwd, a, b), (bwd, b, a)):
        for x in h:
            for name, tup in source.tuples_at(x):
                if all(map(h.__contains__, tup)):
                    if not target.has_tuple(name, tuple(map(h.__getitem__, tup))):
                        return False
    return True


# -- strategies keyed by move sequence ------------------------------------------


def sequence_extract(arena, winner: str) -> dict:
    """The winner's strategy on every position reachable against it, keyed
    by the position itself: Duplicator's least winning reply keyed ``(pos,
    side, x)``, or Spoiler's first refuting move keyed ``pos``."""
    strategy: dict = {}

    def visit(pos):
        if winner == DUPLICATOR:
            for side, x in arena.options(pos):
                if (pos, side, x) in strategy:
                    continue
                y = arena.answer(arena.key(pos), pos, side, x)
                if y is not None:
                    strategy[pos, side, x] = y
                    visit(arena.step(pos, side, x, y))
        elif pos not in strategy:
            for side, x in arena.options(pos):
                if arena.answer(arena.key(pos), pos, side, x) is None:
                    strategy[pos] = (side, x)
                    for y in arena.fits(pos, side, x):
                        visit(arena.step(pos, side, x, y))
                    return

    if arena.holds(arena.start):
        visit(arena.start)
    return strategy


def sequence_replay(arena, strategy: dict, winner: str) -> bool:
    """Play a position-keyed strategy against every opponent move along
    every move sequence, checking the winning condition at each position."""

    def duplicator(pos) -> bool:
        if not arena.holds(pos):
            return False
        for side, x in arena.options(pos):
            if (pos, side, x) not in strategy:
                raise ValueError(f"strategy is not total: no response at {(pos, side, x)!r}")
            y = strategy[pos, side, x]
            if y not in arena.replies(pos, side) or not duplicator(
                arena.step(pos, side, x, y)
            ):
                return False
        return True

    def spoiler(pos) -> bool:
        if not arena.holds(pos):
            return True
        options = arena.options(pos)
        if not options:
            return False
        if pos not in strategy:
            raise ValueError(f"strategy is not total: no move at {pos!r}")
        if strategy[pos] not in options:
            return False
        side, x = strategy[pos]
        return all(spoiler(arena.step(pos, side, x, y)) for y in arena.replies(pos, side))

    return (duplicator if winner == DUPLICATOR else spoiler)(arena.start)


def bijection_extract(arena, winner: str) -> dict:
    """Duplicator's least winning matching keyed ``pos``, or Spoiler's first
    pick off the good pairs keyed ``(pos, matching)`` for every matching of
    the accessible sets."""
    strategy: dict = {}

    def visit(pos):
        state = arena.round(pos)
        if isinstance(state, str):
            return
        acc_a, acc_b = state
        good = arena.good(pos, acc_a, acc_b)
        if winner == DUPLICATOR:
            strategy[pos] = matching = _least_matching(acc_a, acc_b, good)
            for x, y in matching:
                visit(arena.step(pos, "A", x, y))
            return
        for perm in permutations(acc_b):
            matching = tuple(zip(acc_a, perm))
            if (pos, matching) in strategy:  # reached again by another matching
                return
            x, y = next(pair for pair in matching if pair not in good)
            strategy[pos, matching] = x
            if y in arena.fits(pos, "A", x, (y,)):
                visit(arena.step(pos, "A", x, y))

    if arena.holds(arena.start):
        visit(arena.start)
    return strategy


def bijection_replay(arena, strategy: dict, winner: str) -> bool:
    """Play a bijection strategy keyed as ``bijection_extract`` keys it
    against every opponent choice: every pick of every matching Duplicator
    offers, or every matching of the accessible sets Spoiler faces."""

    def play(pos) -> bool:
        if not arena.holds(pos):
            return winner == SPOILER
        state = arena.round(pos)
        if isinstance(state, str):
            return state == winner
        acc_a, acc_b = state
        if winner == DUPLICATOR:
            if pos not in strategy:
                raise ValueError(f"strategy is not total: no bijection at {pos!r}")
            matching = strategy[pos]
            if (
                len(matching) != len(acc_a)
                or {x for x, _ in matching} != set(acc_a)
                or {y for _, y in matching} != set(acc_b)
            ):
                return False
            return all(play(arena.step(pos, "A", x, y)) for x, y in matching)
        for perm in permutations(acc_b):
            key = pos, tuple(zip(acc_a, perm))
            if key not in strategy:
                raise ValueError(f"strategy is not total: no pick at {key!r}")
            pick = strategy[key]
            if pick not in acc_a or not play(
                arena.step(pos, "A", pick, perm[acc_a.index(pick)])
            ):
                return False
        return True

    return play(arena.start)


def bijection_winner(arena) -> str:
    """The bijection game's winner by trying every matching of every round,
    each sequence position solved once."""
    memo: dict = {}

    def win(pos) -> str:
        if pos not in memo:
            if not arena.holds(pos):
                memo[pos] = SPOILER
            elif isinstance(state := arena.round(pos), str):
                memo[pos] = state
            else:
                acc_a, acc_b = state
                wins = any(
                    all(
                        win(arena.step(pos, "A", x, y)) == DUPLICATOR
                        for x, y in zip(acc_a, perm)
                    )
                    for perm in permutations(acc_b)
                )
                memo[pos] = DUPLICATOR if wins else SPOILER
        return memo[pos]

    return win(arena.start)


def first_per_key(arena, strategy: dict, winner: str) -> dict:
    """A sequence-keyed strategy of the sequence games cut down to the first
    entry per memo key, each position replaced by its key."""
    out: dict = {}
    for entry, move in strategy.items():
        if winner == DUPLICATOR:
            pos, side, x = entry
            out.setdefault((arena.key(pos), side, x), move)
        else:
            out.setdefault(arena.key(entry), move)
    return out


def expand_certificate(arena, strategy: dict, winner: str) -> dict:
    """A strategy keyed on the arena's memo keys, rewritten in the form and
    order that ``sequence_extract`` or ``bijection_extract`` gives, by
    walking the positions reachable against it from the start.  A Hall pair
    ``(S, N)`` becomes one pick per matching: the first element of S that
    the matching sends outside N."""
    out: dict = {}

    def visit(pos):
        key = arena.key(pos)
        if isinstance(arena, _BijectionArena):
            state = arena.round(pos)
            if isinstance(state, str):
                return
            acc_a, acc_b = state
            if winner == DUPLICATOR:
                out[pos] = strategy[key]
                for x, y in strategy[key]:
                    visit(arena.step(pos, "A", x, y))
                return
            s, n = strategy[key]
            for perm in permutations(acc_b):
                matching = tuple(zip(acc_a, perm))
                if (pos, matching) in out:
                    return
                image = dict(matching)
                x = out[pos, matching] = next(x for x in s if image[x] not in n)
                child = arena.step(pos, "A", x, image[x])
                if arena.holds(child):
                    visit(child)
        elif winner == DUPLICATOR:
            for side, x in arena.options(pos):
                if (pos, side, x) not in out:
                    y = out[pos, side, x] = strategy[key, side, x]
                    visit(arena.step(pos, side, x, y))
        elif pos not in out:
            side, x = out[pos] = strategy[key]
            for y in arena.replies(pos, side):
                child = arena.step(pos, side, x, y)
                if arena.holds(child):
                    visit(child)

    if arena.holds(arena.start):
        visit(arena.start)
    return out


# -- the workspace replay -------------------------------------------------------


def fresh_partner_from_plays(machine, move_tag, move_on_left, state):
    """``WorkspaceStrategy._fresh_partner`` reading the summands in use from
    the tags of the responding side's played elements."""
    kind = machine._summand_type(move_tag, move_on_left)
    respond_left = not move_on_left
    play = state.left_play if respond_left else state.right_play
    used = {e.split(":", 1)[0] for e in play}
    candidates = [REAL_TAG] if (kind == "M") == respond_left else []
    candidates += [f"{kind}{i}" for i in range(1, machine.q + 1)]
    tag = next(tag for tag in candidates if tag not in used)
    return (tag, move_tag) if respond_left else (move_tag, tag)


def workspace_replay(machine):
    """The copy-cat replay of ``characterization.workspace_game_result`` that
    steps through every move sequence, checking each state's invariants
    literally: returns the strategy dict and the violation list."""
    q, left, right = machine.q, machine.left, machine.right
    strategy: dict = {}
    violations: list[str] = []
    iso: dict[frozenset, bool] = {}

    def record(state):
        pairs = tuple(zip(state.left_play, state.right_play))
        broken = False
        for broken_clause in machine.invariant_violations(state):
            violations.append(f"at {pairs!r}: {broken_clause}")
            broken = True
        pair_set = frozenset(pairs)
        if pair_set not in iso:
            iso[pair_set] = is_partial_isomorphism(pair_set, left, right)
        if not iso[pair_set]:
            violations.append(f"at {pairs!r}: not a partial isomorphism")
            broken = True
        if broken or state.round >= q:
            return
        for side, structure in (("left", left), ("right", right)):
            game_side = "A" if side == "left" else "B"
            for element in structure.universe:
                nxt = machine.step(state, side, element)
                response = nxt.right_play[-1] if side == "left" else nxt.left_play[-1]
                strategy[(pairs, game_side, element)] = response
                record(nxt)

    record(machine.initial_state())
    return strategy, violations


# -- first-order evaluation -----------------------------------------------------


class Evaluator:
    """Single-call evaluator that caches every node on (node, values of its
    free variables) and tests each quantifier's guard on every element."""

    def __init__(self, s: Structure):
        self.s = s
        self._cache: dict[tuple[FOFormula, tuple], bool] = {}

    def term(self, t: Term, env: Mapping[str, str]) -> str:
        if isinstance(t, Var):
            try:
                return env[t.name]
            except KeyError:
                raise ScopeError(f"unbound variable {t.name!r}") from None
        if isinstance(t, Const):
            if not 1 <= t.index <= len(self.s.basepoints):
                raise ScopeError(
                    f"constant c{t.index} out of range: structure has "
                    f"{len(self.s.basepoints)} basepoints"
                )
            return self.s.basepoints[t.index - 1]
        raise TypeError(f"not a term: {t!r}")

    def eval(self, f: FOFormula, env: Mapping[str, str]) -> bool:
        key = (f, tuple([env.get(v) for v in f.free]))
        got = self._cache.get(key)
        if got is None:
            got = self._eval(f, env)
            self._cache[key] = got
        return got

    def _eval(self, f: FOFormula, env: Mapping[str, str]) -> bool:
        s = self.s
        if isinstance(f, Rel):
            if f.name not in s.signature.relations:
                raise ScopeError(f"unknown relation symbol {f.name!r}")
            tup = tuple(self.term(t, env) for t in f.args)
            arity, n = s.signature.relations[f.name], len(tup)
            if n != arity:
                plural = "" if n == 1 else "s"
                raise ScopeError(
                    f"relation {f.name!r} has arity {arity}, used with {n} argument{plural}"
                )
            return s.has_tuple(f.name, tup)
        if isinstance(f, Eq):
            return self.term(f.left, env) == self.term(f.right, env)
        if isinstance(f, Top):
            return True
        if isinstance(f, Bottom):
            return False
        if isinstance(f, Acc):
            target = env.get(f.var)
            if target is None:
                raise ScopeError(f"unbound variable {f.var!r}")
            sources = [self.term(t, env) for t in f.sources]
            return any(
                s.has_tuple(name, (src, target))
                for name in s.signature.transitions
                for src in sources
            )
        if isinstance(f, Not):
            return not self.eval(f.sub, env)
        if isinstance(f, And):
            return self.eval(f.left, env) and self.eval(f.right, env)
        if isinstance(f, Or):
            return self.eval(f.left, env) or self.eval(f.right, env)
        if isinstance(f, Forall):
            return all(
                self.eval(f.body, {**env, f.var: e}) for e in s.universe
            )
        if isinstance(f, Exists):
            return any(
                self.eval(f.body, {**env, f.var: e}) for e in s.universe
            )
        if isinstance(f, BoundedForall):
            return all(
                self.eval(f.body, {**env, f.var: e})
                for e in s.universe
                if self.eval(f.guard, {**env, f.var: e})
            )
        if isinstance(f, BoundedExists):
            return any(
                self.eval(f.guard, {**env, f.var: e})
                and self.eval(f.body, {**env, f.var: e})
                for e in s.universe
            )
        if isinstance(f, CountExists):
            hits = 0
            for e in s.universe:
                inner = {**env, f.var: e}
                if self.eval(f.guard, inner) and self.eval(f.body, inner):
                    hits += 1
                    if hits >= f.count:
                        return True
            return False
        raise TypeError(f"not a first-order formula: {f!r}")


def eval_fo(f: FOFormula, s: Structure, env: Mapping[str, str] | None = None) -> bool:
    """``semantics.eval_fo`` through the reference evaluator."""
    return Evaluator(s).eval(f, dict(env or {}))


# -- parsing ----------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<id>[A-Za-z_][A-Za-z0-9_]*)|(?P<num>[0-9]+)"
    r"|(?P<op>->|>=|[().,;=&|!@]))"
)

_HYBRID_KEYWORDS = {"box", "dia", "boxinv", "diainv", "down"}
_FO_KEYWORDS = {"forall", "exists", "true", "false", "acc"}

_WORLD_VAR_RE = re.compile(r"^[xyzuvw][0-9]*$")
_NOMINAL_RE = re.compile(r"^c([0-9]+)$")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` triples, one regex match per token, ending
    with an ``end`` token.  An unexpected character is reported where it
    stands, after any whitespace before it."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if stripped:
                bad = len(text) - len(stripped)
                raise ParseError(f"unexpected character {text[bad]!r}", bad)
            break
        if m.group("id"):
            tokens.append(("id", m.group("id"), m.start("id")))
        elif m.group("num"):
            tokens.append(("num", m.group("num"), m.start("num")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {tok[1] or 'end of input'!r}", tok[2])

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok[0] == "op" and tok[1] == op

    def eat_op(self, op: str) -> bool:
        if self.at_op(op):
            self.i += 1
            return True
        return False

    def done(self):
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])


class _HybridParser(_Parser):
    def formula(self) -> sx.HybridFormula:
        f = self.or_expr()
        self.done()
        return f

    def or_expr(self) -> sx.HybridFormula:
        f = self.and_expr()
        while self.eat_op("|"):
            f = sx.Disj(f, self.and_expr())
        return f

    def and_expr(self) -> sx.HybridFormula:
        f = self.unary()
        while self.eat_op("&"):
            f = sx.Conj(f, self.unary())
        return f

    def unary(self) -> sx.HybridFormula:
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "!":
            self.next()
            return sx.Neg(self.unary())
        if tok[0] == "op" and tok[1] == "@":
            self.next()
            anchor = self.name_ref()
            return sx.At(anchor, self.unary())
        if tok[0] == "id" and tok[1] in ("box", "dia", "boxinv", "diainv"):
            self.next()
            ctor = {"box": sx.Box, "dia": sx.Dia, "boxinv": sx.BoxInv, "diainv": sx.DiaInv}[tok[1]]
            return ctor(self.unary())
        if tok[0] == "id" and tok[1] == "down":
            self.next()
            var_tok = self.next()
            if var_tok[0] != "id" or not _WORLD_VAR_RE.match(var_tok[1]):
                raise ParseError(f"expected a world variable after 'down', found {var_tok[1]!r}", var_tok[2])
            self.expect("op", ".")
            return sx.Bind(var_tok[1], self.or_expr())
        return self.primary()

    def name_ref(self) -> sx.HybridFormula:
        tok = self.next()
        if tok[0] != "id":
            raise ParseError(f"expected a world variable or nominal, found {tok[1]!r}", tok[2])
        index = _index(tok)
        if index is not None:
            return sx.Nom(index)
        if _WORLD_VAR_RE.match(tok[1]):
            return sx.WVar(tok[1])
        raise ParseError(f"{tok[1]!r} is neither a world variable nor a nominal", tok[2])

    def primary(self) -> sx.HybridFormula:
        tok = self.next()
        if tok[0] == "op" and tok[1] == "(":
            f = self.or_expr()
            self.expect("op", ")")
            return f
        if tok[0] == "id":
            if tok[1] in _HYBRID_KEYWORDS:
                raise ParseError(f"unexpected keyword {tok[1]!r}", tok[2])
            index = _index(tok)
            if index is not None:
                return sx.Nom(index)
            if _WORLD_VAR_RE.match(tok[1]):
                return sx.WVar(tok[1])
            return sx.Atom(tok[1])
        raise ParseError(f"expected a formula, found {tok[1] or 'end of input'!r}", tok[2])


def parse_hybrid(text: str) -> sx.HybridFormula:
    """The hybrid formula of ``text``, with no scope checks: compare with
    ``parser.parse_hybrid(text, closed=False)``."""
    return _HybridParser(text).formula()


def _index(tok: tuple[str, str, int]) -> int | None:
    """The index of a nominal or constant token, else ``None``; index 0 and
    a leading zero are refused at the token."""
    m = _NOMINAL_RE.match(tok[1])
    if m is None:
        return None
    if int(m.group(1)) == 0:
        raise ParseError(f"{tok[1]!r} names no basepoint: indices start at 1", tok[2])
    if m.group(1).startswith("0"):
        raise ParseError(f"{tok[1]!r} has a leading zero", tok[2])
    return int(m.group(1))


def _term_of(tok: tuple[str, str, int]) -> sx.Term:
    index = _index(tok)
    return sx.Var(tok[1]) if index is None else sx.Const(index)


def _is_variable(tok: tuple[str, str, int]) -> bool:
    """An identifier that is neither a keyword nor ``c`` and digits."""
    return tok[0] == "id" and tok[1] not in _FO_KEYWORDS and not _NOMINAL_RE.match(tok[1])


def _guard_shape(guard: sx.FOFormula, var: str) -> bool:
    if not isinstance(guard, sx.Rel) or len(guard.args) != 2:
        return False
    v = sx.Var(var)
    return (guard.args[0] == v) != (guard.args[1] == v)


class _FOParser(_Parser):
    def formula(self) -> sx.FOFormula:
        f = self.impl_expr()
        self.done()
        return f

    def impl_expr(self) -> sx.FOFormula:
        f = self.or_expr()
        if self.eat_op("->"):
            return sx.Or(sx.Not(f), self.impl_expr())
        return f

    def or_expr(self) -> sx.FOFormula:
        f = self.and_expr()
        while self.eat_op("|"):
            f = sx.Or(f, self.and_expr())
        return f

    def and_expr(self) -> sx.FOFormula:
        f = self.unary()
        while self.eat_op("&"):
            f = sx.And(f, self.unary())
        return f

    def unary(self) -> sx.FOFormula:
        tok = self.peek()
        if tok[0] == "op" and tok[1] == "!":
            self.next()
            return sx.Not(self.unary())
        if tok[0] == "id" and tok[1] in ("forall", "exists"):
            return self.quantifier()
        return self.primary()

    def quantifier(self) -> sx.FOFormula:
        kw = self.next()
        count = None
        if kw[1] == "exists" and self.eat_op(">="):
            num = self.next()
            if num[0] != "num":
                raise ParseError(f"expected a count after '>=', found {num[1]!r}", num[2])
            count = int(num[1])
            if count < 1:
                raise ParseError("counting threshold must be at least 1", num[2])
        var_tok = self.next()
        if not _is_variable(var_tok):
            raise ParseError(f"expected a variable, found {var_tok[1]!r}", var_tok[2])
        var = var_tok[1]
        body = self.unary()
        if count is not None:
            if isinstance(body, sx.And) and _guard_shape(body.left, var):
                return sx.CountExists(count, var, body.left, body.right)
            raise ParseError(
                "counting quantifier requires a guarded body of the form (E(t,y) & f)",
                var_tok[2],
            )
        if kw[1] == "exists":
            if isinstance(body, sx.And) and _guard_shape(body.left, var):
                return sx.BoundedExists(var, body.left, body.right)
            return sx.Exists(var, body)
        if (
            isinstance(body, sx.Or)
            and isinstance(body.left, sx.Not)
            and _guard_shape(body.left.sub, var)
        ):
            return sx.BoundedForall(var, body.left.sub, body.right)
        return sx.Forall(var, body)

    def primary(self) -> sx.FOFormula:
        tok = self.next()
        if tok[0] == "op" and tok[1] == "(":
            f = self.impl_expr()
            self.expect("op", ")")
            return f
        if tok[0] == "id" and tok[1] == "true":
            return sx.TRUE
        if tok[0] == "id" and tok[1] == "false":
            return sx.FALSE
        if tok[0] == "id" and tok[1] == "acc":
            self.expect("op", "(")
            sources = [self.term()]
            while self.eat_op(","):
                sources.append(self.term())
            self.expect("op", ";")
            var_tok = self.next()
            if not _is_variable(var_tok):
                raise ParseError(f"expected a variable, found {var_tok[1]!r}", var_tok[2])
            self.expect("op", ")")
            return sx.Acc(tuple(sources), var_tok[1])
        if tok[0] == "id":
            if tok[1] in _FO_KEYWORDS:
                raise ParseError(f"unexpected keyword {tok[1]!r}", tok[2])
            if self.at_op("("):
                self.next()
                args = [self.term()]
                while self.eat_op(","):
                    args.append(self.term())
                self.expect("op", ")")
                return sx.Rel(tok[1], tuple(args))
            left = _term_of(tok)
            self.expect("op", "=")
            return sx.Eq(left, self.term())
        raise ParseError(f"expected a formula, found {tok[1] or 'end of input'!r}", tok[2])

    def term(self) -> sx.Term:
        tok = self.next()
        if tok[0] != "id" or tok[1] in _FO_KEYWORDS:
            raise ParseError(f"expected a term, found {tok[1] or 'end of input'!r}", tok[2])
        return _term_of(tok)


def parse_fo(text: str) -> sx.FOFormula:
    """``parser.parse_fo`` through the reference parser."""
    return _FOParser(text).formula()

"""The model-comparison games, solved exactly by memoized backward induction.

Every game is played in one arena.  At a position, ``options`` are
Spoiler's moves ``(side, x)`` in structure A or B, ``replies`` are
Duplicator's answers in the other structure, and ``step`` plays a move and
its answer.  The ``pairs`` of a position are the elements matched so far,
and ``elements`` gives the elements that moves play.  The winning condition
on the pairs is a partial isomorphism in the back-and-forth games and a
partial homomorphism from A to B in the existential ones.  For solving and
extraction, ``fits`` keeps the replies to a move under which it still holds:
atoms on at most two elements are local, so it compares the cached atom codes
(``Structure.atom_codes``) of move and reply at the played pairs, and checks
wider tuples per reply.  ``holds`` computes the condition from scratch, once
per pair set, for the initial position, the traces and ``replay``, which
trusts no recorded move.  ``win`` memoizes ``value``, and ``answer``
Duplicator's least winning reply per memo key, shared by solving and
extraction; ``value``, ``extract`` and ``replay`` are written once:

* :class:`_Arena` plays the sequence games.  A position is the aligned
  sequence of pairs from the basepoints on.  Spoiler plays any element (EF
  variants) or one a transition step from an element played on that side
  (either way in the temporal game); Duplicator answers with any element.
  Positions are memoized on the pair set and the rounds played, on which
  the condition and the legal moves alone depend.
* :class:`_CarrierArena` plays the comonadic game ``G_k``.  A position is a
  pair of plays in the two hybrid comonad carriers (its pairs are the plays
  zipped), and a move steps to an immediate extension.
* :class:`_BijectionArena` plays the bounded bijection game on the positions
  of the sequence games, but a round opens with Duplicator matching the two
  accessible sets, and Spoiler picks a pair of the matching.  It overrides
  ``value``, ``extract`` and ``replay``.

Outside the arena stay the independent checks of the games, which share no
arena code and read no atom codes: ``back_and_forth_rank`` here,
``comonads.find_cokleisli_morphism``, ``scott.scott_type``,
``coalgebras.coalgebra_number`` and ``characterization.ef_types_agree``.  Each builds its own atomic information
incrementally along its extension tuples or plays.

All iteration follows universe (or carrier) order, which makes winners,
strategies and traces deterministic.  The exposed round count ``k`` is the
number of free rounds after the forced basepoint round(s); the winning
condition is checked at every position including the initial one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, permutations, product, repeat
from typing import Callable, Mapping

from .errors import ResourceLimitError
from .structures import Structure, covers, is_partial_isomorphism, row_codes
from .comonads import ComonadKind, build_comonad

DUPLICATOR = "Duplicator"
SPOILER = "Spoiler"

DEFAULT_MAX_ACCESSIBLE = 8


class GameVariant(Enum):
    EXISTENTIAL_EF = "existential-ef"
    EXISTENTIAL_HYBRID = "existential-hybrid"
    EXISTENTIAL_BOUNDED = "existential-bounded"
    EF = "ef"
    BACK_FORTH_HYBRID = "back-forth-hybrid"
    BACK_FORTH_BOUNDED = "back-forth-bounded"
    BACK_FORTH_TEMPORAL = "back-forth-temporal"
    BIJECTION = "bijection"
    COMONADIC_GK = "comonadic-gk"


_EXISTENTIAL = {
    GameVariant.EXISTENTIAL_EF,
    GameVariant.EXISTENTIAL_HYBRID,
    GameVariant.EXISTENTIAL_BOUNDED,
}
_UNIMODAL = {
    GameVariant.EXISTENTIAL_HYBRID,
    GameVariant.BACK_FORTH_HYBRID,
    GameVariant.BACK_FORTH_TEMPORAL,
    GameVariant.COMONADIC_GK,
}

#: Comonad kind whose coKleisli morphisms match each existential variant.
KIND_FOR_VARIANT = {
    GameVariant.EXISTENTIAL_EF: ComonadKind.EF,
    GameVariant.EXISTENTIAL_HYBRID: ComonadKind.HYBRID,
    GameVariant.EXISTENTIAL_BOUNDED: ComonadKind.BOUNDED,
}


@dataclass
class GameResult:
    winner: str
    variant: GameVariant
    k: int
    _strategy_fn: Callable[[], dict] = field(repr=False, compare=False)
    _strategy: dict | None = field(default=None, repr=False, compare=False)

    @property
    def strategy(self) -> dict:
        """Deterministic strategy for the winner, keyed by the position
        reached (the aligned pair sequence, or the pair of plays in
        ``comonadic-gk``) plus the opponent's move where one is needed.
        Extracted lazily and cached."""
        if self._strategy is None:
            self._strategy = self._strategy_fn()
        return self._strategy


def _check_variant(a: Structure, b: Structure, variant: GameVariant, k: int):
    if k < 0:
        raise ValueError(f"round count must be non-negative, got {k}")
    if not a.signature.same_vocabulary(b.signature):
        raise ValueError("signature mismatch between the two structures")
    if a.signature.num_basepoints != b.signature.num_basepoints:
        raise ValueError("basepoint count mismatch between the two structures")
    if variant in _UNIMODAL and not a.signature.is_unimodal():
        raise ValueError(
            f"{variant.value} needs a unimodal signature "
            "(one transition relation, one basepoint)"
        )
    if variant is GameVariant.COMONADIC_GK and k < 1:
        raise ValueError("the comonadic game needs k >= 1")


def _orient(side: str, x, y) -> tuple:
    """The pair of a move ``x`` made on ``side`` and answered by ``y``, with
    the component from A first."""
    return (x, y) if side == "A" else (y, x)


def _maps_into(tuples, h: Mapping[str, str], target: Structure) -> bool:
    """Whether ``h`` sends each ``(relation, tuple)`` it is defined on to a
    tuple of that relation in ``target``."""
    for name, tup in tuples:
        if all(map(h.__contains__, tup)) and not target.has_tuple(
            name, tuple(map(h.__getitem__, tup))
        ):
            return False
    return True


class _Arena:
    """The sequence games: a position is the aligned tuple of pairs played so
    far, starting with the basepoint pairs."""

    def __init__(self, a: Structure, b: Structure, variant: GameVariant, k: int):
        self.a = a
        self.b = b
        self.variant = variant
        self.k = k
        self.existential = variant in _EXISTENTIAL
        self.start = tuple(zip(a.basepoints, b.basepoints))
        self.memo: dict = {}
        self.answers: dict = {}
        self.held: dict = {}

    # -- positions and moves ----------------------------------------------------------

    def key(self, pos):
        """Memo key: the pair set and the number of rounds played."""
        return frozenset(pos), len(pos)

    def pairs(self, pos) -> tuple[tuple[str, str], ...]:
        return pos

    def elements(self, i: int, moves):
        """The elements that moves in structure A (``i`` 0) or B (1) play."""
        return moves

    def options(self, pos) -> list[tuple[str, str]]:
        """Spoiler's moves ``(side, x)``, A-side first, in universe order."""
        if len(pos) - len(self.start) == self.k:
            return []
        options = [("A", x) for x in self._legal(self.a, [x for x, _ in pos])]
        if not self.existential:
            options += [("B", y) for y in self._legal(self.b, [y for _, y in pos])]
        return options

    def _legal(self, s: Structure, played: list[str]) -> tuple[str, ...]:
        if self.variant in (GameVariant.EF, GameVariant.EXISTENTIAL_EF):
            return s.universe
        temporal = self.variant is GameVariant.BACK_FORTH_TEMPORAL
        return s.accessible(played, backward=temporal)

    def replies(self, pos, side: str) -> tuple[str, ...]:
        """Duplicator's answers to a Spoiler move on ``side``."""
        return self.b.universe if side == "A" else self.a.universe

    def step(self, pos, side: str, x, y):
        return pos + (_orient(side, x, y),)

    # -- the winning condition ---------------------------------------------------------

    def holds(self, pos) -> bool:
        """The winning condition at ``pos``, computed from scratch, once per
        pair set.  Only this method fills ``held``, never ``fits`` or the
        solver's memo."""
        pairs = frozenset(self.pairs(pos))
        value = self.held.get(pairs)
        if value is None:
            value = self.held[pairs] = self._condition(pairs)
        return value

    def _condition(self, pairs: frozenset) -> bool:
        if not self.existential:
            return is_partial_isomorphism(pairs, self.a, self.b)
        fwd: dict[str, str] = {}
        for x, y in pairs:
            if fwd.setdefault(x, y) != y:
                return False
        return all(_maps_into(self.a.tuples_at(x), fwd, self.b) for x in fwd)

    def fits(self, pos, side: str, x, among=None):
        """Yield, in order, Duplicator's replies to Spoiler's ``x`` on ``side``
        (those in ``among``, by default all) after which the winning condition
        still holds, given that it holds at ``pos``.  By the atom codes, the
        move's atoms with each played pair must equal the reply's with its
        image in the back-and-forth games and map into them in the existential
        ones, where those with an image the reply repeats collapse onto it.
        Tuples over three or more elements are checked per reply."""
        mine, theirs = (self.a, self.b) if side == "A" else (self.b, self.a)
        index, rows, wide = mine.atom_codes()
        their_index, their_rows, their_wide = theirs.atom_codes()
        i = 0 if side == "A" else 1  # the mover's place in a pair
        pairs = self.pairs(pos)
        (ex,) = self.elements(i, (x,))
        e = index[ex]
        images = [p[1 - i] for p in pairs]
        want = row_codes([index[p[i]] for p in pairs])(rows[e])
        get = row_codes([their_index[v] for v in images])
        replies = self.replies(pos, side) if among is None else among
        reached = self.elements(1 - i, replies)
        at = map(their_index.__getitem__, reached)
        got = map(get, map(their_rows.__getitem__, at))
        if not self.existential:
            kept = map(want.__eq__, got)
        else:
            slots: dict[str, tuple[int, ...]] = {}  # where each image's codes are
            for k, v in enumerate(images, 1):
                slots[v] = slots.get(v, ()) + (k,)
            kept = map(covers, got, repeat(want), map(slots.get, reached, repeat(())))
        for y, f in compress(zip(replies, reached), kept):
            t = their_index[f]
            if wide[e] or their_wide[t]:
                fwd = {p[i]: p[1 - i] for p in pairs} | {ex: f}
                back = {v: u for u, v in fwd.items()}
                if not _maps_into(wide[e], fwd, theirs) or not (
                    self.existential or _maps_into(their_wide[t], back, mine)
                ):
                    continue
            yield y

    # -- solving, extraction and replay ----------------------------------------------

    def answer(self, pos, side: str, x):
        """Duplicator's least reply to ``x`` that keeps a won position, or
        ``None`` when the move refutes Duplicator; memoized per memo key."""
        key = (self.key(pos), side, x)
        if key not in self.answers:
            for y in self.fits(pos, side, x):
                if self.win(self.step(pos, side, x, y)) == DUPLICATOR:
                    break
            else:
                y = None
            self.answers[key] = y
        return self.answers[key]

    def win(self, pos) -> str:
        """Game value at a position where the winning condition holds,
        memoized on its key."""
        key = self.key(pos)
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = self.value(pos)
        return value

    def value(self, pos) -> str:
        """Spoiler wins when some move has no winning answer."""
        refuted = any(self.answer(pos, *move) is None for move in self.options(pos))
        return SPOILER if refuted else DUPLICATOR

    def solve(self) -> GameResult:
        winner = self.win(self.start) if self.holds(self.start) else SPOILER
        return GameResult(winner, self.variant, self.k, lambda: self.extract(winner))

    def extract(self, winner: str) -> dict:
        """The winner's strategy on every position reachable against it:
        Duplicator's least winning reply keyed ``(pos, side, x)``, or
        Spoiler's first refuting move keyed ``pos``."""
        strategy: dict = {}

        def visit(pos):
            if winner == DUPLICATOR:
                for side, x in self.options(pos):
                    if (pos, side, x) in strategy:
                        continue
                    y = self.answer(pos, side, x)
                    if y is not None:
                        strategy[pos, side, x] = y
                        visit(self.step(pos, side, x, y))
            elif pos not in strategy:
                for side, x in self.options(pos):
                    if self.answer(pos, side, x) is None:
                        strategy[pos] = (side, x)
                        for y in self.fits(pos, side, x):
                            visit(self.step(pos, side, x, y))
                        return

        if self.holds(self.start):
            visit(self.start)
        return strategy

    def replay(self, strategy: dict, winner: str) -> bool:
        """Play the recorded strategy against every opponent move, checking
        the winning condition from scratch at each position reached.  A
        recorded move the arena does not offer fails the replay; a missing
        one raises."""

        def duplicator(pos) -> bool:
            if not self.holds(pos):
                return False
            for side, x in self.options(pos):
                if (pos, side, x) not in strategy:
                    raise ValueError(
                        f"strategy is not total: no response at {(pos, side, x)!r}"
                    )
                y = strategy[pos, side, x]
                if y not in self.replies(pos, side) or not duplicator(
                    self.step(pos, side, x, y)
                ):
                    return False
            return True

        def spoiler(pos) -> bool:
            if not self.holds(pos):
                return True
            options = self.options(pos)
            if not options:
                return False
            if pos not in strategy:
                raise ValueError(f"strategy is not total: no move at {pos!r}")
            if strategy[pos] not in options:
                return False
            side, x = strategy[pos]
            return all(
                spoiler(self.step(pos, side, x, y)) for y in self.replies(pos, side)
            )

        return (duplicator if winner == DUPLICATOR else spoiler)(self.start)


class _CarrierArena(_Arena):
    """The comonadic game ``G_k``: a position is a pair of plays, one in each
    hybrid comonad carrier, and a move steps to an immediate extension."""

    def __init__(
        self, a: Structure, b: Structure, k: int, max_plays: int | None = None
    ):
        super().__init__(a, b, GameVariant.COMONADIC_GK, k)
        kwargs = {} if max_plays is None else {"max_plays": max_plays}
        self.carriers = tuple(
            build_comonad(s, ComonadKind.HYBRID, k, **kwargs) for s in (a, b)
        )
        self.start = tuple(c.carrier.basepoints[-1] for c in self.carriers)

    def key(self, pos):
        return pos

    def pairs(self, pos) -> tuple[tuple[str, str], ...]:
        a, b = self.carriers
        return tuple(zip(a.parts[pos[0]], b.parts[pos[1]]))

    def elements(self, i: int, moves):
        parts = self.carriers[i].parts
        return [parts[move][-1] for move in moves]

    def options(self, pos) -> list[tuple[str, str]]:
        a_moves, b_moves = (c.children(p) for c, p in zip(self.carriers, pos))
        return [("A", s) for s in a_moves] + [("B", t) for t in b_moves]

    def replies(self, pos, side: str) -> tuple[str, ...]:
        i = 1 if side == "A" else 0
        return self.carriers[i].children(pos[i])

    def step(self, pos, side: str, x, y):
        return _orient(side, x, y)


class _BijectionArena(_Arena):
    """The bounded bijection game: positions as in the sequence games, but
    each round Duplicator commits to a matching of the two accessible sets
    and Spoiler picks one of its pairs."""

    def __init__(
        self, a: Structure, b: Structure, k: int, max_accessible=DEFAULT_MAX_ACCESSIBLE
    ):
        super().__init__(a, b, GameVariant.BIJECTION, k)
        self.max_accessible = max_accessible

    def round(self, pos):
        """The winner when the game is over at ``pos`` (no round left or
        nothing to pick, or a cardinality clash), else the one-step-accessible
        sets of the two sides, which the next round is played on."""
        if len(pos) - len(self.start) == self.k:
            return DUPLICATOR
        acc_a = self.a.accessible(x for x, _ in pos)
        acc_b = self.b.accessible(y for _, y in pos)
        if len(acc_a) != len(acc_b):
            return SPOILER
        return (acc_a, acc_b) if acc_a else DUPLICATOR

    def good(self, pos, acc_a, acc_b) -> set[tuple[str, str]]:
        """The pairs Duplicator can match and still win from."""
        return {
            (x, y)
            for x in acc_a
            for y in self.fits(pos, "A", x, acc_b)
            if self.win(self.step(pos, "A", x, y)) == DUPLICATOR
        }

    def value(self, pos) -> str:
        """Duplicator wins when the good pairs hold a perfect matching."""
        state = self.round(pos)
        if isinstance(state, str):
            return state
        acc_a, acc_b = state
        if len(acc_a) > self.max_accessible:
            raise ResourceLimitError(
                f"bijection round over {len(acc_a)} accessible elements exceeds "
                f"the cap of {self.max_accessible}"
            )
        good = self.good(pos, acc_a, acc_b)
        return DUPLICATOR if _has_perfect_matching(acc_a, acc_b, good) else SPOILER

    def extract(self, winner: str) -> dict:
        """Duplicator's least winning matching keyed ``pos``, or Spoiler's
        first pick off the good pairs keyed ``(pos, matching)`` for every
        matching of the accessible sets."""
        strategy: dict = {}

        def visit(pos):
            state = self.round(pos)
            if isinstance(state, str):
                return
            acc_a, acc_b = state
            good = self.good(pos, acc_a, acc_b)
            if winner == DUPLICATOR:
                strategy[pos] = matching = _least_matching(acc_a, acc_b, good)
                for x, y in matching:
                    visit(self.step(pos, "A", x, y))
                return
            for perm in permutations(acc_b):
                matching = tuple(zip(acc_a, perm))
                if (pos, matching) in strategy:  # reached again by another matching
                    return
                x, y = next(pair for pair in matching if pair not in good)
                strategy[pos, matching] = x
                if y in self.fits(pos, "A", x, (y,)):
                    visit(self.step(pos, "A", x, y))

        if self.holds(self.start):
            visit(self.start)
        return strategy

    def replay(self, strategy: dict, winner: str) -> bool:
        """Play the recorded strategy against every opponent choice, checking
        the winning condition from scratch at each position reached.  A
        matching that is not a bijection of the accessible sets, or a pick
        outside them, fails the replay; a missing one raises."""

        def play(pos) -> bool:
            if not self.holds(pos):
                return winner == SPOILER
            state = self.round(pos)
            if isinstance(state, str):
                return state == winner
            acc_a, acc_b = state
            if winner == DUPLICATOR:
                if pos not in strategy:
                    raise ValueError(f"strategy is not total: no bijection at {pos!r}")
                matching = strategy[pos]
                if (
                    matching is None
                    or len(matching) != len(acc_a)
                    or {x for x, _ in matching} != set(acc_a)
                    or {y for _, y in matching} != set(acc_b)
                ):
                    return False
                return all(play(self.step(pos, "A", x, y)) for x, y in matching)
            for perm in permutations(acc_b):
                key = pos, tuple(zip(acc_a, perm))
                if key not in strategy:
                    raise ValueError(f"strategy is not total: no pick at {key!r}")
                pick = strategy[key]
                if pick not in acc_a or not play(
                    self.step(pos, "A", pick, perm[acc_a.index(pick)])
                ):
                    return False
            return True

        return play(self.start)


def _has_perfect_matching(
    rows: tuple[str, ...], cols: tuple[str, ...], good: set[tuple[str, str]]
) -> bool:
    match_of_col: dict[str, str] = {}

    def augment(r: str, visited: set[str]) -> bool:
        for c in cols:
            if (r, c) in good and c not in visited:
                visited.add(c)
                if c not in match_of_col or augment(match_of_col[c], visited):
                    match_of_col[c] = r
                    return True
        return False

    for r in rows:
        if not augment(r, set()):
            return False
    return True


def _least_matching(
    rows: tuple[str, ...], cols: tuple[str, ...], good: set[tuple[str, str]]
) -> tuple[tuple[str, str], ...]:
    """Lexicographically least perfect matching over rows in order, given
    that one exists: each row takes the least column that leaves the rest
    matchable, so no choice is ever undone."""
    free = list(cols)
    matching = []
    for i, r in enumerate(rows):
        c = next(
            c
            for c in free
            if (r, c) in good
            and _has_perfect_matching(
                rows[i + 1 :], tuple(d for d in free if d != c), good
            )
        )
        free.remove(c)
        matching.append((r, c))
    return tuple(matching)


def _arena(a: Structure, b: Structure, variant: GameVariant, k: int, **cap) -> _Arena:
    """The arena of the k-round ``variant`` game, once the two structures are
    checked to suit it; ``cap`` is the bijection or carrier arena's size cap."""
    _check_variant(a, b, variant, k)
    if variant is GameVariant.BIJECTION:
        return _BijectionArena(a, b, k, **cap)
    if variant is GameVariant.COMONADIC_GK:
        return _CarrierArena(a, b, k, **cap)
    return _Arena(a, b, variant, k)


def solve(a: Structure, b: Structure, variant: GameVariant, k: int) -> GameResult:
    """Exact value and deterministic strategy of the k-round game."""
    return _arena(a, b, variant, k).solve()


def solve_Gk(
    a: Structure, b: Structure, k: int, max_plays: int | None = None
) -> GameResult:
    """The back-and-forth game played on the hybrid comonad carriers: moves
    step to immediate extensions, and a position is winning when pairing the
    two plays elementwise yields a partial isomorphism (so repeated elements
    must correspond)."""
    return _arena(a, b, GameVariant.COMONADIC_GK, k, max_plays=max_plays).solve()


def solve_bijection(
    a: Structure, b: Structure, k: int, max_accessible: int = DEFAULT_MAX_ACCESSIBLE
) -> GameResult:
    """Value of the m+k-round bounded bijection game: each round Duplicator
    commits to a bijection between the one-step-accessible sets (Spoiler wins
    on a cardinality clash), Spoiler picks an accessible element, and the
    accumulated correspondence must stay a partial isomorphism."""
    arena = _arena(a, b, GameVariant.BIJECTION, k, max_accessible=max_accessible)
    return arena.solve()


def verify_strategy(
    result: GameResult, a: Structure, b: Structure, variant: GameVariant, k: int
) -> bool:
    """Replay every opponent option against the recorded strategy and confirm
    the winning condition at every reached position.  A recorded move that
    is not legal fails the replay; a missing one raises."""
    return _arena(a, b, variant, k).replay(result.strategy, result.winner)


# -- the inductive back-and-forth relations ----------------------------------------------


def back_and_forth_rank(a: Structure, b: Structure, k: int) -> bool:
    """The inductively defined rank-k back-and-forth relation over extension
    tuples: atomic agreement at every level, and matching one-step transition
    extensions of every tuple component.  Independent of the game engine.

    Full atomic agreement is checked once, at the basepoints; an extension
    pair agrees when the atoms and equalities through its new positions do,
    each side's computed once per tuple and compared after the memo lookup.
    The one-step extensions are each component's partners in the
    structure's index of each transition relation.
    """
    if not a.signature.same_vocabulary(b.signature):
        raise ValueError("signature mismatch between the two structures")
    if a.signature.num_basepoints != b.signature.num_basepoints:
        raise ValueError("basepoint count mismatch between the two structures")
    transitions = sorted(a.signature.transitions)
    memo: dict[tuple[tuple[str, ...], tuple[str, ...], int], bool] = {}
    seen_a: dict[tuple[str, ...], tuple] = {}
    seen_b: dict[tuple[str, ...], tuple] = {}

    def atoms_at_last(s: Structure, seen: dict, tup: tuple[str, ...]):
        """The atoms of ``tup`` through its last position, as (relation,
        positions) pairs, and the earlier positions equal to it."""
        got = seen.get(tup)
        if got is None:
            n = len(tup) - 1
            where: dict[str, list[int]] = {}
            for i, e in enumerate(tup):
                where.setdefault(e, []).append(i)
            hits = []
            for name, t in s.tuples_at(tup[n]):
                places = [where.get(e) for e in t]
                if None not in places:
                    hits.extend((name, idx) for idx in product(*places) if n in idx)
            got = seen[tup] = (frozenset(hits), tuple(where[tup[n]][:-1]))
        return got

    def agree(ta: tuple[str, ...], tb: tuple[str, ...]) -> bool:
        return atoms_at_last(a, seen_a, ta) == atoms_at_last(b, seen_b, tb)

    def bf(ta: tuple[str, ...], tb: tuple[str, ...], rank: int) -> bool:
        """Whether a pair whose atoms agree below its newest positions is
        in the rank-``rank`` relation."""
        key = (ta, tb, rank)
        got = memo.get(key)
        if got is None:
            got = memo[key] = agree(ta, tb) and forth_and_back(ta, tb, rank)
        return got

    def forth_and_back(ta: tuple[str, ...], tb: tuple[str, ...], rank: int) -> bool:
        if rank == 0:
            return True
        for name in transitions:
            succ_a, succ_b = a.partners(name), b.partners(name)
            for i in range(len(ta)):
                xs, ys = succ_a[ta[i]], succ_b[tb[i]]
                forth = all(
                    any(bf(ta + (x,), tb + (y,), rank - 1) for y in ys) for x in xs
                )
                back = forth and all(
                    any(bf(ta + (x,), tb + (y,), rank - 1) for x in xs) for y in ys
                )
                if not (forth and back):
                    return False
        return True

    ta, tb = a.basepoints, b.basepoints
    roots_agree = all(agree(ta[:i], tb[:i]) for i in range(1, len(ta) + 1))
    return roots_agree and forth_and_back(ta, tb, k)


# -- traces ------------------------------------------------------------------------------


def trace_game(a: Structure, b: Structure, variant: GameVariant, k: int) -> str:
    """Line-per-round transcript of the principal play: the winner follows the
    extracted strategy, the loser probes with the least legal option."""
    result = solve(a, b, variant, k)
    lines = [f"game: {variant.value} k={k}", f"winner: {result.winner}"]
    if variant in (GameVariant.BIJECTION, GameVariant.COMONADIC_GK):
        lines.append("trace: not rendered for this variant")
        return "\n".join(lines) + "\n"
    arena = _Arena(a, b, variant, k)
    strategy = result.strategy
    pos = arena.start
    ok = arena.holds(pos)
    lines.append(f"round 0: initial position {_fmt_pairs(pos)} [{_verdict(ok)}]")
    for rnd in range(1, k + 1):
        if not ok:
            break
        if result.winner == SPOILER:
            move = strategy.get(pos)
            if move is None:
                break
            side, x = move
            replies = arena.replies(pos, side)
            if not replies:
                lines.append(
                    f"round {rnd}: spoiler {side}:{x} -> duplicator has no reply"
                    " [fail]"
                )
                break
            y = next(
                (y for y in replies if arena.holds(arena.step(pos, side, x, y))),
                replies[0],
            )
        else:
            options = arena.options(pos)
            if not options:
                lines.append(f"round {rnd}: spoiler has no legal move [ok]")
                break
            side, x = options[0]
            y = strategy[pos, side, x]
        pos = arena.step(pos, side, x, y)
        ok = arena.holds(pos)
        lines.append(
            f"round {rnd}: spoiler {side}:{x} -> duplicator {y} [{_verdict(ok)}]"
        )
    return "\n".join(lines) + "\n"


def _fmt_pairs(seq) -> str:
    return " ".join(f"({x},{y})" for x, y in seq) if seq else "(empty)"


def _verdict(ok: bool) -> str:
    return "ok" if ok else "fail"

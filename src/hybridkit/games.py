"""The model-comparison games, solved exactly by memoized backward induction.

Every game is played in one arena.  At a position, ``options`` are
Spoiler's moves ``(side, x)`` in structure A or B, ``replies`` are
Duplicator's answers in the other structure, and ``step`` plays a move and
its answer.  The ``pairs`` of a position are the elements matched so far,
and ``elements`` gives the elements that moves play.  The winning condition
on the pairs is a partial isomorphism in the back-and-forth games and a
partial homomorphism from A to B in the existential ones.  For solving and
extraction, ``fits`` keeps the replies to a move under which it still holds:
in the existential games, those whose extended map sends the move's tuples
into B (``structures.maps_into``).  Elsewhere atoms on at most two elements
are local, so it compares the cached atom codes (``Structure.atom_codes``) of
move and reply at the played pairs, and checks wider tuples per reply.  ``holds`` computes the condition from scratch, once
per pair set, for the initial position, the traces and ``replay``, which
trusts no recorded move and reads the pair set off the memo key
(``holds_at``); ``trace_game`` renders a solved ``GameResult``
without solving again.  ``win`` memoizes ``value``, and ``answer``
Duplicator's least winning reply per memo key, shared by solving and
extraction.  Strategies are recorded per memo key too (``key``), since the
condition and the legal moves depend on nothing else: ``extract`` and
``replay`` walk each key reached once, with ``record`` and ``follow`` for
one key's move.  ``value``, ``extract`` and ``replay`` are written once:

* :class:`_Arena` plays the sequence games.  A position is the aligned
  sequence of pairs from the basepoints on.  Spoiler plays any element (EF
  variants) or one a transition step from an element played on that side
  (either way in the temporal game); Duplicator answers with any element.
  Positions are memoized on the pair set and the rounds played
  (``sequence_key``).
* :class:`_CarrierArena` plays the comonadic game ``G_k``.  A position is a
  pair of plays of the hybrid comonad over the two structures (its pairs
  are the plays zipped), and a move steps to an immediate extension.  The
  arena reads only the two named play trees (``comonads._play_tree``, each
  capped at ``comonads.MAX_PLAYS`` plays): the winning condition needs each
  play's elements, not the relations a carrier lifts onto plays.
* :class:`_BijectionArena` plays the bounded bijection game on the positions
  of the sequence games, but a round opens with Duplicator matching the two
  accessible sets, and Spoiler picks a pair of the matching.  Spoiler's
  strategy is a Hall pair per key: a set S of A's accessible elements with
  fewer good partners N, so that every matching sends some element of S
  outside N (P. Hall, "On representatives of subsets", 1935).  It overrides
  ``value``, ``record`` and ``follow``.

Outside the arena stay the independent checks of the games, which share no
arena code and read no atom codes: ``back_and_forth_rank`` here,
``comonads.find_cokleisli_morphism``, ``scott.scott_type``,
``coalgebras.coalgebra_number`` and ``characterization.ef_types_agree``.
Each reads the atoms along its tuples or plays from
``Structure.atoms_at_last``, which the arena never calls; the first two and
the last skip it where the newest element repeats an earlier one.

All iteration follows universe (or carrier) order, which makes winners,
strategies and traces deterministic.  The exposed round count ``k`` is the
number of free rounds after the forced basepoint round(s); the winning
condition is checked at every position including the initial one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from itertools import compress
from typing import Callable

from .structures import (
    Structure,
    check_comparable,
    is_partial_isomorphism,
    maps_into,
    row_codes,
)
from .comonads import ComonadKind, _play_tree

DUPLICATOR = "Duplicator"
SPOILER = "Spoiler"


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

@dataclass
class GameResult:
    winner: str
    variant: GameVariant
    k: int
    _strategy_fn: Callable[[], dict] = field(repr=False, compare=False)
    _strategy: dict | None = field(default=None, repr=False, compare=False)

    @property
    def strategy(self) -> dict:
        """Deterministic strategy for the winner, one move per memo key
        reached (``sequence_key``, or the pair of plays in ``comonadic-gk``):
        Duplicator's reply keyed ``(key, side, x)`` and Spoiler's move keyed
        ``key``; in the bijection game, Duplicator's matching or Spoiler's
        Hall pair ``(S, N)`` keyed ``key``.  Extracted lazily and cached."""
        if self._strategy is None:
            self._strategy = self._strategy_fn()
        return self._strategy


def _check_variant(a: Structure, b: Structure, variant: GameVariant, k: int):
    if k < 0:
        raise ValueError(f"round count must be non-negative, got {k}")
    check_comparable(a, b)
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


def sequence_key(pos) -> tuple[frozenset, int]:
    """Memo and strategy key of a sequence-game position (or of any aligned
    pair sequence): the pair set and the number of rounds played."""
    return frozenset(pos), len(pos)


def _recorded(strategy: dict, key):
    """The move recorded under ``key``; raises when there is none."""
    if key not in strategy:
        raise ValueError(f"strategy is not total: nothing recorded at {key!r}")
    return strategy[key]


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
        # dicts, not @cache: they key on a position's key or pair set
        self.memo: dict = {}
        self.answers: dict = {}
        self.held: dict = {}

    # -- positions and moves ----------------------------------------------------------

    key = staticmethod(sequence_key)

    def pairs(self, pos) -> tuple[tuple[str, str], ...]:
        return pos

    def pair_set(self, key, pos) -> frozenset:
        """The pairs at ``pos`` as a set, read off its memo key ``key``."""
        return key[0]

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
        """The winning condition at ``pos``."""
        return self.holds_at(self.key(pos), pos)

    def holds_at(self, key, pos) -> bool:
        """The winning condition at ``pos``, whose memo key is ``key``,
        computed from scratch, once per pair set.  Only this method fills
        ``held``, never ``fits`` or the solver's memo."""
        pairs = self.pair_set(key, pos)
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
        return all(maps_into(self.a.tuples_at(x), fwd, self.b) for x in fwd)

    def fits(self, pos, side: str, x, among=None):
        """Yield, in order, Duplicator's replies to Spoiler's ``x`` on ``side``
        (those in ``among``, by default all) after which the winning condition
        still holds, given that it holds at ``pos``.  In the existential games
        the extended map must keep an earlier image of the move and send its
        tuples into the other structure (``maps_into``).  In the
        back-and-forth games, by the atom codes, the move's atoms with each
        played pair must equal the reply's with its image; tuples over three
        or more elements are checked per reply, both ways."""
        mine, theirs = (self.a, self.b) if side == "A" else (self.b, self.a)
        i = 0 if side == "A" else 1  # the mover's place in a pair
        pairs = self.pairs(pos)
        (ex,) = self.elements(i, (x,))
        replies = self.replies(pos, side) if among is None else among
        reached = self.elements(1 - i, replies)
        if self.existential:
            fwd = {p[i]: p[1 - i] for p in pairs}
            at = mine.tuples_at(ex)
            for y, f in zip(replies, reached):
                if fwd.get(ex, f) == f and maps_into(at, fwd | {ex: f}, theirs):
                    yield y
            return
        index, rows, wide = mine.atom_codes()
        their_index, their_rows, their_wide = theirs.atom_codes()
        e = index[ex]
        want = row_codes([index[p[i]] for p in pairs])(rows[e])
        get = row_codes([their_index[p[1 - i]] for p in pairs])
        at = map(their_index.__getitem__, reached)
        kept = map(want.__eq__, map(get, map(their_rows.__getitem__, at)))
        for y, f in compress(zip(replies, reached), kept):
            t = their_index[f]
            if wide[e] or their_wide[t]:
                fwd = {p[i]: p[1 - i] for p in pairs} | {ex: f}
                back = {v: u for u, v in fwd.items()}
                if not (
                    maps_into(wide[e], fwd, theirs)
                    and maps_into(their_wide[t], back, mine)
                ):
                    continue
            yield y

    # -- solving, extraction and replay ----------------------------------------------

    def answer(self, key, pos, side: str, x):
        """Duplicator's least reply to ``x`` that keeps a won position, or
        ``None`` when the move refutes Duplicator; memoized per memo key."""
        move = (key, side, x)
        if move not in self.answers:
            for y in self.fits(pos, side, x):
                if self.win(self.step(pos, side, x, y)) == DUPLICATOR:
                    break
            else:
                y = None
            self.answers[move] = y
        return self.answers[move]

    def win(self, pos) -> str:
        """Game value at a position where the winning condition holds,
        memoized on its key."""
        key = self.key(pos)
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = self.value(key, pos)
        return value

    def value(self, key, pos) -> str:
        """Spoiler wins when some move has no winning answer."""
        refuted = any(self.answer(key, pos, *m) is None for m in self.options(pos))
        return SPOILER if refuted else DUPLICATOR

    def solve(self) -> GameResult:
        winner = self.win(self.start) if self.holds(self.start) else SPOILER
        return GameResult(winner, self.variant, self.k, lambda: self.extract(winner))

    def extract(self, winner: str) -> dict:
        """The winner's strategy on every memo key reachable against it, each
        recorded from the first position that reaches it."""
        strategy: dict = {}
        done: set = set()

        def visit(pos):
            key = self.key(pos)
            if key not in done:
                done.add(key)
                for child in self.record(strategy, winner, key, pos):
                    visit(child)

        if self.holds(self.start):
            visit(self.start)
        return strategy

    def record(self, strategy: dict, winner: str, key, pos):
        """Record the winner's move at ``pos`` under ``key``, and yield the
        positions the opponent reaches against it where the condition holds:
        Duplicator's least winning reply to each move keyed ``(key, side,
        x)``, or Spoiler's first refuting move keyed ``key``."""
        if winner == DUPLICATOR:
            for side, x in self.options(pos):
                y = strategy[key, side, x] = self.answer(key, pos, side, x)
                yield self.step(pos, side, x, y)
            return
        side, x = strategy[key] = next(
            move for move in self.options(pos) if self.answer(key, pos, *move) is None
        )
        for y in self.fits(pos, side, x):
            yield self.step(pos, side, x, y)

    def replay(self, strategy: dict, winner: str) -> bool:
        """Play the recorded strategy against every opponent move, checking
        the winning condition from scratch at each position reached, and
        each memo key once.  A recorded move the arena does not offer fails
        the replay; a missing one raises."""
        done: set = set()

        def play(pos) -> bool:
            key = self.key(pos)
            if not self.holds_at(key, pos):
                return winner == SPOILER
            if key in done:
                return True
            children = self.follow(strategy, winner, key, pos)
            if not all(child is not None and play(child) for child in children):
                return False
            done.add(key)
            return True

        return play(self.start)

    def follow(self, strategy: dict, winner: str, key, pos):
        """Yield each position the opponent reaches against the move recorded
        under ``key``, or ``None`` for a move the arena does not offer."""
        options = self.options(pos)
        if winner == DUPLICATOR:
            for side, x in options:
                y = _recorded(strategy, (key, side, x))
                yield self.step(pos, side, x, y) if y in self.replies(pos, side) else None
            return
        move = _recorded(strategy, key) if options else None
        if move not in options:
            yield None
            return
        side, x = move
        for y in self.replies(pos, side):
            yield self.step(pos, side, x, y)


class _CarrierArena(_Arena):
    """The comonadic game ``G_k``: a position is a pair of plays, one in each
    hybrid comonad play tree (``comonads._play_tree``), and a move steps to
    an immediate extension."""

    def __init__(self, a: Structure, b: Structure, k: int):
        super().__init__(a, b, GameVariant.COMONADIC_GK, k)
        trees = [_play_tree(s, ComonadKind.HYBRID, k) for s in (a, b)]
        self.parts = tuple(parts for parts, _, _ in trees)
        self.children = tuple(children for _, _, children in trees)
        # the basepoint plays, first in each tree: G_k has one basepoint
        self.start = tuple(next(iter(parts)) for parts in self.parts)

    def key(self, pos):
        return pos

    def pairs(self, pos) -> tuple[tuple[str, str], ...]:
        a, b = self.parts
        return tuple(zip(a[pos[0]], b[pos[1]]))

    def pair_set(self, key, pos) -> frozenset:
        return frozenset(self.pairs(pos))

    def elements(self, i: int, moves):
        parts = self.parts[i]
        return [parts[move][-1] for move in moves]

    def options(self, pos) -> list[tuple[str, str]]:
        a_moves, b_moves = (c[p] for c, p in zip(self.children, pos))
        return [("A", s) for s in a_moves] + [("B", t) for t in b_moves]

    def replies(self, pos, side: str) -> tuple[str, ...]:
        i = 1 if side == "A" else 0
        return self.children[i][pos[i]]

    def step(self, pos, side: str, x, y):
        return _orient(side, x, y)


class _BijectionArena(_Arena):
    """The bounded bijection game: positions as in the sequence games, but
    each round Duplicator commits to a matching of the two accessible sets
    and Spoiler picks one of its pairs."""

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

    def value(self, key, pos) -> str:
        """Duplicator wins when the good pairs hold a perfect matching."""
        state = self.round(pos)
        if isinstance(state, str):
            return state
        acc_a, acc_b = state
        good = self.good(pos, acc_a, acc_b)
        return SPOILER if _hall_violator(acc_a, acc_b, good) else DUPLICATOR

    def record(self, strategy: dict, winner: str, key, pos):
        """Duplicator's least winning matching, or Spoiler's Hall pair ``(S,
        N)`` over the good pairs, keyed ``key``.  Spoiler's branches are each
        a in S sent outside N, one of which every matching contains."""
        state = self.round(pos)
        if isinstance(state, str):
            return
        acc_a, acc_b = state
        good = self.good(pos, acc_a, acc_b)
        if winner == DUPLICATOR:
            strategy[key] = branches = _least_matching(acc_a, acc_b, good)
        else:
            strategy[key] = s, n = _hall_violator(acc_a, acc_b, good)
            outside = [y for y in acc_b if y not in n]
            branches = [(x, y) for x in s for y in self.fits(pos, "A", x, outside)]
        for x, y in branches:
            yield self.step(pos, "A", x, y)

    def follow(self, strategy: dict, winner: str, key, pos):
        """A matching that is not a bijection of the accessible sets fails,
        as does a Hall pair outside them or whose N is not smaller than its
        S.  Every branch outside N is played, so N is not trusted to hold
        all the good partners of S."""
        state = self.round(pos)
        if isinstance(state, str):
            if state != winner:
                yield None
            return
        acc_a, acc_b = state
        entry = _recorded(strategy, key)
        if winner == DUPLICATOR:
            xs, ys = {x for x, _ in entry}, {y for _, y in entry}
            legal = len(entry) == len(acc_a) and xs == set(acc_a) and ys == set(acc_b)
            branches = entry
        else:
            s, n = entry
            legal = set(s) <= set(acc_a) and set(n) <= set(acc_b)
            legal = legal and len(set(n)) < len(set(s))
            branches = [(x, y) for x in s for y in acc_b if y not in n]
        if not legal:
            yield None
            return
        for x, y in branches:
            yield self.step(pos, "A", x, y)


def _hall_violator(
    rows: tuple[str, ...], cols: tuple[str, ...], good: set[tuple[str, str]]
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """``None`` when the good pairs hold a perfect matching of ``rows`` onto
    as many ``cols``, else the rows and the columns that the first failed
    augmenting search reached: the columns are every good partner of those
    rows, and one fewer.  Both come in their given order."""
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
        visited: set[str] = set()
        if not augment(r, visited):
            reached = {r} | {match_of_col[c] for c in visited}
            return tuple(x for x in rows if x in reached), tuple(
                c for c in cols if c in visited
            )
    return None


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
            and _hall_violator(rows[i + 1 :], tuple(d for d in free if d != c), good)
            is None
        )
        free.remove(c)
        matching.append((r, c))
    return tuple(matching)


def _arena(a: Structure, b: Structure, variant: GameVariant, k: int) -> _Arena:
    """The arena of the k-round ``variant`` game, once the two structures are
    checked to suit it."""
    _check_variant(a, b, variant, k)
    if variant is GameVariant.BIJECTION:
        return _BijectionArena(a, b, variant, k)
    if variant is GameVariant.COMONADIC_GK:
        return _CarrierArena(a, b, k)
    return _Arena(a, b, variant, k)


def solve(a: Structure, b: Structure, variant: GameVariant, k: int) -> GameResult:
    """Exact value and deterministic strategy of the k-round game."""
    return _arena(a, b, variant, k).solve()


def solve_Gk(a: Structure, b: Structure, k: int) -> GameResult:
    """The back-and-forth game played on the plays of the hybrid comonad:
    moves step to immediate extensions, and a position is winning when
    pairing the two plays elementwise yields a partial isomorphism (so
    repeated elements must correspond).  Only the two play trees are built,
    never a carrier; each holds at most ``comonads.MAX_PLAYS`` plays."""
    return _arena(a, b, GameVariant.COMONADIC_GK, k).solve()


def solve_bijection(a: Structure, b: Structure, k: int) -> GameResult:
    """Value of the m+k-round bounded bijection game: each round Duplicator
    commits to a bijection between the one-step-accessible sets (Spoiler wins
    on a cardinality clash), Spoiler picks an accessible element, and the
    accumulated correspondence must stay a partial isomorphism.  The
    strategy holds one matching or Hall pair per memo key, so it grows with
    the positions, not with the matchings."""
    return _arena(a, b, GameVariant.BIJECTION, k).solve()


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

    A pair of tuples that agree is fixed by their distinct elements, in
    order of first occurrence, so the memo is over pairs of distinct-element
    tuples and their rank.  A move onto the element at place i of one side
    has one agreeing reply, the element at place i of the other (a
    successor too, since the pair's atoms agree), and leaves the pair as it
    is, one rank lower.  A move onto a new element must be
    answered by a new one whose atoms through the new position
    (``Structure.atoms_at_last``) agree, each side's computed once per
    tuple; full atomic agreement is checked once, at the basepoints.
    The one-step extensions are each component's partners in the
    structure's index of each transition relation.
    """
    check_comparable(a, b)
    transitions = sorted(a.signature.transitions)

    def atom_step(s: Structure):
        @cache
        def atoms(tup: tuple[str, ...]):
            return frozenset(s.atoms_at_last(tup)[0])

        return atoms

    atoms_a, atoms_b = atom_step(a), atom_step(b)

    @cache
    def forth_and_back(da: tuple[str, ...], db: tuple[str, ...], rank: int) -> bool:
        """Whether a pair of distinct-element tuples whose atoms agree is in
        the rank-``rank`` relation."""
        if rank == 0:
            return True
        for name in transitions:
            succ_a, succ_b = a.partners(name), b.partners(name)
            for ea, eb in zip(da, db):
                xs, ys = succ_a[ea], succ_b[eb]
                # plain loops, not all(any(...)): one frame per rank
                for x in xs:
                    if x in da:
                        if forth_and_back(da, db, rank - 1):
                            continue
                        return False
                    ta = da + (x,)
                    want = atoms_a(ta)
                    for y in ys:
                        if y in db:
                            continue
                        tb = db + (y,)
                        if atoms_b(tb) == want and forth_and_back(ta, tb, rank - 1):
                            break
                    else:
                        return False
                for y in ys:
                    if y in db:
                        if forth_and_back(da, db, rank - 1):
                            continue
                        return False
                    tb = db + (y,)
                    want = atoms_b(tb)
                    for x in xs:
                        if x in da:
                            continue
                        ta = da + (x,)
                        if atoms_a(ta) == want and forth_and_back(ta, tb, rank - 1):
                            break
                    else:
                        return False
        return True

    da, db = tuple(dict.fromkeys(a.basepoints)), tuple(dict.fromkeys(b.basepoints))
    places_agree = list(map(da.index, a.basepoints)) == list(map(db.index, b.basepoints))
    roots_agree = places_agree and all(
        atoms_a(da[:i]) == atoms_b(db[:i]) for i in range(1, len(da) + 1)
    )
    return roots_agree and forth_and_back(da, db, k)


# -- traces ------------------------------------------------------------------------------


def trace_game(result: GameResult, a: Structure, b: Structure) -> str:
    """Line-per-round transcript of the principal play of a solved game on
    ``a`` and ``b``: the winner follows the extracted strategy, the loser
    probes with the least legal option."""
    variant, k = result.variant, result.k
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
            move = strategy.get(arena.key(pos))
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
            y = strategy[arena.key(pos), side, x]
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

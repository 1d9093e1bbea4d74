"""The constructive workspace argument, invariance checkers, and the
desk-scale pipeline turning an invariant sentence into a bounded equivalent.

The workspace construction pads a pointed structure A with q disjoint copies
of A and q copies of its radius-2^q ball N, then plays the copy-cat strategy
between (A + workspace) and (N + workspace).  The strategy is an explicit
online state machine: each move is answered by Case I (near the shared
ball: copy it), Case II (near an earlier matched element: apply the recorded
summand isomorphism), or Case III (far from everything: open a fresh summand
of the same type).  Radii halve each round, which keeps the matched blocks
separated enough for their union to stay a partial isomorphism.

``verify_workspace`` confirms the construction three ways: the replay of
the machine against every move sequence keeps the state invariants and the
partial-isomorphism condition, the strategy it records verifies as an EF
strategy, and the two padded structures have the same rank-q EF type,
computed in each structure separately.  The replay visits each distinct
machine state once and checks all six of its invariants literally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ResourceLimitError
from .structures import (
    Structure,
    ball_part,
    check_comparable,
    disjoint_union,
    gaifman_distance,
    is_partial_isomorphism,
    reachable_part,
    tagged_sum,
)
from . import syntax as sx
from .semantics import eval_fo
from .scott import characteristic_formula
from .games import DUPLICATOR, GameResult, GameVariant, sequence_key, verify_strategy

REAL_TAG = "A"

#: The largest workspace replay that ``verify_workspace`` starts: move
#: sequences of at most q moves over the elements of both padded structures,
#: counted before the replay begins.
MAX_REPLAY_SEQUENCES = 200_000


def _summand_tag(element: str) -> str:
    return element.split(":", 1)[0]


def build_workspace(a: Structure, q: int) -> tuple[Structure, Structure, Structure]:
    """The workspace C = q copies of A + q copies of the 2^q-ball N, and the
    two padded structures: left = A + C and right = N + C, pointed at A's
    basepoints (shared element ids, since N is an induced part of A).

    The workspace stays within the 2q|A| size bound.
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    radius = 2**q
    ball = ball_part(a, radius)
    copies = [(f"M{i}", a) for i in range(1, q + 1)]
    copies += [(f"N{i}", ball) for i in range(1, q + 1)]
    workspace = tagged_sum(copies, basepoints_from=None)
    left = tagged_sum([(REAL_TAG, a)] + copies, basepoints_from=0)
    right = tagged_sum([(REAL_TAG, ball)] + copies, basepoints_from=0)
    assert len(workspace) <= 2 * q * len(a)
    return workspace, left, right


@dataclass(frozen=True)
class WorkspaceStrategyState:
    """One position of the copy-cat strategy with its bookkeeping: the play
    pair, the near/far bipartitions on both sides, and the per-index summand
    isomorphism (a tag pair, left to right) for far elements."""

    left_play: tuple[str, ...]
    right_play: tuple[str, ...]
    c0: frozenset[str]
    c1: frozenset[str]
    d0: frozenset[str]
    d1: frozenset[str]
    rho: tuple[tuple[str, str] | None, ...]
    round: int
    q: int

    @property
    def radius(self) -> int:
        """Separation radius for the current round; halves each step."""
        return 2 ** (self.q - self.round)


class WorkspaceStrategy:
    """The online strategy between (A + C) and (N + C).

    Raises :class:`ResourceLimitError` when replaying it against every move
    sequence would pass ``MAX_REPLAY_SEQUENCES`` sequences."""

    def __init__(self, a: Structure, q: int):
        self.q = q
        self.ell = 2**q
        workspace, left, right = build_workspace(a, q)
        # refuse before the all-pairs distance tables are built
        width = len(left) + len(right)
        if _replay_size(width, q) > MAX_REPLAY_SEQUENCES:
            raise ResourceLimitError(
                f"the workspace replay of {q} rounds over {width} elements "
                f"exceeds {MAX_REPLAY_SEQUENCES} move sequences"
            )
        self.workspace = workspace
        self.left, self.right = left, right
        self.left_dist = gaifman_distance(left)
        self.right_dist = gaifman_distance(right)
        # (summand type, responding on the left) -> the summands that may
        # answer, least first: the real one is a copy of A on the left and
        # the ball N on the right
        self._fresh_tags = {
            (kind, on_left): ((REAL_TAG,) if (kind == "M") == on_left else ())
            + tuple(f"{kind}{i}" for i in range(1, q + 1))
            for kind in "MN"
            for on_left in (True, False)
        }

    def verify(self) -> bool:
        """:func:`verify_workspace` on this machine's workspace."""
        result, violations = _replay(self)
        if violations:
            return False
        if not verify_strategy(result, self.left, self.right, GameVariant.EF, self.q):
            return False
        return ef_types_agree(self.left, self.right, self.q)

    def initial_state(self) -> WorkspaceStrategyState:
        bps = self.left.basepoints
        return WorkspaceStrategyState(
            left_play=bps,
            right_play=self.right.basepoints,
            c0=frozenset(bps),
            c1=frozenset(),
            d0=frozenset(bps),
            d1=frozenset(),
            rho=tuple(None for _ in bps),
            round=0,
            q=self.q,
        )

    def _summand_type(self, tag: str, left_side: bool) -> str:
        if tag == REAL_TAG:
            return "M" if left_side else "N"
        return tag[0]

    def _fresh_partner(
        self, move_tag: str, move_on_left: bool, state: WorkspaceStrategyState
    ) -> tuple[str, str]:
        """Least-indexed unused summand of the same type on the responding
        side; returns the rho tag pair (left tag, right tag).

        The summands in use are read from ``rho``: a far index holds the tag
        pair of its elements, and every other index (a basepoint or a Case I
        copy) is near, at a finite distance from a basepoint, so its element
        lies in the real summand."""
        kind = self._summand_type(move_tag, move_on_left)
        respond_left = not move_on_left
        side = 0 if respond_left else 1
        used = {REAL_TAG if entry is None else entry[side] for entry in state.rho}
        for tag in self._fresh_tags[kind, respond_left]:
            if tag not in used:
                return (tag, move_tag) if respond_left else (move_tag, tag)
        raise AssertionError(
            "no unused summand available; cannot happen within q rounds"
        )

    def step(
        self, state: WorkspaceStrategyState, side: str, element: str
    ) -> WorkspaceStrategyState:
        """Answer one move.  ``side`` is "left" or "right"; ``element`` is any
        element of that structure."""
        if state.round >= self.q:
            raise ValueError("all rounds already played")
        on_left = side == "left"
        dist = self.left_dist if on_left else self.right_dist
        play = state.left_play if on_left else state.right_play
        near0 = state.c0 if on_left else state.d0
        near1 = state.c1 if on_left else state.d1
        half = 2 ** (self.q - state.round - 1)

        case = "III"
        witness = None
        row = dist.row(element)
        for i, prior in enumerate(play):
            if row[prior] <= half:
                if prior in near0:
                    case = "I"
                    witness = i
                    break
                if prior in near1:
                    case = "II"
                    witness = i
                    break

        if case == "I":
            response = element
            rho_entry = None
        else:
            tag, rest = element.split(":", 1)
            if case == "II":
                rho_entry = state.rho[witness]
            else:
                rho_entry = self._fresh_partner(tag, on_left, state)
            mine, theirs = rho_entry if on_left else rho_entry[::-1]
            assert mine == tag
            response = f"{theirs}:{rest}"

        new_left, new_right = (element, response) if on_left else (response, element)
        to_near0 = case == "I"
        return WorkspaceStrategyState(
            left_play=state.left_play + (new_left,),
            right_play=state.right_play + (new_right,),
            c0=state.c0 | {new_left} if to_near0 else state.c0,
            c1=state.c1 if to_near0 else state.c1 | {new_left},
            d0=state.d0 | {new_right} if to_near0 else state.d0,
            d1=state.d1 if to_near0 else state.d1 | {new_right},
            rho=state.rho + (rho_entry,),
            round=state.round + 1,
            q=self.q,
        )

    def invariant_violations(self, state: WorkspaceStrategyState) -> list[str]:
        """All six strategy invariants, checked literally."""
        out: list[str] = []
        m = len(self.left.basepoints)
        n = len(state.left_play)
        radius = state.radius
        reach = self.ell - radius
        left_bps = self.left.basepoints
        played_left = set(state.left_play)
        played_right = set(state.right_play)

        if state.c0 | state.c1 != played_left or state.c0 & state.c1:
            out.append("left bipartition does not split the played elements")
        if state.d0 | state.d1 != played_right or state.d0 & state.d1:
            out.append("right bipartition does not split the played elements")
        if not set(left_bps) <= (state.c0 & state.d0):
            out.append("basepoints escape the near parts")

        for e in sorted(state.c0, key=self.left.position):
            if self.left_dist.set_distance([e], left_bps) > reach:
                out.append(f"near element {e!r} outside the {reach}-ball (left)")
        for e in sorted(state.d0, key=self.right.position):
            if self.right_dist.set_distance([e], left_bps) > reach:
                out.append(f"near element {e!r} outside the {reach}-ball (right)")
        for i in range(n):
            if (state.left_play[i] in state.c0) != (state.right_play[i] in state.d0):
                out.append(f"index {i} is near on one side only")

        near_left = [e for e in state.left_play if e in state.c0]
        near_right = [e for e in state.right_play if e in state.d0]
        if near_left != near_right:
            out.append("matched near subsequences differ")

        if self.left_dist.set_distance(state.c0, state.c1) <= radius:
            out.append("left separation violated")
        if self.right_dist.set_distance(state.d0, state.d1) <= radius:
            out.append("right separation violated")

        for i in range(m, n):
            x, y = state.left_play[i], state.right_play[i]
            if x in state.c1 and y in state.d1:
                entry = state.rho[i]
                if entry is None:
                    out.append(f"far index {i} lacks a summand isomorphism")
                    continue
                lt, rt = entry
                if _summand_tag(x) != lt or _summand_tag(y) != rt:
                    out.append(f"far index {i} not matched by its isomorphism tags")
                if self._summand_type(lt, True) != self._summand_type(rt, False):
                    out.append(f"far index {i} pairs summands of different types")
                if x.split(":", 1)[1] != y.split(":", 1)[1]:
                    out.append(f"far index {i} not related by the canonical map")

        for i in range(m, n):
            for j in range(m, n):
                xi, xj = state.left_play[i], state.left_play[j]
                yi, yj = state.right_play[i], state.right_play[j]
                if xi in state.c1 and xj in state.c1 and yi in state.d1 and yj in state.d1:
                    close = (
                        self.left_dist.distance(xi, xj) <= radius
                        or self.right_dist.distance(yi, yj) <= radius
                    )
                    if close and state.rho[i] != state.rho[j]:
                        out.append(f"nearby far indices {i},{j} use different isomorphisms")
        return out

def _replay_size(width: int, q: int) -> int:
    """The move sequences of at most ``q`` moves over ``width`` elements, or
    the first partial sum past ``MAX_REPLAY_SEQUENCES``."""
    total, level = 0, 1
    for _ in range(q + 1):
        total += level
        if total > MAX_REPLAY_SEQUENCES:
            break
        level *= width
    return total


def _replay(machine: WorkspaceStrategy):
    """Replay the machine against every move sequence; see
    :func:`workspace_game_result`."""
    q, left, right = machine.q, machine.left, machine.right
    strategy: dict = {}
    violations: list[str] = []
    # the partial-isomorphism check depends on the pair set alone; the
    # invariants depend on the order of play and are checked once per state
    iso: dict[frozenset, bool] = {}
    # each state replayed, with the slice of ``violations`` its subtree added
    seen: dict[WorkspaceStrategyState, tuple[int, int]] = {}

    def record(state: WorkspaceStrategyState):
        done = seen.get(state)
        if done is not None:
            violations.extend(violations[done[0] : done[1]])
            return
        start = len(violations)
        pairs = tuple(zip(state.left_play, state.right_play))
        key = sequence_key(pairs)
        broken = False
        for broken_clause in machine.invariant_violations(state):
            violations.append(f"at {pairs!r}: {broken_clause}")
            broken = True
        pair_set = key[0]
        if pair_set not in iso:
            iso[pair_set] = is_partial_isomorphism(pair_set, left, right)
        if not iso[pair_set]:
            violations.append(f"at {pairs!r}: not a partial isomorphism")
            broken = True
        if not broken and state.round < q:
            for side, structure in (("left", left), ("right", right)):
                game_side = "A" if side == "left" else "B"
                for element in structure.universe:
                    nxt = machine.step(state, side, element)
                    response = (
                        nxt.right_play[-1] if side == "left" else nxt.left_play[-1]
                    )
                    strategy.setdefault((key, game_side, element), response)
                    record(nxt)
        seen[state] = (start, len(violations))

    record(machine.initial_state())
    seen.clear()
    iso.clear()
    return GameResult(DUPLICATOR, GameVariant.EF, q, lambda: strategy), violations


def workspace_game_result(a: Structure, q: int):
    """Exhaustively replay the strategy against every move sequence of length
    q, recording responses as a game strategy.

    Returns (result, violations): an EF-shaped :class:`GameResult` for the
    game between left and right, plus any invariant or winning-condition
    violations found during the replay (empty for a correct build).

    Each distinct state's invariants are all checked literally.  The
    machine is a pure function of its state, so the replay expands each
    distinct state once and, on a later visit, adds again the violations its
    first visit found; the violation list, order included, is that of
    replaying every sequence.  The strategy is keyed like the games' (see
    :func:`games.sequence_key`): each key keeps the answers of the first
    sequence that reaches it.  As every child of every state visited is
    expanded, each recorded answer leads to a recorded key, or to a pair set
    the replay reports.
    Raises :class:`ResourceLimitError` when the move sequences outnumber
    ``MAX_REPLAY_SEQUENCES``.
    """
    return _replay(WorkspaceStrategy(a, q))


def verify_workspace(a: Structure, q: int) -> bool:
    """Exhaustive validation of the workspace construction, three ways:

    * the replay of the copy-cat machine against every move sequence (each
      distinct machine state visited once) keeps the partial-isomorphism
      condition and the state invariants;
    * the strategy it records verifies as an EF strategy (``verify_strategy``);
    * the two padded structures have the same rank-q EF type
      (:func:`ef_types_agree`), so they are q-round equivalent by a
      procedure that shares no code with the game solver.

    The workspace is built once, by the machine.  Raises
    :class:`ResourceLimitError` when the replay would pass
    ``MAX_REPLAY_SEQUENCES`` move sequences."""
    return WorkspaceStrategy(a, q).verify()


# -- EF types -------------------------------------------------------------------------


def ef_types_agree(a: Structure, b: Structure, k: int) -> bool:
    """Whether the basepoint tuples of ``a`` and ``b`` have the same rank-k
    EF type, which by the Ehrenfeucht–Fraïssé theorem holds exactly when
    Duplicator wins the k-round EF game from the basepoint pairs.

    A tuple's rank-0 type is its atomic type; its rank-r type is its atomic
    type with the set of rank-(r-1) types of its one-element extensions
    (Hintikka types; Libkin, *Elements of Finite Model Theory*, ch. 3).  Each
    structure's types are computed on its own, interned in one table both
    share.  Independent of the game engine."""
    if k < 0:
        raise ValueError(f"round count must be non-negative, got {k}")
    check_comparable(a, b)
    table: dict = {}
    return _ef_type(a, k, table) == _ef_type(b, k, table)


def _ef_type(s: Structure, k: int, table: dict) -> int:
    """The interned rank-k type of ``s``'s basepoint tuple.

    A tuple is carried as its distinct elements in order of first
    occurrence.  Its atomic type is interned from its prefix's: an element
    repeating an earlier one adds that element's position, and a new element
    adds its atoms with the earlier ones (``Structure.atoms_at_last``)."""

    def intern(key) -> int:
        return table.setdefault(key, len(table))

    def extend(seen: tuple, atomic: int, e: str) -> tuple[tuple, int]:
        if e in seen:
            return seen, intern((atomic, seen.index(e)))
        seen += (e,)
        return seen, intern((atomic, frozenset(s.atoms_at_last(seen)[0])))

    def ef_type(seen: tuple, atomic: int, rank: int) -> int:
        if rank == 0:
            return atomic
        below = frozenset(
            ef_type(*extend(seen, atomic, e), rank - 1) for e in s.universe
        )
        return intern((rank, atomic, below))

    seen, atomic = (), intern(())
    for e in s.basepoints:
        seen, atomic = extend(seen, atomic, e)
    return ef_type(seen, atomic, k)


# -- invariance ---------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceEntry:
    index: int
    partner: int | None  # other corpus structure for disjoint extensions
    original: bool
    transformed: bool

    @property
    def ok(self) -> bool:
        return self.original == self.transformed


@dataclass(frozen=True)
class InvarianceReport:
    notion: str
    entries: tuple[InvarianceEntry, ...]

    @property
    def invariant(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def counterexamples(self) -> tuple[InvarianceEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)


def check_invariance(
    f: sx.FOFormula,
    notion: str,
    corpus: Sequence[Structure],
) -> InvarianceReport:
    """Compare a sentence's truth on each corpus structure with its truth on
    the transformed structure.  Notions: ``generated:k`` (reachable part),
    ``ball:k`` (Gaifman ball part), ``disjoint`` (disjoint union with every
    same-vocabulary corpus partner)."""
    if sx.free_vars(f):
        raise ValueError(
            f"invariance needs a sentence; free variables {sorted(sx.free_vars(f))}"
        )
    name, _, arg = notion.partition(":")
    entries: list[InvarianceEntry] = []
    if name in ("generated", "ball"):
        if not (arg.isascii() and arg.isdigit()):
            raise ValueError(f"notion {notion!r}: the radius must be a natural number")
        k = int(arg)
        transform = reachable_part if name == "generated" else ball_part
        for i, s in enumerate(corpus):
            original = eval_fo(f, s)
            transformed = eval_fo(f, transform(s, k))
            entries.append(InvarianceEntry(i, None, original, transformed))
    elif name == "disjoint":
        for i, s in enumerate(corpus):
            original = eval_fo(f, s)
            for j, partner in enumerate(corpus):
                if not s.signature.same_vocabulary(partner.signature):
                    continue
                summed = disjoint_union(s, partner)
                entries.append(
                    InvarianceEntry(i, j, original, eval_fo(f, summed))
                )
    else:
        raise ValueError(f"unknown invariance notion {notion!r}")
    return InvarianceReport(notion, tuple(entries))


def synthesize_bounded_equivalent(
    f: sx.FOFormula, k: int, corpus: Sequence[Structure]
) -> sx.FOFormula:
    """Corpus-relative bounded equivalent of a sentence invariant under
    k-generated substructures: the disjunction of the rank q*2^max(k,q)
    characteristic formulas of the corpus models, where q is the sentence's
    quantifier rank.

    The output is only guaranteed to agree with the input on the given
    corpus.  Agreement on all structures would need the sentence to be
    invariant everywhere, which no finite check can establish; callers must
    label the result as corpus-relative.
    """
    q = sx.quantifier_rank(f)
    report = check_invariance(f, f"generated:{k}", corpus)
    if not report.invariant:
        bad = report.counterexamples[0]
        raise ValueError(
            f"sentence is not generated:{k}-invariant on the corpus "
            f"(structure {bad.index})"
        )
    rank = q * 2 ** max(k, q)
    disjuncts: list[sx.FOFormula] = []
    for s in corpus:
        if eval_fo(f, s):
            disjuncts.append(characteristic_formula(s, rank))
    return sx.disj_all(list(dict.fromkeys(disjuncts)))

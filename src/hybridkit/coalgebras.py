"""Generated tree covers, their correspondence with comonad coalgebras,
generated tree depth and the coalgebra number, and the small-scale path /
embedding / open-map predicates.

A cover is stored as a parent map (the covering relation); the order is its
reflexive-transitive closure.  For an m-pointed structure the basepoints must
form the chain ``a1 < ... < am`` with everything else in a tree rooted at the
last basepoint.  Heights count nodes, and the bound for resource k is
``height - m <= k`` (for one basepoint this is the familiar ``height <= k+1``).

Covers are searched by construction, not by filtering parent maps.  A
transition predecessor is always Gaifman-adjacent, so below any node the
elements still to place split into Gaifman components that subtrees cannot
share.  ``enumerate_generated_covers`` builds each cover once, top-down over
set partitions of those components; ``generated_tree_depth`` is the
elimination-tree recursion of treedepth, memoized on (remaining set, set
seen from the branch) within one call.  ``is_generated_tree_cover`` and the
coalgebra search stay independent of both.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator, Mapping

from .errors import InvalidStructureError, ResourceLimitError
from .structures import (
    INF,
    Structure,
    gaifman_graph,
    is_homomorphism,
    is_partial_isomorphism,
)
from .comonads import ComonadKind, ComonadStructure, build_comonad


class TreeCover:
    """A tree order on a structure's universe, stored via the parent map."""

    def __init__(self, base: Structure, parent: Mapping[str, str]):
        self.base = base
        self.parent = dict(parent)
        for child, par in self.parent.items():
            for el, role in ((child, "child"), (par, "parent")):
                if el not in base._pos:
                    raise InvalidStructureError(
                        f"parent.{child}: {role} {el!r} is not in the universe"
                    )
        self._branches: dict[str, tuple[str, ...]] = {}

    def __eq__(self, other):
        if not isinstance(other, TreeCover):
            return NotImplemented
        return self.base == other.base and self.parent == other.parent

    def __hash__(self):
        return hash((self.base, tuple(sorted(self.parent.items()))))

    def __repr__(self):
        return f"TreeCover(parent={self.parent!r})"

    def roots(self) -> tuple[str, ...]:
        return tuple(e for e in self.base.universe if e not in self.parent)

    def branch(self, element: str) -> tuple[str, ...]:
        """Ancestor chain listed root-to-element; raises on a parent cycle."""
        got = self._branches.get(element)
        if got is not None:
            return got
        chain = [element]
        seen = {element}
        cur = element
        while cur in self.parent:
            cur = self.parent[cur]
            if cur in seen:
                raise ValueError(f"parent map has a cycle through {cur!r}")
            seen.add(cur)
            chain.append(cur)
        out = tuple(reversed(chain))
        self._branches[element] = out
        return out

    def le(self, x: str, y: str) -> bool:
        return x in self.branch(y)

    def comparable(self, x: str, y: str) -> bool:
        return self.le(x, y) or self.le(y, x)

    def height(self) -> int:
        return max((len(self.branch(e)) for e in self.base.universe), default=0)


def is_generated_tree_cover(t: TreeCover, k_bound: int | None = None) -> bool:
    """All cover conditions: a tree order rooted at the basepoint chain,
    Gaifman-adjacent elements comparable, and every element beyond the chain
    seen from a strict predecessor through a transition relation.  With
    ``k_bound``, additionally ``height - m <= k_bound``."""
    base = t.base
    m = base.signature.num_basepoints
    if m < 1:
        return False
    bps = base.basepoints
    if len(set(bps)) != m:
        return False
    branches = {e: t.branch(e) for e in base.universe}
    if t.roots() != (bps[0],):
        return False
    for i in range(1, m):
        if t.parent.get(bps[i]) != bps[i - 1]:
            return False
    # nothing except the next basepoint may hang below a non-final basepoint
    for child, par in t.parent.items():
        for i in range(m - 1):
            if par == bps[i] and child != bps[i + 1]:
                return False
    adjacency = gaifman_graph(base)
    for x in base.universe:
        for y in adjacency[x]:
            if not t.comparable(x, y):
                return False
    chain = set(bps)
    for e in base.universe:
        if e not in chain and e not in base.accessible(branches[e][:-1]):
            return False
    if k_bound is not None and t.height() - m > k_bound:
        return False
    return True


class Coalgebra:
    """A branch assignment into a comonad carrier over the same base."""

    def __init__(self, target: ComonadStructure, alpha: Mapping[str, str]):
        self.target = target
        self.alpha = dict(alpha)

    @property
    def base(self) -> Structure:
        return self.target.base

    def __eq__(self, other):
        if not isinstance(other, Coalgebra):
            return NotImplemented
        return self.target == other.target and self.alpha == other.alpha

    def __repr__(self):
        return f"Coalgebra(alpha={self.alpha!r})"


def default_kind(s: Structure) -> ComonadKind:
    return ComonadKind.HYBRID if s.signature.is_unimodal() else ComonadKind.BOUNDED


def cover_to_coalgebra(t: TreeCover, k: int) -> Coalgebra:
    """Read each element's root-to-element branch as its play in the
    carrier of the base's ``default_kind``."""
    if not is_generated_tree_cover(t, k):
        raise ValueError("not a generated tree cover within the height bound")
    base = t.base
    target = build_comonad(base, default_kind(base), k, with_I=False)
    play_of = {parts: play for play, parts in target.parts.items()}
    alpha = {}
    for e in base.universe:
        play = play_of.get(t.branch(e))
        if play is None:
            raise ValueError(f"branch of {e!r} is not a play of the carrier")
        alpha[e] = play
    return Coalgebra(target, alpha)


def coalgebra_to_cover(c: Coalgebra) -> TreeCover:
    """Recover the cover: the parent of an element is the next-to-last entry
    of its play."""
    report = check_coalgebra_laws(c)
    if not report.all_pass:
        raise ValueError(f"coalgebra laws fail: {report.failures[0]}")
    parts = c.target.parts
    parent = {
        e: parts[play][-2] for e, play in c.alpha.items() if len(parts[play]) > 1
    }
    return TreeCover(c.base, parent)


@dataclass(frozen=True)
class CoalgebraLawReport:
    membership: bool  # every branch is a play of the carrier
    counit_law: bool  # last element of the branch is the element itself
    comultiplication_law: bool  # prefixes of a branch are the branches of its entries
    homomorphism: bool  # the assignment preserves relations and basepoints
    failures: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.membership
            and self.counit_law
            and self.comultiplication_law
            and self.homomorphism
        )


def check_coalgebra_laws(c: Coalgebra) -> CoalgebraLawReport:
    base, alpha = c.base, c.alpha
    parts, prefixes = c.target.parts, c.target.prefixes
    stray = next((e for e in base.universe if alpha.get(e) not in parts), None)
    if stray is not None:
        failure = (
            f"branch of {stray!r} is not a play of the carrier"
            if stray in alpha
            else f"no play assigned to {stray!r}"
        )
        return CoalgebraLawReport(False, False, False, False, (failure,))

    failures: list[str] = []
    counit = next((e for e in base.universe if parts[alpha[e]][-1] != e), None)
    if counit is not None:
        failures.append(f"counit law fails at {counit!r}")
    comult = next(
        (
            (e, entry)
            for e in base.universe
            for entry, prefix in zip(parts[alpha[e]], prefixes[alpha[e]])
            if alpha.get(entry) != prefix
        ),
        None,
    )
    if comult is not None:
        failures.append(
            f"comultiplication law fails at {comult[0]!r} (entry {comult[1]!r})"
        )
    hom = is_homomorphism(alpha, base, c.target.carrier)
    if not hom:
        failures.append("assignment is not a homomorphism into the carrier")
    return CoalgebraLawReport(
        True, counit is None, comult is None, hom, tuple(failures)
    )


# -- enumeration -----------------------------------------------------------------


def _cover_search(s: Structure) -> tuple[list[int], list[int], int, int] | None:
    """What both cover searches need, over bitmasks of universe positions:
    each element's Gaifman neighbours and transition successors, the
    elements below the basepoint chain, and those of them that have a
    transition predecessor on the chain.  None when no cover can exist."""
    bps = s.basepoints
    if not bps or len(set(bps)) != len(bps):
        return None
    pos = s._pos
    adjacency = gaifman_graph(s)
    near = [sum(1 << pos[y] for y in adjacency[x]) for x in s.universe]
    succ = [sum(1 << pos[v] for v in s.accessible((u,))) for u in s.universe]
    chain = sum(1 << pos[b] for b in bps)
    rest = ((1 << len(s.universe)) - 1) & ~chain
    seen = 0
    for b in bps:
        seen |= succ[pos[b]]
    return near, succ, rest, seen & rest


def _components(d: int, near: list[int]) -> list[int]:
    """The Gaifman components of the element set ``d``, lowest element first."""
    out = []
    while d:
        comp = frontier = d & -d
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= near[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & d & ~comp
            comp |= frontier
        out.append(comp)
        d &= ~comp
    return out


def _bits(d: int) -> Iterator[int]:
    """Positions of the elements of ``d``, in universe order."""
    while d:
        low = d & -d
        yield low.bit_length() - 1
        d ^= low


def enumerate_generated_covers(
    s: Structure, k_bound: int | None = None
) -> Iterator[TreeCover]:
    """All generated tree covers (within the height bound), each once.

    The elements off the basepoint chain form a forest below its last
    basepoint, built top-down.  Gaifman-adjacent elements must be
    comparable, so below any node each child subtree is a union of Gaifman
    components of the elements still to place: the search runs over set
    partitions of those components, and the root of each block must have a
    transition predecessor on its branch.  The height budget prunes a
    branch as soon as it runs out."""
    search = _cover_search(s)
    if search is None:
        return
    near, succ, rest, seen0 = search
    budget0 = rest.bit_count() if k_bound is None else k_bound
    if budget0 < 0:
        return

    @cache
    def forests(d: int, node: int, seen: int, budget: int) -> list[tuple]:
        """Every forest on ``d`` hung below ``node``, as (child, parent)
        position pairs; ``seen`` holds the elements of ``d`` with a
        transition predecessor on the branch down to ``node``."""
        if not d:
            return [()]
        if budget <= 0 or not seen:
            return []
        first, *others = _components(d, near)
        out = []
        for pick in range(1 << len(others)):
            block = first
            for i, comp in enumerate(others):
                if pick >> i & 1:
                    block |= comp
            below = trees(block, node, seen & block, budget)
            if below:
                for f in forests(d & ~block, node, seen & ~block, budget):
                    out.extend(t + f for t in below)
        return out

    @cache
    def trees(block: int, node: int, seen: int, budget: int) -> list[tuple]:
        """Every tree on ``block`` hung below ``node``."""
        out = []
        for r in _bits(seen):
            below = block & ~(1 << r)
            for f in forests(below, r, (seen | succ[r]) & below, budget - 1):
                out.append(((r, node),) + f)
        return out

    universe, bps = s.universe, s.basepoints
    fixed = {bps[i]: bps[i - 1] for i in range(1, len(bps))}
    for f in forests(rest, s.position(bps[-1]), seen0, budget0):
        parent = dict(fixed)
        parent.update((universe[c], universe[p]) for c, p in sorted(f))
        yield TreeCover(s, parent)


def enumerate_coalgebras(
    s: Structure, kind: ComonadKind | None = None, k: int = 1
) -> Iterator[Coalgebra]:
    """All law-abiding coalgebras into the resource-k carrier, by assigning
    each element a play ending in it and pruning on branch consistency.
    Independent of the cover enumeration."""
    kind = kind or default_kind(s)
    target = build_comonad(s, kind, k, with_I=False)
    parts, prefixes = target.parts, target.prefixes
    ends_with: dict[str, list[str]] = {e: [] for e in s.universe}
    for play in target.plays:
        ends_with[parts[play][-1]].append(play)

    order = list(s.universe)
    seed = dict(zip(s.basepoints, target.carrier.basepoints))

    def assign(i: int, alpha: dict[str, str]) -> Iterator[dict[str, str]]:
        if i == len(order):
            yield dict(alpha)
            return
        e = order[i]
        if e in alpha:
            yield from assign(i + 1, alpha)
            return
        for play in ends_with[e]:
            added = []
            ok = True
            for entry, want in zip(parts[play], prefixes[play]):
                if entry in alpha:
                    if alpha[entry] != want:
                        ok = False
                        break
                else:
                    alpha[entry] = want
                    added.append(entry)
            if ok:
                yield from assign(i + 1, alpha)
            for entry in added:
                del alpha[entry]
        return

    for alpha in assign(0, dict(seed)):
        cand = Coalgebra(target, alpha)
        if check_coalgebra_laws(cand).all_pass:
            yield cand


def generated_tree_depth(s: Structure) -> float:
    """Minimum height over all generated tree covers; INF when none exists.

    Each Gaifman component of the elements still to place can take its own
    subtree, and joining components under one root only adds height, so the
    depth below the basepoint chain is ``depth(D, seen)``: the maximum over
    the components K of D of the minimum, over roots c in K that have a
    transition predecessor on the branch (``seen``), of
    ``1 + depth(K - c, seen')``.  It is 0 on the empty set and INF for a
    component with no candidate root."""
    search = _cover_search(s)
    if search is None:
        return INF
    near, succ, rest, seen0 = search

    @cache
    def component_depth(comp: int, seen: int) -> float:
        best = INF
        for c in _bits(seen):
            below = comp & ~(1 << c)
            best = min(best, 1 + depth(below, (seen | succ[c]) & below))
        return best

    def depth(d: int, seen: int) -> float:
        worst = 0
        for comp in _components(d, near):
            worst = max(worst, component_depth(comp, seen & comp))
            if worst == INF:
                break
        return worst

    return len(s.basepoints) + depth(rest, seen0)


def coalgebra_number(s: Structure, kind: ComonadKind | None = None) -> float:
    """Least resource k admitting a coalgebra; INF when there is none for any
    k.  Computed by direct coalgebra search so it can be checked against the
    tree-depth route independently."""
    kind = kind or default_kind(s)
    if not s.universe:
        return INF
    for k in range(1, len(s.universe) + 1):
        for _ in enumerate_coalgebras(s, kind, k):
            return k
    return INF


# -- paths, embeddings, open maps ----------------------------------------------------


MAX_EMBEDDING_SIZE = 64


def check_open_pathwise_embedding(
    f: Mapping[str, str], t: TreeCover, u: TreeCover
) -> bool:
    """Whether a cover morphism is an open pathwise embedding.

    Path embeddings into a cover correspond to its branches, so the pathwise
    condition asks every branch to map injectively preserving and reflecting
    relations, and openness asks every branch extension of an image to lift.
    Inputs are deliberately small: a structure of more than
    ``MAX_EMBEDDING_SIZE`` elements is refused.
    """
    if len(t.base) > MAX_EMBEDDING_SIZE or len(u.base) > MAX_EMBEDDING_SIZE:
        raise ResourceLimitError(
            f"open-map check limited to structures of size {MAX_EMBEDDING_SIZE}"
        )
    for e in t.base.universe:
        if e not in f:
            raise ValueError(f"map is not total: no image for {e!r}")
    if not is_homomorphism(f, t.base, u.base):
        raise ValueError("not a basepoint-preserving homomorphism")
    for child, par in t.parent.items():
        if u.parent.get(f[child]) != f[par]:
            raise ValueError("map does not preserve the covering relation")

    @cache
    def image(x: str) -> tuple[str, ...]:
        return tuple(f[e] for e in t.branch(x))

    pathwise = all(
        is_partial_isomorphism(tuple(zip(t.branch(x), image(x))), t.base, u.base)
        for x in t.base.universe
    )
    return pathwise and all(
        any(t.le(x, w) and image(w) == u.branch(z) for w in t.base.universe)
        for x in t.base.universe
        for z in u.base.universe
        if u.le(f[x], z)
    )


# -- cover files ------------------------------------------------------------------------


def cover_to_data(t: TreeCover) -> dict:
    return {"parent": dict(sorted(t.parent.items()))}

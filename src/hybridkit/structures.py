"""Finite relational structures with basepoints, and the substructure operators on them.

A :class:`Structure` is a finite relational structure over a :class:`Signature`
together with an m-tuple of basepoints (m may be 0).  Element ids are opaque
strings; the universe is an ordered tuple, and that order fixes deterministic
iteration and tie-breaking everywhere downstream.  Relation tuples are stored
sorted, so structure equality is syntactic.

The module also provides the atom codes the back-and-forth games compare,
the partial-map test ``maps_into`` behind the existential games and
``is_homomorphism``, the Gaifman graph and its path metric, disjoint unions,
and the two idempotent substructure operators: the reachable part (directed
transition paths from the basepoints, bounded by k) and the ball part
(Gaifman balls of radius k around the basepoints).  Both are one walk
outward from the basepoints, level by level while the level's distance is
at most k: over ``accessible`` for the reachable part, over the cached
``gaifman_graph`` for the ball.
"""
from __future__ import annotations

import json
from itertools import product
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InvalidStructureError
from .syntax import is_relation_name

#: Distinguished infinite distance / unbounded resource value.  Arithmetic
#: and comparisons saturate the way extended naturals should.
INF = float("inf")

RESERVED_IDENTITY = "I"


def _is_natural(value: object) -> bool:
    """A non-negative int that is not a bool: JSON ``true`` loads as ``True``,
    which ``isinstance(True, int)`` would accept as 1."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


class Signature:
    """Relation symbols with arities, a transition sub-vocabulary, and a basepoint count.

    ``transitions`` must be binary relation symbols; they are the relations
    that guard bounded quantifiers and game moves.  A symbol name is one a
    formula can use (``syntax.is_relation_name``: an identifier other than a
    keyword), so every formula over the signature prints text that parses
    back.  The symbol name ``I`` is reserved for the injected identity
    relation and cannot appear in user signatures.
    """

    __slots__ = ("relations", "transitions", "num_basepoints")

    def __init__(
        self,
        relations: Mapping[str, int],
        transitions: Iterable[str] = (),
        num_basepoints: int = 1,
        _allow_reserved: bool = False,
    ):
        rels = dict(relations)
        for name, arity in rels.items():
            if not is_relation_name(name):
                raise InvalidStructureError(
                    f"signature.relations.{name}: not a relation name the parser reads"
                )
            if not _is_natural(arity) or arity < 1:
                raise InvalidStructureError(
                    f"signature.relations.{name}: arity must be a positive integer, got {arity!r}"
                )
            if name == RESERVED_IDENTITY and not _allow_reserved:
                raise InvalidStructureError(
                    "signature.relations.I: the symbol name 'I' is reserved"
                )
        trans = frozenset(transitions)
        for name in sorted(trans):
            if name not in rels:
                raise InvalidStructureError(
                    f"signature.transitions: {name!r} is not a relation symbol"
                )
            if rels[name] != 2:
                raise InvalidStructureError(
                    f"signature.transitions: {name!r} has arity {rels[name]}, transitions must be binary"
                )
        if not _is_natural(num_basepoints):
            raise InvalidStructureError(
                f"signature.num_basepoints: must be a natural number, got {num_basepoints!r}"
            )
        self.relations: dict[str, int] = rels
        self.transitions: frozenset[str] = trans
        self.num_basepoints: int = num_basepoints

    def _key(self):
        return (
            tuple(sorted(self.relations.items())),
            tuple(sorted(self.transitions)),
            self.num_basepoints,
        )

    def __eq__(self, other):
        if not isinstance(other, Signature):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Signature({self.relations!r}, transitions={sorted(self.transitions)!r}, "
            f"num_basepoints={self.num_basepoints})"
        )

    def is_unimodal(self) -> bool:
        """Single transition relation and exactly one basepoint."""
        return len(self.transitions) == 1 and self.num_basepoints == 1

    def with_num_basepoints(self, m: int) -> "Signature":
        return Signature(self.relations, self.transitions, m, _allow_reserved=True)

    def same_vocabulary(self, other: "Signature") -> bool:
        """Equal relation symbols/arities and transitions, ignoring basepoint count."""
        return (
            self.relations == other.relations and self.transitions == other.transitions
        )


class Structure:
    """A finite relational structure with an m-tuple of basepoints.

    Immutable after construction; all operations in this package are pure.
    Its index is built piece by piece on first use and cached: the relation
    frozensets behind ``has_tuple`` (``tuple_set``), the tuples through each
    element (``tuples_at``), the partners of each element in one binary
    relation (``partners``), successors and predecessors over all
    transitions, merged from those partners (``accessible``), and the
    atom-code table (``atom_codes``): one small int per element and per
    ordered pair of elements for the atoms on exactly those elements, as
    tuples of ints indexed by universe position.  It also keeps the last
    comonad carrier built over it (see ``comonads.build_comonad``), so that
    asking again for the same kind, k and ``with_I`` reuses it.
    ``atoms_at_last`` is the one atom step along a tuple or play, shared by
    the independent checks and the carrier lift; it returns atoms only.  The
    game arena reads the atom codes instead.
    """

    __slots__ = (
        "signature",
        "universe",
        "relations",
        "basepoints",
        "_pos",
        "_tuple_sets",
        "_steps",
        "_partners",
        "_tuples_at",
        "_atoms",
        "_gaifman",
        "_carrier",
    )

    def __init__(
        self,
        signature: Signature,
        universe: Sequence[str],
        relations: Mapping[str, Iterable[Sequence[str]]],
        basepoints: Sequence[str] = (),
    ):
        uni = tuple(universe)
        pos: dict[str, int] = {}
        for i, el in enumerate(uni):
            if not isinstance(el, str):
                raise InvalidStructureError(
                    f"universe[{i}]: element ids must be strings, got {el!r}"
                )
            if el in pos:
                raise InvalidStructureError(f"universe[{i}]: duplicate element {el!r}")
            pos[el] = i
        canon: dict[str, tuple[tuple[str, ...], ...]] = {}
        for name in relations:
            if name not in signature.relations:
                raise InvalidStructureError(
                    f"relations.{name}: not a relation symbol of the signature"
                )
        for name, arity in signature.relations.items():
            tuples = []
            for j, tup in enumerate(relations.get(name, ())):
                tup = tuple(tup)
                if len(tup) != arity:
                    raise InvalidStructureError(
                        f"relations.{name}[{j}]: expected arity {arity}, got {len(tup)}"
                    )
                for p, el in enumerate(tup):
                    if el not in pos:
                        raise InvalidStructureError(
                            f"relations.{name}[{j}][{p}]: {el!r} is not in the universe"
                        )
                tuples.append(tup)
            canon[name] = tuple(sorted(set(tuples)))
        bps = tuple(basepoints)
        if len(bps) != signature.num_basepoints:
            raise InvalidStructureError(
                f"basepoints: expected {signature.num_basepoints} basepoints, got {len(bps)}"
            )
        for i, el in enumerate(bps):
            if el not in pos:
                raise InvalidStructureError(
                    f"basepoints[{i}]: {el!r} is not in the universe"
                )
        self.signature = signature
        self.universe = uni
        self.relations = canon
        self.basepoints = bps
        self._pos = pos
        self._tuple_sets: dict[str, frozenset[tuple[str, ...]]] = {}
        # successors and predecessors over every transition relation
        self._steps: tuple[dict[str, tuple[str, ...]], ...] | None = None
        # (relation, backward) -> element -> its partners in universe order
        self._partners: dict[tuple[str, bool], dict[str, tuple[str, ...]]] = {}
        self._tuples_at: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] | None = (
            None
        )
        self._atoms: tuple | None = None
        self._gaifman: MappingProxyType | None = None
        # (key, carrier, parts, prefixes, children) of the last carrier built
        self._carrier: tuple | None = None

    # -- identity -----------------------------------------------------------

    def _key(self):
        return (
            self.signature,
            self.universe,
            tuple(sorted(self.relations.items())),
            self.basepoints,
        )

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        rels = {k: list(v) for k, v in self.relations.items() if v}
        return (
            f"Structure(universe={list(self.universe)!r}, relations={rels!r}, "
            f"basepoints={list(self.basepoints)!r})"
        )

    def __len__(self):
        return len(self.universe)

    # -- helpers ------------------------------------------------------------

    def position(self, element: str) -> int:
        """Index of an element in the universe order."""
        return self._pos[element]

    def has_tuple(self, relation: str, tup: Sequence[str]) -> bool:
        """Membership in a relation, against ``tuple_set(relation)``."""
        return tuple(tup) in self.tuple_set(relation)

    def tuple_set(self, relation: str) -> frozenset[tuple[str, ...]]:
        """The tuples of a relation as a frozenset, built on first use."""
        tuples = self._tuple_sets.get(relation)
        if tuples is None:
            tuples = self._tuple_sets[relation] = frozenset(self.relations[relation])
        return tuples

    def tuples_at(self, element: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """The ``(relation, tuple)`` pairs whose tuple contains ``element``,
        from a map built on first use."""
        if self._tuples_at is None:
            at: dict[str, list] = {e: [] for e in self.universe}
            for name, tuples in self.relations.items():
                for tup in tuples:
                    entry = (name, tup)
                    for e in dict.fromkeys(tup):
                        at[e].append(entry)
            self._tuples_at = {e: tuple(v) for e, v in at.items()}
        return self._tuples_at[element]

    def atoms_at_last(self, tup: Sequence[str]) -> list:
        """The atoms of ``tup`` through its last position.  An atom is a
        ``(relation, positions)`` pair, one per choice of positions among
        repeated elements that includes the last; one relation's atoms are
        adjacent."""
        n = len(tup) - 1
        where: dict[str, list[int]] = {}
        for i, e in enumerate(tup):
            where.setdefault(e, []).append(i)
        hits = []
        for name, t in self.tuples_at(tup[n]):
            places = list(map(where.get, t))
            if None not in places:
                hits += [(name, idx) for idx in product(*places) if n in idx]
        return hits

    def atom_codes(
        self,
    ) -> tuple[Mapping[str, int], tuple[tuple[int, ...], ...], tuple[tuple, ...]]:
        """The atom-code table ``(index, rows, wide)``, built on first use.

        ``index`` maps each element to its universe position (it is the
        structure's own map, read only).  ``rows[i][j]`` codes the atoms on
        exactly the elements at positions i and j, with i first in the
        patterns, and ``rows[i][i]`` is ``EQUAL_CODE``; the last entry,
        ``rows[i][-1]``, codes the atoms on element i alone.  ``wide[i]``
        holds the ``(relation, tuple)`` pairs through element i over three or
        more distinct elements, which no code covers."""
        if self._atoms is None:
            n = len(self.universe)
            rows = [[0] * (n + 1) for _ in range(n)]
            wide: list[list] = [[] for _ in range(n)]
            for name, tuples in self.relations.items():
                for tup in tuples:
                    idx = tuple(map(self._pos.__getitem__, tup))
                    ends = tuple(dict.fromkeys(idx))
                    if len(ends) > 2:
                        for i in ends:
                            wide[i].append((name, tup))
                        continue
                    for i, j in zip(ends, ends[::-1]):
                        shape = name, tuple(map(i.__ne__, idx))  # 1 where j stands
                        bit = _SHAPE_BITS.get(shape) or _shape_bit(*shape)
                        rows[i][n if i == j else j] |= bit
            for i in range(n):
                rows[i][i] = EQUAL_CODE
            self._atoms = self._pos, tuple(map(tuple, rows)), tuple(map(tuple, wide))
        return self._atoms

    def accessible(
        self, elements: Iterable[str], backward: bool = False
    ) -> tuple[str, ...]:
        """Elements one transition step forward from some given element (with
        ``backward`` also one step back), in universe order, from the
        ``partners`` of every transition, merged on first use."""
        if self._steps is None:
            steps = ({e: () for e in self.universe}, {e: () for e in self.universe})
            for name in sorted(self.signature.transitions):
                for back, merged in zip((False, True), steps):
                    for e, found in self.partners(name, back).items():
                        merged[e] += found
            self._steps = steps
        succ, pred = self._steps
        seen: set[str] = set()
        for e in elements:
            seen.update(succ[e])
            if backward:
                seen.update(pred[e])
        return tuple(filter(seen.__contains__, self.universe))

    def partners(
        self, relation: str, backward: bool = False
    ) -> Mapping[str, tuple[str, ...]]:
        """For a binary relation R, each element's successors ``{v : R(u, v)}``
        in universe order, or with ``backward`` its predecessors
        ``{u : R(u, v)}``.  Both directions are built on the first use of the
        relation, from one sort of its pairs by universe position.  The map
        returned is the cache itself, so callers must not change it."""
        got = self._partners.get((relation, backward))
        if got is None:
            if self.signature.relations.get(relation) != 2:
                raise ValueError(f"partners: {relation!r} is not a binary relation")
            pos = self._pos
            succ: dict[str, list[str]] = {e: [] for e in self.universe}
            pred: dict[str, list[str]] = {e: [] for e in self.universe}
            pairs = sorted(self.relations[relation], key=lambda t: (pos[t[0]], pos[t[1]]))
            for u, v in pairs:
                succ[u].append(v)
                pred[v].append(u)
            for direction, found in ((False, succ), (True, pred)):
                self._partners[relation, direction] = {e: tuple(v) for e, v in found.items()}
            got = self._partners[relation, backward]
        return got

    def induced(self, elements: Iterable[str]) -> "Structure":
        """Induced substructure on the given elements, keeping universe order.

        Basepoints must all survive; raises otherwise.
        """
        keep = set(elements)
        uni = [e for e in self.universe if e in keep]
        rels = {
            name: [t for t in tuples if all(e in keep for e in t)]
            for name, tuples in self.relations.items()
        }
        return Structure(self.signature, uni, rels, self.basepoints)


# -- atom codes ---------------------------------------------------------------


#: The equality marker of the atom codes: the bit on the diagonal of every
#: structure's pair codes.
EQUAL_CODE = 1
#: The bits past ``EQUAL_CODE``, one per atom shape ``(relation, pattern)``,
#: interned for all structures so that the back-and-forth games can compare
#: codes of two structures for equality.  A pattern gives, for each position
#: of a tuple, 0 for the first element of the code and 1 for the second.
_SHAPE_BITS: dict[tuple[str, tuple[int, ...]], int] = {}


def _shape_bit(name: str, pattern: tuple[int, ...]) -> int:
    bit = _SHAPE_BITS.get((name, pattern))
    if bit is None:
        bit = _SHAPE_BITS[name, pattern] = 1 << (len(_SHAPE_BITS) + 1)
    return bit


def row_codes(positions: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """A getter of an atom-code row's element code and its pair codes with
    the elements at ``positions``, in that order, as a tuple."""
    return itemgetter(-1, *positions) if positions else lambda row: row[-1:]


# -- Gaifman machinery -------------------------------------------------------


def gaifman_graph(s: Structure) -> Mapping[str, tuple[str, ...]]:
    """Adjacency of the Gaifman graph: distinct elements co-occurring in a
    tuple, each neighbour list in universe order.  Built once per structure
    on first use and returned as a read-only view."""
    if s._gaifman is None:
        adj: dict[str, set[str]] = {e: set() for e in s.universe}
        for tuples in s.relations.values():
            for tup in tuples:
                for x in tup:
                    for y in tup:
                        if x != y:
                            adj[x].add(y)
        s._gaifman = MappingProxyType(
            {e: tuple(sorted(adj[e], key=s.position)) for e in s.universe}
        )
    return s._gaifman


class DistanceMatrix:
    """All-pairs Gaifman path distance; unreachable pairs are ``INF``.  The
    distances from each element are kept as one row, read by ``row``."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Mapping[str, Mapping[str, float]]):
        self._rows = dict(rows)

    def distance(self, x: str, y: str) -> float:
        return self._rows[x][y]

    def row(self, x: str) -> Mapping[str, float]:
        """The distances from ``x`` to every element; the row itself, so
        callers must not change it."""
        return self._rows[x]

    def set_distance(self, xs: Iterable[str], ys: Iterable[str]) -> float:
        """inf over pairs; INF when either side is empty."""
        best = INF
        ys = list(ys)
        for x in xs:
            row = self._rows[x]
            for y in ys:
                d = row[y]
                if d < best:
                    best = d
        return best


def gaifman_distance(s: Structure) -> DistanceMatrix:
    """BFS from every element over the Gaifman graph."""
    adj = gaifman_graph(s)
    rows: dict[str, dict[str, float]] = {}
    for src in s.universe:
        seen = {src: 0}
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen[v] = d
                        nxt.append(v)
            frontier = nxt
        rows[src] = {e: seen.get(e, INF) for e in s.universe}
    return DistanceMatrix(rows)


# -- sums ---------------------------------------------------------------------


def tagged_sum(
    parts: Sequence[tuple[str, Structure]], basepoints_from: int | None = 0
) -> Structure:
    """Disjoint sum of same-vocabulary structures, elements retagged ``tag:id``.

    Basepoints are taken (retagged) from the part at index ``basepoints_from``;
    ``None`` produces an unpointed sum.
    """
    if not parts:
        raise ValueError("tagged_sum of no parts")
    sig0 = parts[0][1].signature
    for tag, part in parts[1:]:
        if not sig0.same_vocabulary(part.signature):
            raise InvalidStructureError(
                f"signature mismatch between summands {parts[0][0]!r} and {tag!r}"
            )
    tags = [tag for tag, _ in parts]
    if len(set(tags)) != len(tags):
        raise ValueError(f"duplicate summand tags: {tags}")
    universe: list[str] = []
    rels: dict[str, list[tuple[str, ...]]] = {
        name: [] for name in sig0.relations
    }
    for tag, part in parts:
        universe.extend(f"{tag}:{e}" for e in part.universe)
        for name, tuples in part.relations.items():
            rels[name].extend(tuple(f"{tag}:{e}" for e in t) for t in tuples)
    if basepoints_from is None:
        bps: tuple[str, ...] = ()
    else:
        base_tag, base_part = parts[basepoints_from]
        bps = tuple(f"{base_tag}:{e}" for e in base_part.basepoints)
    sig = sig0.with_num_basepoints(len(bps))
    return Structure(sig, universe, rels, bps)


def check_comparable(a: Structure, b: Structure) -> None:
    """Raise ``ValueError`` unless ``a`` and ``b`` share their vocabulary and
    their number of basepoints, as every comparison of two structures
    needs."""
    if not a.signature.same_vocabulary(b.signature):
        raise ValueError("signature mismatch between the two structures")
    if a.signature.num_basepoints != b.signature.num_basepoints:
        raise ValueError("basepoint count mismatch between the two structures")


def disjoint_union(a: Structure, b: Structure) -> Structure:
    """Coproduct of structures; basepoints come from the left operand.

    Elements are retagged with ``L:`` / ``R:`` prefixes.
    """
    return tagged_sum([("L", a), ("R", b)], basepoints_from=0)


# -- substructure operators ---------------------------------------------------


def _walk_out(s: Structure, k: float, step: Callable) -> Structure:
    """Induced substructure on the elements within distance k of a basepoint,
    walked outward one level at a time: ``step`` gives the elements one step
    from a frontier, and a level is added only while its distance is <= k."""
    reached = frontier = set(s.basepoints)
    while frontier and k >= 1:
        frontier = set(step(frontier)) - reached
        reached |= frontier
        k -= 1
    return s.induced(reached)


def reachable_part(s: Structure, k: float = INF) -> Structure:
    """Induced substructure on elements reachable from a basepoint by a
    directed transition path of length <= k.  ``k=INF`` gives the full
    reachable part."""
    return _walk_out(s, k, s.accessible)


def ball_part(s: Structure, k: float) -> Structure:
    """Induced substructure on the union of Gaifman k-balls around the basepoints."""
    adj = gaifman_graph(s)
    return _walk_out(s, k, lambda xs: [y for x in xs for y in adj[x]])


# -- morphism predicates ------------------------------------------------------


def maps_into(tuples, h: Mapping[str, str], target: Structure) -> bool:
    """Whether the partial map ``h`` sends each ``(relation, tuple)`` it is
    defined on to a tuple of that relation in ``target``."""
    inside, image = h.__contains__, h.__getitem__
    for name, tup in tuples:
        if all(map(inside, tup)) and tuple(map(image, tup)) not in target.tuple_set(name):
            return False
    return True


def is_homomorphism(h: Mapping[str, str], a: Structure, b: Structure) -> bool:
    """True iff ``h`` preserves every relation tuple and maps basepoints
    to basepoints componentwise.  ``h`` must be total on ``a`` and land in
    ``b``'s universe; otherwise a ``ValueError`` is raised."""
    for e in a.universe:
        if e not in h:
            raise ValueError(f"map is not total: no image for {e!r}")
        if h[e] not in b._pos:
            raise ValueError(f"map sends {e!r} outside the codomain universe")
    if len(a.basepoints) != len(b.basepoints):
        raise ValueError("basepoint tuples have different lengths")
    for x, y in zip(a.basepoints, b.basepoints):
        if h[x] != y:
            return False
    return maps_into(
        ((name, tup) for name, tuples in a.relations.items() for tup in tuples), h, b
    )


def is_partial_isomorphism(
    pairs: Iterable[tuple[str, str]], a: Structure, b: Structure
) -> bool:
    """True iff the pair set is a well-defined injective partial map whose
    graph preserves and reflects every relation (and equality) on its
    domain/range.

    Computed from scratch: each relation tuple over the domain (the range)
    is checked once, at its first element, against the other structure's
    tuple set, looked up once per relation."""
    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}
    for x, y in pairs:
        if x not in a._pos or y not in b._pos:
            return False
        if fwd.setdefault(x, y) != y or bwd.setdefault(y, x) != x:
            return False
    for h, source, target in ((fwd, a, b), (bwd, b, a)):
        inside, image = h.__contains__, h.__getitem__
        sets: dict[str, frozenset] = {}
        for x in h:
            for name, tup in source.tuples_at(x):
                if tup[0] == x and all(map(inside, tup)):
                    got = sets.get(name)
                    if got is None:
                        got = sets[name] = target.tuple_set(name)
                    if tuple(map(image, tup)) not in got:
                        return False
    return True


def with_identity_I(s: Structure) -> Structure:
    """The structure extended with the identity relation ``I`` (not a transition)."""
    rels = dict(s.signature.relations)
    if RESERVED_IDENTITY in rels:
        raise InvalidStructureError("structure already interprets 'I'")
    rels[RESERVED_IDENTITY] = 2
    sig = Signature(
        rels,
        s.signature.transitions,
        s.signature.num_basepoints,
        _allow_reserved=True,
    )
    interp = {name: list(tuples) for name, tuples in s.relations.items()}
    interp[RESERVED_IDENTITY] = [(e, e) for e in s.universe]
    return Structure(sig, s.universe, interp, s.basepoints)


# -- JSON ---------------------------------------------------------------------


def structure_from_data(data: object) -> Structure:
    """Build a structure from the documented JSON shape, validating all
    invariants and reporting the first violation with its path."""
    if not isinstance(data, dict):
        raise InvalidStructureError(": top-level value must be an object")
    sig_data = data.get("signature")
    if not isinstance(sig_data, dict):
        raise InvalidStructureError("signature: missing or not an object")
    rels = sig_data.get("relations")
    if not isinstance(rels, dict):
        raise InvalidStructureError("signature.relations: missing or not an object")
    transitions = sig_data.get("transitions", [])
    if not isinstance(transitions, list):
        raise InvalidStructureError("signature.transitions: must be a list")
    universe = data.get("universe")
    if not isinstance(universe, list):
        raise InvalidStructureError("universe: missing or not a list")
    relations = data.get("relations", {})
    if not isinstance(relations, dict):
        raise InvalidStructureError("relations: must be an object")
    basepoints = data.get("basepoints", [])
    if not isinstance(basepoints, list):
        raise InvalidStructureError("basepoints: must be a list")
    _require_strings(transitions, "signature.transitions", "relation names")
    _require_strings(basepoints, "basepoints", "element ids")
    for name, tuples in relations.items():
        if not isinstance(tuples, list):
            raise InvalidStructureError(f"relations.{name}: must be a list of tuples")
        for j, tup in enumerate(tuples):
            if not isinstance(tup, list):
                raise InvalidStructureError(
                    f"relations.{name}[{j}]: must be a list of element ids, got {tup!r}"
                )
            _require_strings(tup, f"relations.{name}[{j}]", "element ids")
    sig = Signature(rels, transitions, num_basepoints=len(basepoints))
    return Structure(sig, universe, relations, basepoints)


def _require_strings(items: list, path: str, what: str) -> None:
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise InvalidStructureError(
                f"{path}[{i}]: {what} must be strings, got {item!r}"
            )


def load_structure(path: str) -> Structure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidStructureError(f"{path}: not valid JSON: {exc}") from exc
    return structure_from_data(data)


def structure_to_data(s: Structure) -> dict:
    return {
        "signature": {
            "relations": dict(sorted(s.signature.relations.items())),
            "transitions": sorted(s.signature.transitions),
        },
        "universe": list(s.universe),
        "relations": {
            name: [list(t) for t in tuples]
            for name, tuples in sorted(s.relations.items())
        },
        "basepoints": list(s.basepoints),
    }

"""Canonical type descriptors and formula-producing constructions: rank-k
characteristic formulas (Hintikka style, over transition guards), Scott type
descriptors with exact successor counts, their formula emission, and the
rewriting of disjunctively-guarded counting quantifiers into single-guard
form.
"""
from __future__ import annotations

from functools import cache
from itertools import product

from .structures import Structure, Signature
from . import syntax as sx
from .syntax import (
    Acc,
    And,
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
    Var,
)

# -- shared helpers ---------------------------------------------------------------


def _position_term(i: int, m: int) -> Term:
    """Term for position ``i`` (0-based) of an extension tuple: the first m
    positions are the constants, later ones the variables ``y1, y2, ...``."""
    if i < m:
        return Const(i + 1)
    return Var(f"y{i - m + 1}")


def _extend_key(s: Structure, key, tup: tuple[str, ...]):
    """Canonical atoms of the distinct-element tuple ``tup`` (which relation
    atoms hold between its components) from ``key``, those of ``tup[:-1]``,
    plus the atoms through the last position (``Structure.atoms_at_last``)."""
    found = s.atoms_at_last(tup)
    if not found:
        return key
    hits: dict[str, list[tuple[int, ...]]] = {}
    for name, idx in found:
        hits.setdefault(name, []).append(idx)
    return tuple(
        (name, tuple(sorted(old + tuple(hits[name]))) if name in hits else old)
        for name, old in key
    )


def _atomic_type_formula(s: Structure, tup: tuple[str, ...], m: int) -> FOFormula:
    """Conjunction fixing every relation atom and equality over the tuple."""
    parts: list[FOFormula] = []
    for name in sorted(s.signature.relations):
        arity = s.signature.relations[name]
        for idx in product(range(len(tup)), repeat=arity):
            atom = Rel(name, tuple(_position_term(i, m) for i in idx))
            holds = s.has_tuple(name, tuple(tup[i] for i in idx))
            parts.append(atom if holds else Not(atom))
    for i in range(len(tup)):
        for j in range(i + 1, len(tup)):
            eq = Eq(_position_term(i, m), _position_term(j, m))
            parts.append(eq if tup[i] == tup[j] else Not(eq))
    return sx.conj_all(parts)


# -- characteristic formulas ---------------------------------------------------------


def characteristic_formula(s: Structure, k: int, temporal: bool = False) -> FOFormula:
    """The rank-k bounded sentence defining the class of structures
    equivalent to ``s`` for rank-k bounded sentences.

    Built by recursion on k over transition successors of the current
    extension tuple: the atomic type, one guarded existential per realized
    successor type, and a guarded universal covering them.  With ``temporal``
    the backward guards are included as well.  Memoized per extension tuple;
    conjuncts are deduplicated syntactically.
    """
    if k < 0:
        raise ValueError(f"rank must be non-negative, got {k}")
    m = s.signature.num_basepoints
    if m < 1:
        raise ValueError("characteristic formulas need at least one basepoint")

    @cache
    def chi(tup: tuple[str, ...], rank: int) -> FOFormula:
        parts: list[FOFormula] = [_atomic_type_formula(s, tup, m)]
        if rank > 0:
            y = f"y{len(tup) - m + 1}"
            directions = [True, False] if temporal else [True]
            for name in sorted(s.signature.transitions):
                for i in range(len(tup)):
                    for forward in directions:
                        partners = s.partners(name, backward=not forward)[tup[i]]
                        if forward:
                            guard = Rel(name, (_position_term(i, m), Var(y)))
                        else:
                            guard = Rel(name, (Var(y), _position_term(i, m)))
                        child_fms = list(
                            dict.fromkeys(chi(tup + (b,), rank - 1) for b in partners)
                        )
                        for cf in child_fms:
                            parts.append(BoundedExists(y, guard, cf))
                        parts.append(BoundedForall(y, guard, sx.disj_all(child_fms)))
        return sx.conj_all(list(dict.fromkeys(parts)))

    return chi(s.basepoints, k)


# -- Scott types -----------------------------------------------------------------------


def _types(s: Structure):
    """The descriptor function ``ty(elements, rank)`` of ``s`` over
    distinct-element tuples, memoized for the life of the returned closure.

    A tuple's type is fixed by its distinct elements, in order of first
    occurrence, and the place among them of each position.  A new accessible
    element extends them; one at place i leaves them, one rank lower.  Each
    child descriptor ends with its element's place.  Rank-0 and stuck
    descriptors carry the atoms, built incrementally, once per prefix."""

    @cache
    def atomic(elements: tuple[str, ...]):
        if not elements:
            return tuple((name, ()) for name in sorted(s.signature.relations))
        return _extend_key(s, atomic(elements[:-1]), elements)

    @cache
    def ty(elements: tuple[str, ...], rank: int):
        if rank == 0:
            return ("atomic", atomic(elements))
        acc = s.accessible(elements)
        if not acc:
            return ("stuck", atomic(elements))
        counts: dict = {}  # a plain count, not Counter(genexpr): one frame per rank
        for b in acc:
            if b in elements:
                place, sub = elements.index(b), ty(elements, rank - 1)
            else:
                place, sub = len(elements), ty(elements + (b,), rank - 1)
            child = sub + (place,)
            counts[child] = counts.get(child, 0) + 1
        return ("counts", tuple(sorted(counts.items())))

    return ty


def scott_type(s: Structure, k: int):
    """Canonical recursive descriptor of the rank-k counting type of the
    basepoint tuple: the atomic type at rank 0; at positive rank either a
    stuck marker with the atomic type, or the exact multiset of rank-(k-1)
    extension types over the accessible elements.

    Two structures get equal descriptors exactly when they satisfy the same
    rank-k Scott sentence.  It is ``_types``' descriptor of the basepoints'
    distinct elements, followed by the basepoints' places among them.
    """
    if k < 0:
        raise ValueError(f"rank must be non-negative, got {k}")
    elements = tuple(dict.fromkeys(s.basepoints))
    return _types(s)(elements, k) + (tuple(map(elements.index, s.basepoints)),)


def scott_formula(s: Structure, k: int) -> FOFormula:
    """The rank-k Scott sentence of ``s``: a counting-logic sentence with
    accessibility guards whose models are exactly the structures with the
    same rank-k descriptor.

    The recursion runs over literal tuples, whose positions the variables
    follow.  Successor classes are grouped by ``_types``' descriptor over
    the distinct elements, ended by the successor's place (not by emitted
    formula), so counts cover each class once, and ordered by descriptor so
    the output is deterministic.
    """
    if k < 0:
        raise ValueError(f"rank must be non-negative, got {k}")
    m = s.signature.num_basepoints
    ty = _types(s)

    @cache
    def fm(tup: tuple[str, ...], rank: int) -> FOFormula:
        # nothing is accessible from no sources, so the guards are vacuous
        if rank == 0 or not tup:
            return _atomic_type_formula(s, tup, m)
        acc = s.accessible(tup)
        sources = tuple(_position_term(i, m) for i in range(len(tup)))
        y = f"y{len(tup) - m + 1}"
        guard = Acc(sources, y)
        if not acc:
            return And(Not(Exists(y, guard)), _atomic_type_formula(s, tup, m))
        classes: dict[object, tuple[int, str]] = {}
        elements = tuple(dict.fromkeys(tup))
        for b in acc:
            if b in elements:
                descr = ty(elements, rank - 1) + (elements.index(b),)
            else:
                descr = ty(elements + (b,), rank - 1) + (len(elements),)
            count, representative = classes.get(descr, (0, b))
            classes[descr] = (count + 1, representative)
        ordered = sorted(classes.items(), key=lambda item: item[0])
        class_fms = [
            fm(tup + (representative,), rank - 1) for _, (_, representative) in ordered
        ]
        parts: list[FOFormula] = [
            sx.exact_count(count, y, guard, class_fm)
            for ((_, (count, _)), class_fm) in zip(ordered, class_fms)
        ]
        parts.append(Forall(y, Or(Not(guard), sx.disj_all(class_fms))))
        return sx.conj_all(parts)

    return fm(s.basepoints, k)


# -- counting-guard normalization ----------------------------------------------------


def _guard_disjuncts(guard: FOFormula, var: str, signature: Signature) -> list[Rel]:
    if isinstance(guard, Acc):
        expanded = sx.expand_acc(guard, signature)
        return _guard_disjuncts(expanded, var, signature)
    if isinstance(guard, Or):
        return _guard_disjuncts(guard.left, var, signature) + _guard_disjuncts(
            guard.right, var, signature
        )
    if sx.is_transition_guard(guard, var, signature):
        return [guard]
    raise ValueError(f"not a disjunction of transition guards for {var!r}: {guard!r}")


def normalize_counting(f: FOFormula, signature: Signature) -> FOFormula:
    """Rewrite counting quantifiers whose guard is a disjunction of transition
    atoms (or an ``Acc`` node) into Boolean combinations of single-guard
    counting quantifiers, avoiding double counting and preserving quantifier
    rank.  Other nodes are rebuilt with normalized subformulas."""
    # a dict, not @cache: walk recurses once per nesting level, and a cache
    # wrapper halves the depth a recursion can reach
    memo: dict[FOFormula, FOFormula] = {}

    def split(count: int, var: str, guards: list[Rel], body: FOFormula) -> FOFormula:
        if count == 0:
            return sx.TRUE
        if len(guards) == 1:
            return CountExists(count, var, guards[0], body)
        init, last = guards[:-1], guards[-1]
        options: list[FOFormula] = []
        for first in range(count + 1):
            rest = count - first
            factors: list[FOFormula] = []
            if first > 0:
                factors.append(split(first, var, init, And(Not(last), body)))
            if rest > 0:
                factors.append(CountExists(rest, var, last, body))
            options.append(sx.conj_all(factors))
        return sx.disj_all(options)

    def walk(g: FOFormula) -> FOFormula:
        got = memo.get(g)
        if got is not None:
            return got
        if isinstance(g, CountExists) and not sx.is_transition_guard(
            g.guard, g.var, signature
        ):
            body = walk(g.body)
            guards = _guard_disjuncts(g.guard, g.var, signature)
            out = split(g.count, g.var, guards, body)
        else:
            out = sx.rebuild(g, walk)
        memo[g] = out
        return out

    return walk(f)

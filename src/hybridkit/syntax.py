"""Formula ASTs for the two languages: hybrid modal logic and first-order logic
with bounded and counting quantifiers.

Hybrid nodes are frozen dataclasses: hashable, with syntactic equality, built
as small trees.

First-order nodes (terms and formulas) are hash-consed.  Every constructor
call goes through one weak table keyed on the node class and its parts, so a
structurally equal node is the same object, equality is identity, and a
formula is a DAG with one node per distinct subformula.  Each node computes
its hash, its free variables and its quantifier rank once, when it is built,
from its already-interned children; ``free_vars`` and ``quantifier_rank``
read them back.  The nodes are still dataclasses whose fields are exactly
their syntactic parts.  (Filliatre and Conchon, *Type-safe modular
hash-consing*, ML Workshop 2006.)

The first-order language has terms (variables and the constants ``c1..cm``
read off the basepoints), guarded quantifier nodes whose guard is a single
transition atom, and a dedicated one-step accessibility guard ``Acc`` that
abbreviates the disjunction of all transition atoms from a tuple of sources.

The structural walk of each language lives here, once: ``subformulas`` and
``hybrid_subformulas`` list a node's immediate subformulas, the fields it
declares as formulas, ``rebuild`` maps a function over them, and
``guard_shape`` is the one test of a guard atom.  Walkers elsewhere special-case only the node kinds
they treat differently.
"""
from __future__ import annotations

import inspect
import re
import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # structures reads the name rules below
    from .structures import Signature

# -- hybrid logic --------------------------------------------------------------


class HybridFormula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(HybridFormula):
    name: str


@dataclass(frozen=True)
class WVar(HybridFormula):
    name: str


@dataclass(frozen=True)
class Nom(HybridFormula):
    index: int  # nominal c_i, 1-based


@dataclass(frozen=True)
class Neg(HybridFormula):
    sub: HybridFormula


@dataclass(frozen=True)
class Conj(HybridFormula):
    left: HybridFormula
    right: HybridFormula


@dataclass(frozen=True)
class Disj(HybridFormula):
    left: HybridFormula
    right: HybridFormula


@dataclass(frozen=True)
class Box(HybridFormula):
    sub: HybridFormula


@dataclass(frozen=True)
class Dia(HybridFormula):
    sub: HybridFormula


@dataclass(frozen=True)
class BoxInv(HybridFormula):
    sub: HybridFormula


@dataclass(frozen=True)
class DiaInv(HybridFormula):
    sub: HybridFormula


@dataclass(frozen=True)
class Bind(HybridFormula):
    var: str
    sub: HybridFormula


@dataclass(frozen=True)
class At(HybridFormula):
    anchor: HybridFormula  # WVar or Nom
    sub: HybridFormula


def hybrid_subformulas(f: HybridFormula) -> tuple[HybridFormula, ...]:
    """The fields of a hybrid node declared as formulas, ``@``'s anchor first."""
    if not isinstance(f, HybridFormula):
        raise TypeError(f"not a hybrid formula: {f!r}")
    declared, names = type(f).__annotations__, f.__match_args__
    return tuple([getattr(f, n) for n in names if declared[n] == "HybridFormula"])


def free_world_vars(f: HybridFormula) -> frozenset[str]:
    if isinstance(f, WVar):
        return frozenset({f.name})
    free = frozenset().union(*map(free_world_vars, hybrid_subformulas(f)))
    return free - {f.var} if isinstance(f, Bind) else free


def max_nominal(f: HybridFormula) -> int:
    """Largest nominal index used, 0 if none."""
    if isinstance(f, Nom):
        return f.index
    return max(map(max_nominal, hybrid_subformulas(f)), default=0)


def hybrid_depth(f: HybridFormula) -> int:
    """Modal depth, with the adjustment that a diamond applied directly to a
    world variable has depth zero (it only tests an edge between worlds
    already reached)."""
    if isinstance(f, Dia) and isinstance(f.sub, WVar):
        return 0
    depth = max(map(hybrid_depth, hybrid_subformulas(f)), default=0)
    return depth + 1 if isinstance(f, (Box, Dia, BoxInv, DiaInv)) else depth


# -- names ------------------------------------------------------------------------

#: The identifiers of the concrete syntax, which the parser tokenizes with.
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"
#: ``c`` and digits: a nominal, or a constant of the first-order syntax.
INDEXED_RE = re.compile(r"^c([0-9]+)$")
#: Identifiers the first-order syntax reads as keywords.
FO_KEYWORDS = frozenset({"forall", "exists", "true", "false", "acc"})
_IDENTIFIER_RE = re.compile(IDENTIFIER)


def is_relation_name(text: str) -> bool:
    """Whether ``text`` reads as a relation name: an identifier that is not
    a keyword."""
    return _IDENTIFIER_RE.fullmatch(text) is not None and text not in FO_KEYWORDS


def is_variable_name(text: str) -> bool:
    """Whether ``text`` reads as a variable, bound or as a term: a relation
    name that is not ``c`` and digits."""
    return is_relation_name(text) and not INDEXED_RE.match(text)


# -- first-order logic ----------------------------------------------------------


class _Entry(weakref.ref):
    """Intern-table value: a weak reference to a node that knows its key."""

    __slots__ = ("key",)


#: The intern table: (node class, *parts) -> weak reference to the one live
#: node with those parts.  It is shared by the whole process, because equal
#: nodes must be one object wherever they are built.  A key holds the parts
#: strongly, which keeps alive nothing the node itself does not.
_table: dict[tuple, _Entry] = {}
_table_lock = threading.Lock()


def _evict(entry: _Entry) -> None:
    """Weak-reference callback: drop the entry of a node that died, unless a
    new node already took its key."""
    if _table.get(entry.key) is entry:
        del _table[entry.key]


class _Interning(type):
    """Metaclass of the first-order nodes: a constructor call returns the one
    live node with the same class and parts, building it only on a miss."""

    def __call__(cls, *parts, **named):
        if named:
            # the dataclass __init__ binds the keywords; __match_args__ lists
            # the fields in order
            probe = super().__call__(*parts, **named)
            parts = tuple(getattr(probe, name) for name in cls.__match_args__)
        # checked before the lookup, where True == 1 would find an int twin
        for i, what in cls._int_parts:
            if i < len(parts) and (type(parts[i]) is not int or parts[i] < 1):
                raise ValueError(
                    f"a {what} must be an int of at least 1, got {parts[i]!r}"
                )
        # a wrong number of parts matches no key, and __init__ rejects it below
        key = (cls, *parts)
        entry = _table.get(key)
        node = None if entry is None else entry()
        if node is not None:
            return node
        with _table_lock:
            entry = _table.get(key)
            node = None if entry is None else entry()
            if node is None:
                node = super().__call__(*parts)
                for i, kind, what, many in cls._part_checks:
                    if many and parts[i] == ():
                        # ``P()`` and ``acc(; y)`` do not parse back
                        raise ValueError(f"needs at least one {what}, got ()")
                    for part in parts[i] if many else (parts[i],):
                        if not isinstance(part, kind):
                            raise TypeError(f"not a {what}: {part!r}")
                for i, reads, what in cls._name_checks:
                    if not reads(parts[i]):
                        raise ValueError(f"not a {what} the parser reads: {parts[i]!r}")
                free, rank = _derive(node)
                set_slot = object.__setattr__  # the dataclass is frozen
                set_slot(node, "_hash", hash((cls.__name__, *parts)))
                set_slot(node, "free", free)
                set_slot(node, "rank", rank)
                entry = _Entry(node, _evict)
                entry.key = key
                _table[key] = entry
        return node


class _Node(metaclass=_Interning):
    """Common base of terms and first-order formulas.

    Besides its dataclass fields, every node stores, once, its structural
    hash, ``free`` (the sorted tuple of its free variable names) and
    ``rank`` (its quantifier rank; 0 for terms).  Equality is identity.
    """

    __slots__ = ("_hash", "free", "rank", "__weakref__")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class Term(_Node):
    __slots__ = ()


class FOFormula(_Node):
    __slots__ = ()


#: Field declarations whose parts a constructor checks, with the wording the
#: walkers use to refuse anything else, and whether the field is a tuple of
#: them, each checked.
_CHECKED_PARTS = {
    "Term": (Term, "term", False),
    "FOFormula": (FOFormula, "first-order formula", False),
    "tuple[Term, ...]": (Term, "term", True),
    "str": (str, "name", False),
}

#: Fields declared ``int``, each a positive int, with the wording of a refusal.
_INT_PARTS = {"count": "count", "index": "constant index"}


def _name_rule(cls, field: str):
    """The parser's rule for a name field, with the wording of a refusal: a
    formula's ``name`` (``Rel``) is a relation's, any other holds a
    variable."""
    if issubclass(cls, FOFormula) and field == "name":
        return is_relation_name, "relation name"
    return is_variable_name, "variable name"


def _node(cls):
    """A frozen, slotted first-order node class whose equality is identity,
    constructed through the intern table with its dataclass signature, and
    refusing a part that is not the term, formula or name its field declares,
    an empty term tuple, a name the parser would not read back, or an
    ``int`` field that is not an int of at least 1."""
    cls = dataclass(frozen=True, eq=False, slots=True)(cls)
    init = inspect.signature(cls.__init__)
    cls.__signature__ = init.replace(parameters=list(init.parameters.values())[1:])
    declared = cls.__annotations__
    cls._part_checks = tuple(
        (i, *_CHECKED_PARTS[declared[name]])
        for i, name in enumerate(cls.__match_args__)
        if declared[name] in _CHECKED_PARTS
    )
    cls._name_checks = tuple(
        (i, *_name_rule(cls, name))
        for i, name in enumerate(cls.__match_args__)
        if declared[name] == "str"
    )
    cls._int_parts = tuple(
        (i, _INT_PARTS[name])
        for i, name in enumerate(cls.__match_args__)
        if declared[name] == "int"
    )
    return cls


@_node
class Var(Term):
    name: str


@_node
class Const(Term):
    index: int  # constant c_i, 1-based; denotes basepoint i


@_node
class Rel(FOFormula):
    name: str
    args: tuple[Term, ...]


@_node
class Eq(FOFormula):
    left: Term
    right: Term


@_node
class Top(FOFormula):
    pass


@_node
class Bottom(FOFormula):
    pass


@_node
class Not(FOFormula):
    sub: FOFormula


@_node
class And(FOFormula):
    left: FOFormula
    right: FOFormula


@_node
class Or(FOFormula):
    left: FOFormula
    right: FOFormula


@_node
class Forall(FOFormula):
    var: str
    body: FOFormula


@_node
class Exists(FOFormula):
    var: str
    body: FOFormula


@_node
class BoundedForall(FOFormula):
    var: str
    guard: FOFormula  # transition atom mentioning var exactly once
    body: FOFormula


@_node
class BoundedExists(FOFormula):
    var: str
    guard: FOFormula
    body: FOFormula


@_node
class CountExists(FOFormula):
    count: int  # at least `count` witnesses, count >= 1
    var: str
    guard: FOFormula
    body: FOFormula


@_node
class Acc(FOFormula):
    """One-step accessibility of ``var`` from ``sources`` through any
    transition relation; abbreviates a disjunction of transition atoms."""

    sources: tuple[Term, ...]
    var: str


def _union(a: tuple[str, ...], b: tuple[str, ...]) -> tuple[str, ...]:
    """Sorted union of two sorted name tuples, reusing one when it can."""
    if not b or a == b:
        return a
    if not a:
        return b
    return tuple(sorted(set(a).union(b)))


def _without(free: tuple[str, ...], var: str) -> tuple[str, ...]:
    return tuple(v for v in free if v != var) if var in free else free


def _terms_free(terms: tuple[Term, ...]) -> tuple[str, ...]:
    free: tuple[str, ...] = ()
    for t in terms:
        free = _union(free, t.free)
    return free


def _derive(f: _Node) -> tuple[tuple[str, ...], int]:
    """Free variables and quantifier rank of a new node, read off its
    already-interned children; the commonest node kinds are tested first."""
    if isinstance(f, (And, Or)):
        return _union(f.left.free, f.right.free), max(f.left.rank, f.right.rank)
    if isinstance(f, Not):
        return f.sub.free, f.sub.rank
    if isinstance(f, Rel):
        return _terms_free(f.args), 0
    if isinstance(f, Eq):
        return _union(f.left.free, f.right.free), 0
    if isinstance(f, (BoundedExists, BoundedForall, CountExists)):
        free = _without(_union(f.guard.free, f.body.free), f.var)
        return free, 1 + max(f.guard.rank, f.body.rank)
    if isinstance(f, Var):
        return (f.name,), 0
    if isinstance(f, (Const, Top, Bottom)):
        return (), 0
    if isinstance(f, Acc):
        return _union((f.var,), _terms_free(f.sources)), 0
    if isinstance(f, (Forall, Exists)):
        return _without(f.body.free, f.var), 1 + f.body.rank
    raise TypeError(f"not a first-order node: {f!r}")


TRUE = Top()
FALSE = Bottom()


def free_vars(f: FOFormula) -> frozenset[str]:
    """Free variable names, read off the node."""
    if not isinstance(f, FOFormula):
        raise TypeError(f"not a first-order formula: {f!r}")
    return frozenset(f.free)


def quantifier_rank(f: FOFormula) -> int:
    """Standard quantifier rank; bounded and counting quantifiers count one each."""
    if not isinstance(f, FOFormula):
        raise TypeError(f"not a first-order formula: {f!r}")
    return f.rank


def subformulas(f: FOFormula) -> tuple[FOFormula, ...]:
    """The fields of a first-order node declared as formulas, guards included."""
    if not isinstance(f, FOFormula):
        raise TypeError(f"not a first-order formula: {f!r}")
    declared = type(f).__annotations__
    return tuple([getattr(f, n) for n in f.__match_args__ if declared[n] == "FOFormula"])


def rebuild(f: FOFormula, fn) -> FOFormula:
    """``f`` with ``fn`` applied to each immediate subformula; ``f`` itself
    when no subformula changed."""
    if not isinstance(f, FOFormula):
        raise TypeError(f"not a first-order formula: {f!r}")
    declared, names = type(f).__annotations__, f.__match_args__
    parts = [getattr(f, n) for n in names]
    new = [fn(p) if declared[n] == "FOFormula" else p for n, p in zip(names, parts)]
    # equality of nodes is identity, and the other parts are passed through
    return f if new == parts else type(f)(*new)


def guard_shape(guard: FOFormula, var: str) -> tuple[Term, bool] | None:
    """For an atom of two arguments with ``var`` in exactly one position, the
    other term and whether the guard is backward (``var`` first); otherwise
    ``None``."""
    if type(guard) is not Rel or len(guard.args) != 2:
        return None
    left, right = guard.args
    backward = type(left) is Var and left.name == var
    if backward == (type(right) is Var and right.name == var):
        return None
    return (right if backward else left), backward


def is_transition_guard(guard: FOFormula, var: str, signature: Signature) -> bool:
    """A single transition atom mentioning ``var`` in exactly one argument
    position, the other term distinct from ``var``.  Both the forward form
    E(t, x) and the backward form E(x, t) qualify."""
    return guard_shape(guard, var) is not None and guard.name in signature.transitions


def is_bounded(f: FOFormula, signature: Signature) -> bool:
    """True iff every quantifier is guarded by a transition atom over a
    transition symbol of the signature, with the bound variable distinct
    from the source term.  Each distinct subformula is visited once."""
    # a set, not @cache: walk recurses once per nesting level, and a cache
    # wrapper halves the depth a recursion can reach
    seen: set[FOFormula] = set()

    def walk(g: FOFormula) -> bool:
        if g in seen:
            return True  # a false answer ends the whole walk at once
        seen.add(g)
        if isinstance(g, (Forall, Exists)):
            return False
        if isinstance(g, (BoundedForall, BoundedExists, CountExists)):
            if not is_transition_guard(g.guard, g.var, signature):
                return False
        return all(map(walk, subformulas(g)))

    return walk(f)


def conj_all(parts: list[FOFormula]) -> FOFormula:
    """Right-nested conjunction; TRUE when empty."""
    if not parts:
        return TRUE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = And(p, out)
    return out


def disj_all(parts: list[FOFormula]) -> FOFormula:
    """Right-nested disjunction; FALSE when empty."""
    if not parts:
        return FALSE
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Or(p, out)
    return out


def exact_count(count: int, var: str, guard: FOFormula, body: FOFormula) -> FOFormula:
    """Exactly ``count`` witnesses: at least ``count`` and not at least ``count+1``.

    ``count`` may be 0, expressing that no witness exists.
    """
    at_least_next = CountExists(count + 1, var, guard, body)
    if count == 0:
        return Not(at_least_next)
    return And(CountExists(count, var, guard, body), Not(at_least_next))


def expand_acc(acc: Acc, signature: Signature) -> FOFormula:
    """The disjunction of transition atoms the ``Acc`` node abbreviates."""
    parts = [
        Rel(name, (src, Var(acc.var)))
        for name in sorted(signature.transitions)
        for src in acc.sources
    ]
    return disj_all(parts)


def fresh_var(used: set[str], base: str = "y") -> str:
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"

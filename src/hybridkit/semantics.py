"""Evaluation of first-order and hybrid formulas over structures, the standard
translation from hybrid to first-order syntax, and Gaifman ball relativization.

Constants ``c_i`` denote the structure's basepoints.  Hybrid formulas are
evaluated by translating and evaluating the translation, which keeps the two
semantics definitionally aligned.
"""
from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterable, Mapping

from .errors import ScopeError
from .structures import Structure, Signature
from . import syntax as sx
from .syntax import (
    Acc,
    And,
    Atom,
    At,
    Bind,
    Bottom,
    BoundedExists,
    BoundedForall,
    Box,
    BoxInv,
    Conj,
    Const,
    CountExists,
    Dia,
    DiaInv,
    Disj,
    Eq,
    Exists,
    FOFormula,
    Forall,
    HybridFormula,
    Neg,
    Nom,
    Not,
    Or,
    Rel,
    Term,
    Top,
    Var,
    WVar,
)


def atom_relation(name: str) -> str:
    """Relation symbol for a propositional atom: ``p`` is interpreted by ``P``."""
    return name[:1].upper() + name[1:]


class _Evaluator:
    """Single-call evaluator of first-order formulas over one structure.

    Dispatch is on the exact node class.  ``And`` and ``Or`` walk their
    right spine in a loop, which is the shape ``conj_all`` and ``disj_all``
    build; the left operands, and the node that ends the spine, are
    evaluated through :meth:`eval`.  All five quantifier classes share
    :meth:`_quantifier`, one loop over the universe or the guard's elements.
    A bounded or counting quantifier whose guard is a binary atom with the
    bound variable in exactly one position walks the structure's partner
    index (``Structure.partners``) from the other term's value, successors
    or predecessors, and never evaluates the guard; any other guard is
    tested on each element in universe order.

    Memo: characteristic and Scott formulas share subformulas heavily, and
    first-order nodes are interned, so a shared subformula is one object
    that stores its sorted free variables.  :meth:`eval` caches a node's
    value on (node, values of those variables), except for literals (atoms,
    equalities, ``true``, ``false`` and their negations), which cost less
    to evaluate than to look up.  So the memo holds the quantifier nodes,
    the ``Acc`` nodes and every compound operand: the left operands off a
    spine, the node ending it, quantifier bodies and negated compounds.
    Only the ``And``/``Or`` nodes inside a spine are walked without a
    lookup, and a spine is walked once per miss of the memoized node that
    starts it.  A miss therefore costs at most one lookup per node of its
    spine, and a shared DAG evaluates in time polynomial in its distinct
    (node, assignment) pairs: ``f_{i+1} = And(f_i, f_i)`` takes about i²
    steps where a tree walk would take 2^i.

    Errors are those of the plain recursive definition: an unknown relation,
    an atom of the wrong arity, an unbound variable or a constant out of
    range raises ``ScopeError`` when evaluation reaches it, a guard's only
    once the universe is non-empty.  The arity is read only after a failed
    membership test, so a true atom costs nothing more.
    """

    def __init__(self, s: Structure):
        self.s = s
        # dicts, not @cache: a cache on a method would keep every evaluator
        # alive, and _cache keys on a node's free variables, not on env
        self._cache: dict[tuple[FOFormula, tuple], bool] = {}
        self._sets: dict[str, frozenset[tuple[str, ...]]] = {}

    def term(self, t: Term, env: Mapping[str, str]) -> str:
        if type(t) is Var:
            try:
                return env[t.name]
            except KeyError:
                raise ScopeError(f"unbound variable {t.name!r}") from None
        if type(t) is Const:
            if not 1 <= t.index <= len(self.s.basepoints):
                raise ScopeError(
                    f"constant c{t.index} out of range: structure has "
                    f"{len(self.s.basepoints)} basepoints"
                )
            return self.s.basepoints[t.index - 1]
        raise TypeError(f"not a term: {t!r}")

    def eval(self, f: FOFormula, env: Mapping[str, str]) -> bool:
        kind = type(f)
        run = _LITERALS.get(kind)
        if run is not None:
            return run(self, f, env)
        if kind is Not:
            run = _LITERALS.get(type(f.sub))
            if run is not None:
                return not run(self, f.sub, env)
        key = (f, tuple([env.get(v) for v in f.free]))
        got = self._cache.get(key)
        if got is None:
            run = _COMPOUNDS.get(kind)
            if run is None:
                raise TypeError(f"not a first-order formula: {f!r}")
            got = self._cache[key] = run(self, f, env)
        return got

    def tuples(self, name: str) -> frozenset[tuple[str, ...]]:
        """The tuples of a relation of the signature, else a ``ScopeError``."""
        got = self._sets.get(name)
        if got is None:
            if name not in self.s.signature.relations:
                raise ScopeError(f"unknown relation symbol {name!r}")
            got = self._sets[name] = self.s.tuple_set(name)
        return got

    # -- literals

    def _rel(self, f: Rel, env: Mapping[str, str]) -> bool:
        tuples = self.tuples(f.name)
        if tuple([self.term(t, env) for t in f.args]) in tuples:
            return True
        arity, n = self.s.signature.relations[f.name], len(f.args)
        if n != arity:
            plural = "" if n == 1 else "s"
            raise ScopeError(
                f"relation {f.name!r} has arity {arity}, used with {n} argument{plural}"
            )
        return False

    def _eq(self, f: Eq, env: Mapping[str, str]) -> bool:
        return self.term(f.left, env) == self.term(f.right, env)

    def _top(self, f: Top, env: Mapping[str, str]) -> bool:
        return True

    def _bottom(self, f: Bottom, env: Mapping[str, str]) -> bool:
        return False

    # -- compounds

    def _acc(self, f: Acc, env: Mapping[str, str]) -> bool:
        s = self.s
        target = env.get(f.var)
        if target is None:
            raise ScopeError(f"unbound variable {f.var!r}")
        sources = [self.term(t, env) for t in f.sources]
        return any(
            s.has_tuple(name, (src, target))
            for name in s.signature.transitions
            for src in sources
        )

    def _not(self, f: Not, env: Mapping[str, str]) -> bool:
        return not self.eval(f.sub, env)

    def _and(self, f: And, env: Mapping[str, str]) -> bool:
        while self.eval(f.left, env):
            f = f.right
            if type(f) is not And:
                return self.eval(f, env)
        return False

    def _or(self, f: Or, env: Mapping[str, str]) -> bool:
        while not self.eval(f.left, env):
            f = f.right
            if type(f) is not Or:
                return self.eval(f, env)
        return True

    def _quantifier(self, f, env: Mapping[str, str]) -> bool:
        """Bind the variable to each element of the range in order, and stop
        at the ``count``-th body value that is not the quantifier's default
        (true for a universal); ``count`` is 1 unless ``f`` is a
        ``CountExists``."""
        universal, guarded = _QUANTIFIERS[type(f)]
        inner = dict(env)
        left = f.count if type(f) is CountExists else 1
        for e in self._guarded(f, inner) if guarded else self.s.universe:
            inner[f.var] = e
            if self.eval(f.body, inner) is not universal:
                left -= 1
                if not left:
                    return not universal
        return universal

    def _guarded(self, f, inner: dict[str, str]) -> Iterable[str]:
        """The elements satisfying the guard of the quantifier ``f``, in
        universe order.  When the guard is an atom of a binary relation with
        the bound variable in exactly one position, they are the partners
        of the other term's value, and the guard's errors are raised here,
        once the universe is non-empty.  Otherwise each element is bound in
        ``inner`` and tested only when the caller asks for the next one, so
        guard and body run interleaved, as in the plain definition."""
        guard, var = f.guard, f.var
        shape = sx.guard_shape(guard, var)
        if shape is not None:
            if not self.s.universe:
                return ()
            self.tuples(guard.name)
            if self.s.signature.relations[guard.name] == 2:
                source, backward = shape
                return self.s.partners(guard.name, backward)[self.term(source, inner)]
        return self._tested(guard, var, inner)

    def _tested(self, guard: FOFormula, var: str, inner: dict[str, str]):
        for e in self.s.universe:
            inner[var] = e
            if self.eval(guard, inner):
                yield e


_LITERALS = {
    Rel: _Evaluator._rel,
    Eq: _Evaluator._eq,
    Top: _Evaluator._top,
    Bottom: _Evaluator._bottom,
}
#: Per quantifier class: whether it is universal, and whether it ranges over
#: its guard's elements (``_Evaluator._guarded``) rather than the universe.
_QUANTIFIERS = {
    Forall: (True, False),
    Exists: (False, False),
    BoundedForall: (True, True),
    BoundedExists: (False, True),
    CountExists: (False, True),
}
_COMPOUNDS = {
    And: _Evaluator._and,
    Or: _Evaluator._or,
    Not: _Evaluator._not,
    Acc: _Evaluator._acc,
    **dict.fromkeys(_QUANTIFIERS, _Evaluator._quantifier),
}


def eval_fo(
    f: FOFormula, s: Structure, env: Mapping[str, str] | None = None
) -> bool:
    """Tarskian evaluation; constants read from the basepoints.  Counting
    quantifiers hold when at least ``count`` distinct witnesses satisfy
    guard and body."""
    return _Evaluator(s).eval(f, dict(env or {}))


# -- standard translation --------------------------------------------------------


def standard_translation(
    f: HybridFormula, anchor: str | Term = "x", transition: str = "E"
) -> FOFormula:
    """Compositional translation into the bounded fragment, parameterised on
    the anchor (the world where the formula is evaluated).

    World variables bound by the binder are tracked in an environment mapping
    them to the anchor term current at binding time, which realizes the
    substitution clauses without textual substitution.  Fresh first-order
    variables are drawn deterministically from ``y, y1, y2, ...``.
    """
    anchor_term: Term = Var(anchor) if isinstance(anchor, str) else anchor
    used: set[str] = set()
    if isinstance(anchor_term, Var):
        used.add(anchor_term.name)

    def collect(g: HybridFormula):
        if isinstance(g, Bind):
            used.add(g.var)
        for sub in sx.hybrid_subformulas(g):
            collect(sub)

    collect(f)

    def st(g: HybridFormula, a: Term, env: dict[str, Term]) -> FOFormula:
        if isinstance(g, Atom):
            return Rel(atom_relation(g.name), (a,))
        if isinstance(g, WVar):
            if g.name not in env:
                raise ScopeError(f"unbound world variable {g.name!r}")
            return Eq(a, env[g.name])
        if isinstance(g, Nom):
            return Eq(a, Const(g.index))
        if isinstance(g, Neg):
            return Not(st(g.sub, a, env))
        if isinstance(g, Conj):
            return And(st(g.left, a, env), st(g.right, a, env))
        if isinstance(g, Disj):
            return Or(st(g.left, a, env), st(g.right, a, env))
        if isinstance(g, (Box, Dia, BoxInv, DiaInv)):
            y = sx.fresh_var(used)
            used.add(y)
            forward = isinstance(g, (Box, Dia))
            guard = Rel(transition, (a, Var(y)) if forward else (Var(y), a))
            body = st(g.sub, Var(y), env)
            if isinstance(g, (Dia, DiaInv)):
                return BoundedExists(y, guard, body)
            return BoundedForall(y, guard, body)
        if isinstance(g, Bind):
            return st(g.sub, a, {**env, g.var: a})
        if isinstance(g, At):
            if isinstance(g.anchor, WVar):
                if g.anchor.name not in env:
                    raise ScopeError(f"unbound world variable {g.anchor.name!r}")
                return st(g.sub, env[g.anchor.name], env)
            if isinstance(g.anchor, Nom):
                return st(g.sub, Const(g.anchor.index), env)
            raise TypeError(f"@ anchor must be a world variable or nominal: {g.anchor!r}")
        raise TypeError(f"not a hybrid formula: {g!r}")

    return st(f, anchor_term, {})


def eval_hybrid(f: HybridFormula, s: Structure) -> bool:
    """Truth at the first basepoint, via the standard translation."""
    if s.signature.num_basepoints < 1:
        raise ValueError("hybrid evaluation needs at least one basepoint")
    if len(s.signature.transitions) != 1:
        raise ValueError("hybrid evaluation requires a single transition relation")
    (transition,) = s.signature.transitions
    translated = standard_translation(f, "x", transition)
    return eval_fo(translated, s, {"x": s.basepoints[0]})


# -- Gaifman relativization --------------------------------------------------------


def adjacency_formula(u: Term, v: Term, signature: Signature, used: set[str]) -> FOFormula:
    """First-order definition of Gaifman adjacency of two distinct elements:
    they co-occur in some tuple of some relation."""
    parts: list[FOFormula] = []
    for name in sorted(signature.relations):
        arity = signature.relations[name]
        if arity < 2:
            continue
        for i, j in product(range(arity), repeat=2):
            if i == j:
                continue
            fresh: list[str] = []
            args: list[Term] = []
            for p in range(arity):
                if p == i:
                    args.append(u)
                elif p == j:
                    args.append(v)
                else:
                    z = sx.fresh_var(used | set(fresh), "z")
                    fresh.append(z)
                    args.append(Var(z))
            atom: FOFormula = Rel(name, tuple(args))
            for z in reversed(fresh):
                atom = Exists(z, atom)
            parts.append(atom)
    return And(Not(Eq(u, v)), sx.disj_all(parts))


def distance_at_most(
    anchors: tuple[Term, ...], var: str, k: int, signature: Signature
) -> FOFormula:
    """Formula expressing that ``var`` lies within Gaifman distance ``k`` of
    some anchor.  Level j says that its variable is an anchor or adjacent to
    level j - 1's, which it binds.  Level k's is ``var``, the lower levels'
    are fresh names ``z, z1, ...`` chosen up front, and the adjacency formulas'
    inner names avoid them all, so no quantifier captures a level's variable."""
    used = {var} | {t.name for t in anchors if isinstance(t, Var)}
    names: list[str] = []
    for _ in range(k):
        names.append(sx.fresh_var(used, "z"))
        used.add(names[-1])
    names.append(var)

    def at_zero(v: str) -> FOFormula:
        return sx.disj_all([Eq(Var(v), a) for a in anchors])

    fm = at_zero(names[0])
    for lower, upper in zip(names, names[1:]):
        step = And(fm, adjacency_formula(Var(lower), Var(upper), signature, used))
        fm = Or(at_zero(upper), Exists(lower, step))
    return fm


def gaifman_relativize(f: FOFormula, k: int, signature: Signature) -> FOFormula:
    """Relativize every quantifier of ``f`` to the Gaifman k-ball around the
    anchors, the constants ``c1..cm``.  The anchors stay fixed
    through the recursion, so the result holds in a structure exactly when
    ``f`` holds in its ball part.  Each distinct node of the formula DAG is
    relativized once per call."""
    anchors = tuple(Const(i) for i in range(1, signature.num_basepoints + 1))

    @cache
    def dist(var: str) -> FOFormula:
        return distance_at_most(anchors, var, k, signature)

    # a dict, not @cache: rel recurses once per nesting level, and a cache
    # wrapper halves the depth a recursion can reach
    memo: dict[FOFormula, FOFormula] = {}

    def rel(g: FOFormula) -> FOFormula:
        got = memo.get(g)
        if got is None:
            got = memo[g] = step(g)
        return got

    def step(g: FOFormula) -> FOFormula:
        if isinstance(g, Forall):
            return Forall(g.var, Or(Not(dist(g.var)), rel(g.body)))
        if isinstance(g, Exists):
            return Exists(g.var, And(dist(g.var), rel(g.body)))
        if isinstance(g, BoundedForall):
            return Forall(g.var, Or(Not(dist(g.var)), Or(Not(g.guard), rel(g.body))))
        if isinstance(g, BoundedExists):
            return Exists(g.var, And(dist(g.var), And(g.guard, rel(g.body))))
        if isinstance(g, CountExists):
            return CountExists(g.count, g.var, g.guard, And(dist(g.var), rel(g.body)))
        return sx.rebuild(g, rel)

    return rel(f)

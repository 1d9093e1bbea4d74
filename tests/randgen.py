"""Seeded random generators for structures, formulas, and homomorphisms,
for the tests.

Everything here is driven by an explicit ``random.Random`` instance so test
runs are reproducible; nothing in the package itself uses randomness.
"""
from __future__ import annotations

import random
from typing import Sequence

from hybridkit.structures import Signature, Structure
from hybridkit.comonads import ComonadStructure, play_parts
from hybridkit import syntax as sx


def random_structure(
    rng: random.Random,
    max_size: int = 5,
    signature: Signature | None = None,
    edge_bias: float = 0.4,
) -> Structure:
    """A random pointed structure over the given signature (default: two
    unary and two binary symbols with one transition, one basepoint)."""
    if signature is None:
        signature = Signature(
            {"P": 1, "Q": 1, "E": 2, "F": 2}, transitions=["E"], num_basepoints=1
        )
    size = rng.randint(1, max_size)
    universe = [f"v{i}" for i in range(size)]
    rels: dict[str, list[tuple[str, ...]]] = {}
    for name, arity in signature.relations.items():
        tuples = []
        if arity == 1:
            for e in universe:
                if rng.random() < 0.5:
                    tuples.append((e,))
        else:
            for _ in range(int(edge_bias * size * arity) + rng.randint(0, size)):
                tuples.append(tuple(rng.choice(universe) for _ in range(arity)))
        rels[name] = tuples
    bps = [rng.choice(universe) for _ in range(signature.num_basepoints)]
    if signature.num_basepoints > 1:
        # distinct basepoints keep cover enumeration meaningful
        bps = rng.sample(universe, min(signature.num_basepoints, size))
        while len(bps) < signature.num_basepoints:
            bps.append(rng.choice(universe))
    return Structure(signature, universe, rels, bps)


def random_quotient(rng: random.Random, s: Structure) -> tuple[dict[str, str], Structure]:
    """A random surjection onto an image structure; the map is a
    homomorphism onto it by construction."""
    size = rng.randint(1, len(s.universe))
    targets = [f"w{i}" for i in range(size)]
    mapping = {e: rng.choice(targets) for e in s.universe}
    used = sorted(set(mapping.values()), key=targets.index)
    rels = {
        name: [tuple(mapping[e] for e in tup) for tup in tuples]
        for name, tuples in s.relations.items()
    }
    bps = tuple(mapping[e] for e in s.basepoints)
    image = Structure(s.signature, used, rels, bps)
    return mapping, image


def random_cokleisli_map(
    rng: random.Random, c: ComonadStructure
) -> tuple[dict[str, str], Structure]:
    """A random coKleisli homomorphism out of a carrier: compose the counit
    with a random quotient of the base."""
    mapping, image = random_quotient(rng, c.base)
    h = {play: mapping[play_parts(play)[-1]] for play in c.plays}
    return h, image


def random_bounded_sentence(
    rng: random.Random, signature: Signature, rank: int, max_breadth: int = 2
) -> sx.FOFormula:
    """A random sentence of the bounded fragment with quantifier rank exactly
    at most ``rank``, using the signature's transitions as guards."""
    transitions = sorted(signature.transitions)
    constants = [sx.Const(i) for i in range(1, signature.num_basepoints + 1)]

    def go(depth: int, scope: list[sx.Term], fuel: int) -> sx.FOFormula:
        choices = ["atom", "eq", "not", "and", "or"]
        if depth > 0 and transitions:
            choices += ["bexists", "bforall", "count"]
        kind = rng.choice(choices)
        if kind == "atom" or fuel <= 0:
            name = rng.choice(sorted(signature.relations))
            arity = signature.relations[name]
            return sx.Rel(name, tuple(rng.choice(scope) for _ in range(arity)))
        if kind == "eq":
            return sx.Eq(rng.choice(scope), rng.choice(scope))
        if kind == "not":
            return sx.Not(go(depth, scope, fuel - 1))
        if kind in ("and", "or"):
            ctor = sx.And if kind == "and" else sx.Or
            return ctor(go(depth, scope, fuel - 1), go(depth, scope, fuel - 1))
        var = f"y{sum(1 for t in scope if isinstance(t, sx.Var)) + 1}"
        guard_src = rng.choice(scope)
        guard = sx.Rel(rng.choice(transitions), (guard_src, sx.Var(var)))
        body = go(depth - 1, scope + [sx.Var(var)], fuel - 1)
        if kind == "bexists":
            return sx.BoundedExists(var, guard, body)
        if kind == "bforall":
            return sx.BoundedForall(var, guard, body)
        return sx.CountExists(rng.randint(1, 3), var, guard, body)

    if not constants:
        raise ValueError("bounded sentences need at least one constant")
    return go(rank, list(constants), max_breadth * (rank + 2))


def random_fo_sentence(
    rng: random.Random, signature: Signature, rank: int, max_breadth: int = 2
) -> sx.FOFormula:
    """A random first-order sentence with unguarded quantifiers allowed."""
    constants = [sx.Const(i) for i in range(1, signature.num_basepoints + 1)]

    def go(depth: int, scope: list[sx.Term], fuel: int) -> sx.FOFormula:
        choices = ["atom", "eq", "not", "and", "or"]
        if depth > 0:
            choices += ["exists", "forall"]
        kind = rng.choice(choices)
        if kind == "atom" or fuel <= 0:
            name = rng.choice(sorted(signature.relations))
            arity = signature.relations[name]
            return sx.Rel(name, tuple(rng.choice(scope) for _ in range(arity)))
        if kind == "eq":
            return sx.Eq(rng.choice(scope), rng.choice(scope))
        if kind == "not":
            return sx.Not(go(depth, scope, fuel - 1))
        if kind in ("and", "or"):
            ctor = sx.And if kind == "and" else sx.Or
            return ctor(go(depth, scope, fuel - 1), go(depth, scope, fuel - 1))
        var = f"y{sum(1 for t in scope if isinstance(t, sx.Var)) + 1}"
        body = go(depth - 1, scope + [sx.Var(var)], fuel - 1)
        return sx.Exists(var, body) if kind == "exists" else sx.Forall(var, body)

    if not constants:
        raise ValueError("sentences need at least one constant in scope")
    return go(rank, list(constants), max_breadth * (rank + 2))


def random_hybrid_formula(
    rng: random.Random,
    depth: int,
    atoms: Sequence[str] = ("p", "q"),
    fuel: int = 8,
) -> sx.HybridFormula:
    """A random closed hybrid formula of modal depth at most ``depth``."""

    def go(budget: int, bound: list[str], fuel: int) -> sx.HybridFormula:
        choices = ["atom", "not", "and", "or"]
        if bound:
            choices += ["var", "at"]
        if budget > 0:
            choices += ["box", "dia", "down"]
        kind = rng.choice(choices)
        if kind == "atom" or fuel <= 0:
            return sx.Atom(rng.choice(list(atoms)))
        if kind == "var":
            return sx.WVar(rng.choice(bound))
        if kind == "not":
            return sx.Neg(go(budget, bound, fuel - 1))
        if kind in ("and", "or"):
            ctor = sx.Conj if kind == "and" else sx.Disj
            return ctor(go(budget, bound, fuel - 1), go(budget, bound, fuel - 1))
        if kind == "box":
            return sx.Box(go(budget - 1, bound, fuel - 1))
        if kind == "dia":
            return sx.Dia(go(budget - 1, bound, fuel - 1))
        if kind == "at":
            return sx.At(sx.WVar(rng.choice(bound)), go(budget, bound, fuel - 1))
        var = f"x{len(bound) + 1}"
        return sx.Bind(var, go(budget, bound + [var], fuel - 1))

    return go(depth, [], fuel)

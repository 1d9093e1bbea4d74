"""Seeded input generators for the benchmark.

Everything here uses only the standard library and an explicit
``random.Random``: the package's own ``randgen`` is deliberately not used, so
a change to the package cannot change the workload.  Structures come out as
JSON documents (the documented file format) and sentences as formula text;
the package only ever sees these serialized inputs.
"""
from __future__ import annotations

import json
import random

UNIMODAL = {"relations": {"E": 2, "P": 1, "Q": 1}, "transitions": ["E"]}
BIMODAL = {"relations": {"E": 2, "F": 2, "P": 1}, "transitions": ["E", "F"]}


def random_structure(
    rng: random.Random, size: int, signature: dict, basepoints: int, edges_per_element: float
) -> dict:
    """A structure document in which every element is reachable from a
    basepoint, with ``round(edges_per_element * size)`` distinct tuples per
    transition relation on average (never fewer than a spanning forest
    needs), and each element in each unary relation with probability one
    half.

    A random spanning forest from the basepoints makes generated tree covers
    exist, so depth and cover tasks do real work; fixing the edge count per
    size keeps the cost of a task from swinging with the seed."""
    universe = [f"v{i}" for i in range(size)]
    transitions = list(signature["transitions"])
    roots = rng.sample(universe, basepoints)
    edges: set[tuple[str, str, str]] = set()
    reached = list(roots)
    for v in rng.sample(universe, size):
        if v in roots:
            continue
        edges.add((rng.choice(transitions), rng.choice(reached), v))
        reached.append(v)
    target = max(len(edges), round(edges_per_element * size * len(transitions)))
    while len(edges) < target:
        edges.add((rng.choice(transitions), rng.choice(universe), rng.choice(universe)))
    relations: dict[str, list[list[str]]] = {}
    for name, arity in sorted(signature["relations"].items()):
        if arity == 1:
            relations[name] = [[e] for e in universe if rng.random() < 0.5]
        else:
            relations[name] = sorted([u, v] for r, u, v in edges if r == name)
    return {
        "signature": {
            "relations": dict(sorted(signature["relations"].items())),
            "transitions": transitions,
        },
        "universe": universe,
        "relations": relations,
        "basepoints": roots,
    }


def out_regular_structure(
    rng: random.Random, size: int, signature: dict, basepoints: int, out_degree: int
) -> dict:
    """A structure document in which every element has exactly
    ``out_degree`` distinct successors along each transition relation, and
    is in each unary relation with probability one half.  Equal out-degrees
    keep the branching of games and the size of characteristic formulas,
    and so the cost of a task, close across seeds."""
    universe = [f"v{i}" for i in range(size)]
    relations: dict[str, list[list[str]]] = {}
    for name, arity in sorted(signature["relations"].items()):
        if arity == 1:
            relations[name] = [[e] for e in universe if rng.random() < 0.5]
        else:
            relations[name] = sorted(
                [u, v] for u in universe for v in rng.sample(universe, out_degree)
            )
    return {
        "signature": {
            "relations": dict(sorted(signature["relations"].items())),
            "transitions": list(signature["transitions"]),
        },
        "universe": universe,
        "relations": relations,
        "basepoints": rng.sample(universe, basepoints),
    }


def iso_partner(rng: random.Random, doc: dict) -> dict:
    """A relabelled copy with the universe and every tuple list permuted.
    Its known answer is "equivalent" for every logic at every k."""
    old = doc["universe"]
    names = [f"w{i}" for i in range(len(old))]
    rng.shuffle(names)
    rename = dict(zip(old, names))
    universe = [rename[e] for e in old]
    rng.shuffle(universe)
    relations = {}
    for name, tuples in doc["relations"].items():
        moved = [[rename[e] for e in t] for t in tuples]
        rng.shuffle(moved)
        relations[name] = moved
    return {
        "signature": doc["signature"],
        "universe": universe,
        "relations": relations,
        "basepoints": [rename[e] for e in doc["basepoints"]],
    }


def near_partner(rng: random.Random, doc: dict) -> dict:
    """The same structure with one tuple of one relation added or removed."""
    name = rng.choice(sorted(doc["relations"]))
    arity = doc["signature"]["relations"][name]
    tuples = [list(t) for t in doc["relations"][name]]
    absent = [
        t
        for t in _all_tuples(doc["universe"], arity)
        if t not in tuples
    ]
    if tuples and (not absent or rng.random() < 0.5):
        tuples.pop(rng.randrange(len(tuples)))
    else:
        tuples.append(rng.choice(absent))
    relations = dict(doc["relations"])
    relations[name] = sorted(tuples)
    return {**doc, "relations": relations}


def _all_tuples(universe: list[str], arity: int) -> list[list[str]]:
    if arity == 1:
        return [[e] for e in universe]
    return [[u, v] for u in universe for v in universe]


def dumps(doc: dict) -> str:
    """Canonical text of a document: the bytes the package parses."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


# -- sentences -----------------------------------------------------------------------


def random_bounded_sentence(rng: random.Random, rank: int) -> str:
    """Text of a random bounded sentence over the unimodal signature with
    quantifier rank at most ``rank``: every quantifier is guarded by an
    ``E`` step from a term already in scope, so the sentence is invariant
    under taking the ``rank``-generated substructure."""

    def go(depth: int, scope: list[str], fuel: int) -> str:
        kinds = ["atom", "atom", "eq", "not", "and", "or"]
        if depth > 0:
            kinds += ["exists", "forall", "count"]
        kind = rng.choice(kinds)
        if kind == "atom" or fuel <= 0:
            name = rng.choice(["E", "P", "Q"])
            if name == "E":
                return f"E({rng.choice(scope)},{rng.choice(scope)})"
            return f"{name}({rng.choice(scope)})"
        if kind == "eq":
            return f"{rng.choice(scope)} = {rng.choice(scope)}"
        if kind == "not":
            return f"!({go(depth, scope, fuel - 1)})"
        if kind in ("and", "or"):
            op = " & " if kind == "and" else " | "
            return f"({go(depth, scope, fuel - 1)}{op}{go(depth, scope, fuel - 1)})"
        var = f"y{len(scope)}"
        guard = f"E({rng.choice(scope)},{var})"
        body = go(depth - 1, scope + [var], fuel - 1)
        if kind == "exists":
            return f"exists {var} ({guard} & {body})"
        if kind == "forall":
            return f"forall {var} ({guard} -> {body})"
        return f"exists>={rng.randint(1, 2)} {var} ({guard} & {body})"

    return go(rank, ["c1"], 2 * (rank + 2))


def random_fo_sentence(rng: random.Random, rank: int) -> str:
    """Text of a random first-order sentence over the unimodal signature
    with unguarded quantifiers, quantifier rank at most ``rank``."""

    def go(depth: int, scope: list[str], fuel: int) -> str:
        kinds = ["atom", "atom", "eq", "not", "and", "or"]
        if depth > 0:
            kinds += ["exists", "forall"]
        kind = rng.choice(kinds)
        if kind == "atom" or fuel <= 0:
            name = rng.choice(["E", "P", "Q"])
            if name == "E":
                return f"E({rng.choice(scope)},{rng.choice(scope)})"
            return f"{name}({rng.choice(scope)})"
        if kind == "eq":
            return f"{rng.choice(scope)} = {rng.choice(scope)}"
        if kind == "not":
            return f"!({go(depth, scope, fuel - 1)})"
        if kind in ("and", "or"):
            op = " & " if kind == "and" else " | "
            return f"({go(depth, scope, fuel - 1)}{op}{go(depth, scope, fuel - 1)})"
        var = f"y{len(scope)}"
        return f"{kind} {var} ({go(depth - 1, scope + [var], fuel - 1)})"

    return go(rank, ["c1"], 2 * (rank + 2))

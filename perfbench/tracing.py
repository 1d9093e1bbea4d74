"""Span wrappers for the traced run.

The traced run installs these wrappers, from the benchmark's side, around
the public entry points of each ``hybridkit`` module, in every
``hybridkit.*`` namespace that holds a reference to them.  Nothing here
runs in an untraced run, and the package itself is never edited.

A span opens only where a call crosses into another layer: a call into a
layer from inside the same layer is that entry point's own work (for
example ``solve`` dispatching to ``solve_bijection``, or
``generated_tree_depth`` enumerating covers), so it opens no new span.  This
is also the re-entrancy guard.  A span's self time is its duration minus the
time covered by its child spans, and each span keeps a link to the span that
caused it; totals are kept per name and per (parent, child) edge.  The
recursive ``syntax.free_vars`` is deliberately not wrapped: it runs inside
``eval_fo`` and is charged to ``semantics.eval``.

Counters are read from return values and arguments at the boundary (carrier
plays, strategy entries, formula DAG and tree nodes, workspace elements,
covers and coalgebras enumerated, parsed characters).  The time spent
counting is excluded from every span and reported as ``trace.count_s``.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "structures",
    "parser",
    "semantics",
    "scott",
    "comonads",
    "games",
    "coalgebras",
    "characterization",
)

#: Game variant value -> metric name; the six logic names the benchmark
#: solves, plus the two variants reached through other entry points.
VARIANT_NAMES = {
    "back-forth-hybrid": "hybrid",
    "back-forth-bounded": "bf",
    "back-forth-temporal": "hybrid-temporal",
    "existential-hybrid": "existential-hybrid",
    "existential-bounded": "existential-bf",
    "bijection": "bc",
    "comonadic-gk": "comonadic-gk",
    "ef": "ef",
}

#: Every per-layer metric name with its unit, in report order.
LAYER_METRICS: list[tuple[str, str]] = [
    ("structures.load.calls", "count/task"),
    ("structures.load.busy_s", "s"),
    ("structures.partial_iso.calls", "count/task"),
    ("structures.partial_iso.busy_s", "s"),
    ("structures.transform.busy_s", "s"),
    ("parser.parse.busy_s", "s"),
    ("parser.parse.chars", "count/task"),
    ("parser.print.busy_s", "s"),
    ("semantics.eval.calls", "count/task"),
    ("semantics.eval.busy_s", "s"),
    ("semantics.relativize.busy_s", "s"),
    ("scott.chi.busy_s", "s"),
    ("scott.chi.dag_nodes", "count/task"),
    ("scott.chi.tree_nodes", "count/task"),
    ("scott.formula.busy_s", "s"),
    ("scott.type.busy_s", "s"),
    ("comonads.build.calls", "count/task"),
    ("comonads.build.busy_s", "s"),
    ("comonads.build.plays", "count/task"),
    ("comonads.cokleisli.busy_s", "s"),
]
for _variant in VARIANT_NAMES.values():
    LAYER_METRICS += [
        (f"games.solve.{_variant}.calls", "count/task"),
        (f"games.solve.{_variant}.busy_s", "s"),
    ]
LAYER_METRICS += [
    ("games.strategy.busy_s", "s"),
    ("games.strategy.entries", "count/task"),
    ("games.verify.busy_s", "s"),
    ("games.rank.busy_s", "s"),
    ("coalgebras.depth.busy_s", "s"),
    ("coalgebras.number.busy_s", "s"),
    ("coalgebras.enumerate.busy_s", "s"),
    ("coalgebras.enumerate.covers", "count/task"),
    ("coalgebras.convert.busy_s", "s"),
    ("characterization.workspace.busy_s", "s"),
    ("characterization.workspace.elements", "count/task"),
    ("characterization.invariance.busy_s", "s"),
]
LAYER_METRICS += [(f"{layer}.errors", "count") for layer in LAYERS]
LAYER_METRICS += [
    ("bench.busy_s", "s"),
    ("trace.busy_s", "s"),
    ("trace.count_s", "s"),
    ("trace.tasks_per_s", "1/s"),
    ("trace.exercised_share", "ratio"),
    ("trace.bypassed_share", "ratio"),
]

#: The interactions table: busy-time metric prefixes of each row, the
#: workloads that exercise the row and the workloads that bypass it.
INTERACTIONS = [
    (("semantics.eval.", "scott.chi."), {"formulas"}, {"games"}),
    (
        ("games.verify.", "games.strategy.", "structures.partial_iso."),
        {"games", "constructions"},
        {"formulas"},
    ),
    (("games.solve.",), {"games"}, {"formulas"}),
    (("comonads.build.", "comonads.cokleisli."), {"games", "constructions"}, {"formulas"}),
    (("coalgebras.depth.", "coalgebras.number."), {"constructions"}, {"games", "formulas"}),
    (("parser.parse.",), {"formulas", "constructions"}, {"games"}),
]


def formula_sizes(root) -> tuple[int, int]:
    """(DAG nodes, tree nodes) of a formula: distinct node objects, and the
    size of the formula written out as a tree."""
    from hybridkit.syntax import FOFormula

    def children(node) -> list:
        values = (getattr(node, f.name) for f in dataclasses.fields(node))
        return [v for v in values if isinstance(v, FOFormula)]

    tree: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in tree and not expanded:
            continue
        if expanded:
            tree[key] = 1 + sum(tree[id(c)] for c in children(node))
        else:
            tree.setdefault(key, 0)
            stack.append((node, True))
            stack.extend((c, False) for c in children(node) if id(c) not in tree)
    return len(tree), tree[id(root)]


class Tracer:
    """Per-name span totals for one traced run."""

    def __init__(self):
        # a frame is [layer, span name, child seconds]; the root frame is the
        # benchmark's own code
        self.stack: list[list] = [["bench", "bench", 0.0]]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.count_seconds = 0.0

    def span(self, name: str, layer: str, original, args, kwargs, counter=None):
        stack = self.stack
        parent = stack[-1]
        frame = [layer, name, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            if not getattr(exc, "_perfbench_counted", False):
                self.errors[layer] += 1
                exc._perfbench_counted = True
            raise
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self.calls[name] += 1
            self.busy[name] += elapsed - frame[2]
            self.edges[(parent[1], name)] += 1
            parent[2] += elapsed
        if counter is not None:
            began = perf_counter()
            for key, value in counter(result, args, kwargs):
                self.counts[key] += value
            spent = perf_counter() - began
            self.count_seconds += spent
            parent[2] += spent
        return result

    def wrap(self, name_of, layer: str, original, counter=None):
        """A traced stand-in for ``original``; ``name_of`` is the span name
        or a function of the call's arguments giving it."""
        fixed = name_of if isinstance(name_of, str) else None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self.stack[-1][0] == layer:
                return original(*args, **kwargs)
            name = fixed or name_of(args, kwargs)
            return self.span(name, layer, original, args, kwargs, counter)

        return traced

    def wrap_generator(self, name: str, layer: str, original, count_key: str):
        """A traced stand-in for a generator function: each step of the
        iteration is one span, and each yielded item is counted."""
        done = object()

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                if self.stack[-1][0] == layer:
                    item = next(inner, done)
                else:
                    item = self.span(name, layer, next, (inner, done), {})
                if item is done:
                    return
                if self.stack[-1][0] != layer:
                    self.counts[count_key] += 1
                yield item

        return traced


def _solve_name(args, kwargs) -> str:
    variant = args[2] if len(args) > 2 else kwargs["variant"]
    return "games.solve." + VARIANT_NAMES.get(variant.value, variant.value)


def _count_plays(result, args, kwargs):
    yield "comonads.build.plays", len(result.plays)


def _count_chi(result, args, kwargs):
    dag, tree = formula_sizes(result)
    yield "scott.chi.dag_nodes", dag
    yield "scott.chi.tree_nodes", tree


def _count_chars(result, args, kwargs):
    text = args[0] if args else kwargs["text"]
    yield "parser.parse.chars", len(text)


def _count_elements(result, args, kwargs):
    yield "characterization.workspace.elements", len(result[0])


def _count_entries(result, args, kwargs):
    yield "games.strategy.entries", len(result)


def install(tracer: Tracer) -> None:
    """Replace each entry point by its traced stand-in in every loaded
    ``hybridkit`` namespace that refers to it."""
    from hybridkit import (
        characterization,
        coalgebras,
        comonads,
        games,
        parser,
        scott,
        semantics,
        structures,
    )

    plain = [
        (structures, "structure_from_data", "structures.load", None),
        (structures, "is_partial_isomorphism", "structures.partial_iso", None),
        (structures, "reachable_part", "structures.transform", None),
        (structures, "ball_part", "structures.transform", None),
        (structures, "disjoint_union", "structures.transform", None),
        (parser, "parse_fo", "parser.parse", _count_chars),
        (parser, "print_fo", "parser.print", None),
        (semantics, "eval_fo", "semantics.eval", None),
        (semantics, "gaifman_relativize", "semantics.relativize", None),
        (scott, "characteristic_formula", "scott.chi", _count_chi),
        (scott, "scott_formula", "scott.formula", None),
        (scott, "normalize_counting", "scott.formula", None),
        (scott, "scott_type", "scott.type", None),
        (comonads, "build_comonad", "comonads.build", _count_plays),
        (comonads, "find_cokleisli_morphism", "comonads.cokleisli", None),
        (games, "solve", _solve_name, None),
        (games, "solve_bijection", "games.solve.bc", None),
        (games, "solve_Gk", "games.solve.comonadic-gk", None),
        (games, "verify_strategy", "games.verify", None),
        (games, "back_and_forth_rank", "games.rank", None),
        (coalgebras, "generated_tree_depth", "coalgebras.depth", None),
        (coalgebras, "coalgebra_number", "coalgebras.number", None),
        (coalgebras, "cover_to_coalgebra", "coalgebras.convert", None),
        (coalgebras, "coalgebra_to_cover", "coalgebras.convert", None),
        (characterization, "build_workspace", "characterization.workspace", _count_elements),
        (characterization, "verify_workspace", "characterization.workspace", None),
        (characterization, "check_invariance", "characterization.invariance", None),
    ]
    replacements = {}
    for module, attr, name, counter in plain:
        layer = module.__name__.rsplit(".", 1)[1]
        original = getattr(module, attr)
        replacements[id(original)] = tracer.wrap(name, layer, original, counter)
    for original in (coalgebras.enumerate_generated_covers, coalgebras.enumerate_coalgebras):
        replacements[id(original)] = tracer.wrap_generator(
            "coalgebras.enumerate", "coalgebras", original, "coalgebras.enumerate.covers"
        )
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hybridkit" or name.startswith("hybridkit.")):
            continue
        for attr, value in list(vars(module).items()):
            stand_in = replacements.get(id(value))
            if stand_in is not None:
                setattr(module, attr, stand_in)

    strategy = games.GameResult.strategy
    getter = tracer.wrap("games.strategy", "games", strategy.fget, _count_entries)
    games.GameResult.strategy = property(getter, doc=strategy.__doc__)


def layer_metrics(
    tracer: Tracer, workload: str, tasks: int, busy_s: float, tasks_per_s: float
) -> dict:
    """The per-layer metrics of one traced run, every name in
    ``LAYER_METRICS`` present.  Busy times are totals over the run; work
    counts are averages per task attempted, so that runs which complete
    different numbers of tasks compare."""
    values: dict[str, float] = {}
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls / tasks
        values[f"{name}.busy_s"] = tracer.busy[name]
    for name, count in tracer.counts.items():
        values[name] = count / tasks
    for layer in LAYERS:
        values[f"{layer}.errors"] = tracer.errors[layer]  # a total, not per task
    spans = sum(tracer.busy.values())
    values["bench.busy_s"] = busy_s - spans - tracer.count_seconds
    values["trace.busy_s"] = busy_s
    values["trace.count_s"] = tracer.count_seconds
    values["trace.tasks_per_s"] = tasks_per_s
    exercised = bypassed = 0.0
    for prefixes, uses, skips in INTERACTIONS:
        share = sum(
            seconds
            for name, seconds in tracer.busy.items()
            if f"{name}.".startswith(prefixes)
        )
        if workload in uses:
            exercised += share
        if workload in skips:
            bypassed += share
    values["trace.exercised_share"] = exercised / busy_s
    values["trace.bypassed_share"] = bypassed / busy_s
    return {
        name: {"value": values.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS
    }

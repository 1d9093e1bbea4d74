"""Command-line front end.

Exit codes: 0 the computed property holds (or Duplicator wins); 1 it fails
(or Spoiler wins); 2 usage or input error; 3 a resource guard tripped, or
the run ran out of recursion depth or memory.
All output is deterministic for fixed inputs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import product
from typing import TextIO

from .errors import HybridKitError, ParseError, ResourceLimitError
from .structures import (
    INF,
    Structure,
    load_structure,
)
from .parser import parse_fo, parse_hybrid, parse_term, print_fo
from .semantics import eval_fo, eval_hybrid, standard_translation
from .scott import characteristic_formula
from .syntax import is_relation_name
from .comonads import ComonadKind, build_comonad, dump_carrier
from .games import GameVariant, solve, trace_game
from .coalgebras import (
    cover_to_data,
    enumerate_generated_covers,
    coalgebra_number,
    generated_tree_depth,
)
from .characterization import WorkspaceStrategy, build_workspace, check_invariance

LOGIC_VARIANTS = {
    "hybrid": GameVariant.BACK_FORTH_HYBRID,
    "hybrid-temporal": GameVariant.BACK_FORTH_TEMPORAL,
    "bf": GameVariant.BACK_FORTH_BOUNDED,
    "bc": GameVariant.BIJECTION,
    "fo-ef": GameVariant.EF,
    "existential-hybrid": GameVariant.EXISTENTIAL_HYBRID,
    "existential-bf": GameVariant.EXISTENTIAL_BOUNDED,
    "bijection": GameVariant.BIJECTION,
}

COMONAD_KINDS = {kind.value: kind for kind in ComonadKind}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hybridkit",
        description="Games, comonads and tree covers over finite pointed structures.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a structure")
    p.add_argument("--structure", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--logic", choices=["hybrid", "fo"], default="hybrid")

    p = sub.add_parser("equiv", help="decide logical equivalence through the matching game")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument(
        "--logic",
        choices=sorted(LOGIC_VARIANTS),
        required=True,
        help="logic whose depth-k equivalence is decided "
        "(game variants: " + ", ".join(f"{k}->{v.value}" for k, v in sorted(LOGIC_VARIANTS.items())) + ")",
    )
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("game", help="solve a model-comparison game directly")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--variant", choices=sorted(v.value for v in GameVariant), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("comonad", help="materialize and dump a comonad carrier")
    p.add_argument("--structure", required=True)
    p.add_argument("--kind", choices=sorted(COMONAD_KINDS), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--with-i", action="store_true", dest="with_i")

    p = sub.add_parser("depth", help="generated tree depth and coalgebra number")
    p.add_argument("--structure", required=True)

    p = sub.add_parser("workspace", help="build and optionally verify a workspace")
    p.add_argument("--structure", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("invariance", help="check a sentence's invariance on a corpus")
    p.add_argument("--formula", required=True)
    p.add_argument("--notion", required=True, help="generated:K, ball:K, or disjoint")
    p.add_argument("--corpus", required=True, help="directory of structure JSON files")

    p = sub.add_parser("translate", help="standard translation of a hybrid formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--anchor", default="x")
    p.add_argument("--transition", default="E")

    p = sub.add_parser("characteristic", help="rank-k characteristic formula")
    p.add_argument("--structure", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--temporal", action="store_true")

    return top


def _initial_violation(a: Structure, b: Structure) -> str | None:
    """The first atomic fact on which the basepoint tuples disagree."""
    pairs = list(zip(a.basepoints, b.basepoints))
    for i, (x, y) in enumerate(pairs):
        for j, (x2, y2) in enumerate(pairs):
            if (x == x2) != (y == y2):
                return f"c{i + 1} = c{j + 1} holds on one side only"
    for name in sorted(a.signature.relations):
        arity = a.signature.relations[name]
        for idx in product(range(len(pairs)), repeat=arity):
            la = tuple(pairs[i][0] for i in idx)
            rb = tuple(pairs[i][1] for i in idx)
            in_a = a.has_tuple(name, la)
            in_b = b.has_tuple(name, rb)
            if in_a != in_b:
                args = ",".join(f"c{i + 1}" for i in idx)
                side = "left" if in_a else "right"
                return f"{name}({args}) holds on the {side} only"
    return None


def run(argv: list[str], out: TextIO | None = None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args, out)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=out)
        return 3
    except RecursionError:
        # a fixed line: the interpreter's own message varies by version
        print("resource limit: recursion too deep", file=out)
        return 3
    except MemoryError:
        print("resource limit: out of memory", file=out)
        return 3
    except (HybridKitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return 2


def _dispatch(args: argparse.Namespace, out: TextIO) -> int:
    if args.command == "check":
        s = load_structure(args.structure)
        if args.logic == "hybrid":
            formula = parse_hybrid(
                args.formula, num_nominals=s.signature.num_basepoints
            )
            value = eval_hybrid(formula, s)
        else:
            value = eval_fo(parse_fo(args.formula), s)
        print(f"result: {'true' if value else 'false'}", file=out)
        return 0 if value else 1

    if args.command == "equiv":
        a = load_structure(args.left)
        b = load_structure(args.right)
        result = solve(a, b, LOGIC_VARIANTS[args.logic], args.depth)
        print(f"logic: {args.logic} depth: {args.depth}", file=out)
        print(f"winner: {result.winner}", file=out)
        equivalent = result.winner == "Duplicator"
        print(f"equivalent: {'yes' if equivalent else 'no'}", file=out)
        if not equivalent:
            reason = _initial_violation(a, b)
            if reason is not None:
                print(f"reason: {reason}", file=out)
            else:
                rounds = "round" if args.depth == 1 else "rounds"
                print(f"reason: Spoiler wins within {args.depth} {rounds}", file=out)
        if args.trace:
            out.write(trace_game(result, a, b))
        return 0 if equivalent else 1

    if args.command == "game":
        a = load_structure(args.left)
        b = load_structure(args.right)
        result = solve(a, b, GameVariant(args.variant), args.k)
        print(f"winner: {result.winner}", file=out)
        if args.trace:
            out.write(trace_game(result, a, b))
        return 0 if result.winner == "Duplicator" else 1

    if args.command == "comonad":
        s = load_structure(args.structure)
        c = build_comonad(s, COMONAD_KINDS[args.kind], args.k, with_I=args.with_i)
        out.write(dump_carrier(c))
        return 0

    if args.command == "depth":
        s = load_structure(args.structure)
        depth = generated_tree_depth(s)
        number = coalgebra_number(s)
        print(f"generated tree depth: {_ext(depth)}", file=out)
        print(f"coalgebra number: {_ext(number)}", file=out)
        if depth != INF:
            witness = min(
                enumerate_generated_covers(s, depth - s.signature.num_basepoints),
                key=lambda c: sorted(c.parent.items()),
            )
            print(f"witness cover: {json.dumps(cover_to_data(witness))}", file=out)
            return 0
        print("witness cover: none", file=out)
        return 1

    if args.command == "workspace":
        s = load_structure(args.structure)
        if args.verify:  # the machine builds the workspace it verifies
            machine = WorkspaceStrategy(s, args.q)
            workspace = machine.workspace
            left, right = machine.left, machine.right
        else:
            workspace, left, right = build_workspace(s, args.q)
        print(f"workspace size: {len(workspace)}", file=out)
        print(f"bound 2q|A|: {2 * args.q * len(s)}", file=out)
        print(f"left size: {len(left)} right size: {len(right)}", file=out)
        if args.verify:
            ok = machine.verify()
            print(f"verified: {'yes' if ok else 'no'}", file=out)
            return 0 if ok else 1
        return 0

    if args.command == "invariance":
        formula = parse_fo(args.formula)
        names = sorted(
            n for n in os.listdir(args.corpus) if n.endswith(".json")
        )
        corpus = [load_structure(os.path.join(args.corpus, n)) for n in names]
        report = check_invariance(formula, args.notion, corpus)
        print(f"notion: {report.notion} corpus: {len(corpus)} structures", file=out)
        for entry in report.counterexamples:
            where = names[entry.index]
            if entry.partner is not None:
                where += f" + {names[entry.partner]}"
            print(
                f"counterexample: {where} "
                f"(original {str(entry.original).lower()}, "
                f"transformed {str(entry.transformed).lower()})",
                file=out,
            )
        print(f"invariant: {'yes' if report.invariant else 'no'}", file=out)
        return 0 if report.invariant else 1

    if args.command == "translate":
        formula = parse_hybrid(args.formula)
        try:
            anchor = parse_term(args.anchor)
        except ParseError as exc:
            raise ValueError(f"anchor {args.anchor!r}: {exc}") from None
        if not is_relation_name(args.transition):
            raise ValueError(f"transition {args.transition!r}: expected a relation name")
        translated = standard_translation(formula, anchor, args.transition)
        print(print_fo(translated), file=out)
        return 0

    if args.command == "characteristic":
        s = load_structure(args.structure)
        formula = characteristic_formula(s, args.k, temporal=args.temporal)
        print(print_fo(formula), file=out)
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def _ext(value: float) -> str:
    return "infinite" if value == INF else str(int(value))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

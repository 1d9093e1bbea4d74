"""Acceptance suite: one test per criterion, each printing a pass line with
the checked counts.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import io
import os
import random
import time

import pytest

from hybridkit.characterization import build_workspace, check_invariance, verify_workspace
from hybridkit.cli import run
from hybridkit.coalgebras import (
    check_coalgebra_laws,
    coalgebra_to_cover,
    cover_to_coalgebra,
    enumerate_coalgebras,
    enumerate_generated_covers,
)
from hybridkit.comonads import (
    ComonadKind,
    build_comonad,
    check_comonad_laws,
    find_cokleisli_morphism,
)
from hybridkit.games import (
    DUPLICATOR,
    SPOILER,
    GameVariant,
    back_and_forth_rank,
    solve,
    solve_Gk,
    solve_bijection,
)
from hybridkit.parser import parse_fo
from randgen import (
    random_bounded_sentence,
    random_cokleisli_map,
    random_fo_sentence,
    random_structure,
)
from hybridkit.scott import characteristic_formula, scott_type
from hybridkit.semantics import eval_fo, gaifman_relativize
from hybridkit.structures import Signature, ball_part

from cli_cases import CASES
from helpers import is_cokleisli_homomorphism
from fixtures import (
    BACK_EDGE,
    BOUNDED_FIXTURES,
    FIXTURES30,
    ISOLATED_P,
    STAR2,
    STAR3,
    UNIMODAL,
    pairs,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def report(criterion: int, detail: str):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


KINDS = [
    ComonadKind.EF,
    ComonadKind.MODAL,
    ComonadKind.HYBRID,
    ComonadKind.HYBRID_TEMPORAL,
    ComonadKind.BOUNDED,
]


RICH_UNIMODAL = Signature({"P": 1, "Q": 1, "E": 2, "F": 2}, ["E"], 1)


def test_criterion_1_comonad_laws():
    rng = random.Random(101)
    started = time.monotonic()
    checked = 0
    while checked < 200:
        base = random_structure(rng, max_size=5, signature=rng.choice([UNIMODAL, RICH_UNIMODAL]))
        kind = rng.choice(KINDS)
        k = rng.randint(1, 3)
        c_a = build_comonad(base, kind, k)
        h, image_b = random_cokleisli_map(rng, c_a)
        c_b = build_comonad(image_b, kind, k)
        g, image_c = random_cokleisli_map(rng, c_b)
        c_c = build_comonad(image_c, kind, k)
        result = check_comonad_laws(c_a, c_b, c_c, h, g)
        assert result.all_pass, (base, kind, k, result.failures)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"runtime target exceeded: {elapsed:.1f}s"
    report(1, f"{checked} random structures, three equations exact, {elapsed:.1f}s")


def test_criterion_2_existential_theorem():
    checked = 0
    i_carriers = {}

    def check(a, b, kind, variant, k):
        game = solve(a, b, variant, k).winner
        morphism = find_cokleisli_morphism(a, b, kind, k)
        assert (game == DUPLICATOR) == (morphism is not None), (a, b, k, kind)
        if morphism is not None:
            key = (a, kind, k)
            if key not in i_carriers:
                i_carriers[key] = build_comonad(a, kind, k, with_I=True)
            assert is_cokleisli_homomorphism(morphism, i_carriers[key], b), (a, b, k)

    for a, b in pairs(FIXTURES30):
        for k in (1, 2, 3):
            for kind, variant in (
                (ComonadKind.HYBRID, GameVariant.EXISTENTIAL_HYBRID),
                (ComonadKind.BOUNDED, GameVariant.EXISTENTIAL_BOUNDED),
            ):
                check(a, b, kind, variant, k)
                checked += 1
    for a, b in pairs(BOUNDED_FIXTURES):
        for k in (1, 2, 3):
            check(a, b, ComonadKind.BOUNDED, GameVariant.EXISTENTIAL_BOUNDED, k)
            checked += 1
    report(2, f"{checked} game/coKleisli comparisons, zero disagreements")


def test_criterion_3_back_and_forth_theorem():
    hybrid_checked = 0
    chis = {}
    for i, a in enumerate(FIXTURES30):
        for k in (0, 1, 2, 3):
            chis[(i, k)] = characteristic_formula(a, k)
    for i, a in enumerate(FIXTURES30):
        for b in FIXTURES30:
            for k in (0, 1, 2, 3):
                game = solve(a, b, GameVariant.BACK_FORTH_HYBRID, k).winner
                formulas = eval_fo(chis[(i, k)], b)
                assert (game == DUPLICATOR) == formulas, (a, b, k)
                if k >= 1:
                    assert solve_Gk(a, b, k).winner == game, (a, b, k)
                hybrid_checked += 1
    bounded_checked = 0
    for i, a in enumerate(FIXTURES30):
        for b in FIXTURES30:
            for k in (0, 1, 2, 3):
                game = solve(a, b, GameVariant.BACK_FORTH_BOUNDED, k).winner
                rank_rel = back_and_forth_rank(a, b, k)
                formulas = eval_fo(chis[(i, k)], b)
                assert (game == DUPLICATOR) == rank_rel == formulas, (a, b, k)
                bounded_checked += 1
    for a, b in pairs(BOUNDED_FIXTURES):
        for k in (0, 1, 2):
            game = solve(a, b, GameVariant.BACK_FORTH_BOUNDED, k).winner
            rank_rel = back_and_forth_rank(a, b, k)
            formulas = eval_fo(characteristic_formula(a, k), b)
            assert (game == DUPLICATOR) == rank_rel == formulas, (a, b, k)
            bounded_checked += 1
    report(
        3,
        f"{hybrid_checked} hybrid and {bounded_checked} bounded positions "
        "(basepoint counts 1 and 2), three procedures coincide",
    )


def test_criterion_4_coalgebra_cover_bijection():
    checked = 0
    for s in FIXTURES30:
        for k in (1, 2, 3):
            covers = list(enumerate_generated_covers(s, k))
            coalgebras = list(enumerate_coalgebras(s, ComonadKind.HYBRID, k))
            assert len(covers) == len(coalgebras), (s, k)
            for cover in covers:
                alg = cover_to_coalgebra(cover, k)
                assert check_coalgebra_laws(alg).all_pass
                assert coalgebra_to_cover(alg) == cover
            assert {coalgebra_to_cover(c) for c in coalgebras} == set(covers)
            checked += len(covers)
    report(4, f"cover/coalgebra counts equal on every fixture, {checked} round trips")


def test_criterion_5_counting_theorem():
    checked = 0
    types = {}
    for i, a in enumerate(FIXTURES30):
        for k in (0, 1, 2):
            types[(i, k)] = scott_type(a, k)
    for i, a in enumerate(FIXTURES30):
        for j, b in enumerate(FIXTURES30):
            for k in (0, 1, 2):
                bij = solve_bijection(a, b, k).winner
                assert (bij == DUPLICATOR) == (types[(i, k)] == types[(j, k)]), (a, b, k)
                checked += 1
    for a, b in pairs(BOUNDED_FIXTURES):
        for k in (0, 1, 2):
            bij = solve_bijection(a, b, k).winner
            assert (bij == DUPLICATOR) == (scott_type(a, k) == scott_type(b, k))
            checked += 1
    assert solve_bijection(STAR2, STAR3, 1).winner == SPOILER
    assert solve(STAR2, STAR3, GameVariant.BACK_FORTH_BOUNDED, 1).winner == DUPLICATOR
    assert solve(STAR2, STAR3, GameVariant.BACK_FORTH_BOUNDED, 2).winner == DUPLICATOR
    assert solve(STAR2, STAR3, GameVariant.BACK_FORTH_BOUNDED, 3).winner == SPOILER
    report(5, f"{checked} bijection/type comparisons; stars split at k=1 vs k=3")


def test_criterion_6_workspace_lemma():
    started = time.monotonic()
    checked = 0
    for s in FIXTURES30:
        for q in (1, 2):
            workspace, _, _ = build_workspace(s, q)
            assert len(workspace) <= 2 * q * len(s), (s, q)
            assert verify_workspace(s, q), (s, q)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"runtime target exceeded: {elapsed:.1f}s"
    report(6, f"{checked} workspace builds verified exhaustively, {elapsed:.1f}s")


def test_criterion_7_invariance():
    rng = random.Random(707)
    corpus = FIXTURES30[:12] + [ISOLATED_P]
    for _ in range(100):
        rank = rng.randint(1, 2)
        sentence = random_bounded_sentence(rng, UNIMODAL, rank)
        rep = check_invariance(sentence, f"generated:{rank}", corpus)
        assert rep.invariant, (sentence, rep.counterexamples)
    for _ in range(100):
        radius = rng.randint(1, 2)
        sentence = random_fo_sentence(rng, UNIMODAL, rng.randint(0, 2))
        relativized = gaifman_relativize(sentence, radius, UNIMODAL)
        for s in corpus:
            assert eval_fo(relativized, s) == eval_fo(sentence, ball_part(s, radius))
    unbounded = parse_fo("exists y (P(y))")
    rep = check_invariance(unbounded, "generated:1", corpus)
    assert not rep.invariant
    witness = rep.counterexamples[0]
    report(
        7,
        "100 bounded sentences invariant, 100 relativized sentences match "
        f"ball parts, unbounded flagged on corpus structure {witness.index}",
    )


def test_criterion_8_temporal_characterization():
    checked = 0
    chis = {}
    for i, a in enumerate(FIXTURES30):
        for k in (0, 1, 2):
            chis[(i, k)] = characteristic_formula(a, k, temporal=True)
    for i, a in enumerate(FIXTURES30):
        for b in FIXTURES30:
            for k in (0, 1, 2):
                game = solve(a, b, GameVariant.BACK_FORTH_TEMPORAL, k).winner
                formulas = eval_fo(chis[(i, k)], b)
                assert (game == DUPLICATOR) == formulas, (a, b, k)
                checked += 1
    temporal = build_comonad(BACK_EDGE, ComonadKind.HYBRID_TEMPORAL, 1)
    hybrid = build_comonad(BACK_EDGE, ComonadKind.HYBRID, 1)
    assert temporal.plays == ("a", "a.b")
    assert hybrid.plays == ("a",)
    report(8, f"{checked} temporal positions match formulas; carriers split on b->a")


def test_criterion_9_cli_determinism(monkeypatch):
    monkeypatch.chdir(HERE)
    for stem, argv in CASES:
        resolved = [a.format(d="data") for a in argv]
        outputs = []
        for _ in range(2):
            sink = io.StringIO()
            code = run(resolved, out=sink)
            outputs.append(f"exit: {code}\n{sink.getvalue()}")
        assert outputs[0] == outputs[1], stem
        with open(os.path.join(HERE, "golden", f"{stem}.txt"), encoding="utf-8") as fh:
            assert outputs[0] == fh.read(), stem
    report(9, f"{len(CASES)} documented commands byte-identical to goldens")

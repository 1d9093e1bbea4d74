"""The three workloads: seeded task pools of certified tasks.

A task computes one verdict through the package's public API and checks it
against an independent procedure (and against the known answer where the
input was built to have one).  It returns ``(verdict, ok)``: the verdict text
goes into the run's digest, and ``ok`` is false on any disagreement.

Every call into the package goes through a module attribute
(``games.solve``, not a name imported from ``games``), so the traced run's
stand-ins see it.
"""
from __future__ import annotations

import json
import random

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

import inputs

DUPLICATOR = games.DUPLICATOR
V = games.GameVariant

#: Logic name (as in ``hybridkit equiv --logic``) -> game variant.
SEQUENCE_LOGICS = {
    "hybrid": V.BACK_FORTH_HYBRID,
    "bf": V.BACK_FORTH_BOUNDED,
    "hybrid-temporal": V.BACK_FORTH_TEMPORAL,
    "existential-hybrid": V.EXISTENTIAL_HYBRID,
    "existential-bf": V.EXISTENTIAL_BOUNDED,
}
UNIMODAL_LOGICS = (*SEQUENCE_LOGICS, "bc")
BIMODAL_LOGICS = ("bf", "existential-bf", "bc")
COKLEISLI_KIND = {
    "existential-hybrid": comonads.ComonadKind.HYBRID,
    "existential-bf": comonads.ComonadKind.BOUNDED,
}

GAME_FAMILIES = 96
GAME_ROUNDS = (1, 2, 3)
FORMULA_TASKS = 800
FORMULA_K = 2
CONSTRUCTION_ROUNDS = 120


def load(text: str) -> structures.Structure:
    return structures.structure_from_data(json.loads(text))


class Pool:
    """A workload's generated inputs (as the exact texts the package reads)
    and its tasks, in run order.  A run cycles through the tasks."""

    def __init__(self):
        self.texts: list[str] = []
        self.tasks: list[tuple[str, object, tuple]] = []

    def text(self, item) -> str:
        text = item if isinstance(item, str) else inputs.dumps(item)
        self.texts.append(text)
        return text

    def add(self, key: str, fn, *args) -> None:
        self.tasks.append((key, fn, args))


# -- games -----------------------------------------------------------------------------


def games_pool(seed: int) -> Pool:
    """Families of four structures: A, a relabelled copy, A with one tuple
    changed, and an independent structure.  Two in three families are over
    the unimodal {P, Q, E} signature with out-degree 2, the rest over two
    transitions (out-degree 1 along each) and two basepoints; sizes run
    through 4..7.  Fixed out-degrees keep the branching of the games, and so
    the cost of a family, steady across seeds.  Tasks are every ordered pair of
    distinct members, for every logic of the signature, at k = 1, 2, 3, in
    a seeded shuffled order.  Structures are loaded once and shared by all
    tasks of their family."""
    rng = random.Random(seed)
    pool = Pool()
    for i in range(GAME_FAMILIES):
        size = 4 + i % 4
        bimodal = (i // 4) % 3 == 2
        signature = inputs.BIMODAL if bimodal else inputs.UNIMODAL
        basepoints, out_degree = (2, 1) if bimodal else (1, 2)
        a = inputs.out_regular_structure(rng, size, signature, basepoints, out_degree)
        members = [
            a,
            inputs.iso_partner(rng, a),
            inputs.near_partner(rng, a),
            inputs.out_regular_structure(rng, size, signature, basepoints, out_degree),
        ]
        family = [load(pool.text(doc)) for doc in members]
        logics = BIMODAL_LOGICS if bimodal else UNIMODAL_LOGICS
        for x in range(4):
            for y in range(4):
                if x == y:
                    continue
                known = {x, y} == {0, 1}
                for logic in logics:
                    for k in GAME_ROUNDS:
                        pool.add(
                            f"g{i}:{x}{y}:{logic}:{k}",
                            game_task,
                            logic,
                            family[x],
                            family[y],
                            k,
                            known,
                        )
    rng.shuffle(pool.tasks)
    return pool


def game_task(logic, a, b, k, known_equivalent):
    """Solve the logic's game and check the verdict: sequence games replay
    their extracted strategy, and each logic has its independent check."""
    if logic == "bc":
        won = games.solve_bijection(a, b, k).winner == DUPLICATOR
        ok = won == (scott.scott_type(a, k) == scott.scott_type(b, k))
    else:
        variant = SEQUENCE_LOGICS[logic]
        result = games.solve(a, b, variant, k)
        won = result.winner == DUPLICATOR
        result.strategy  # extract, so extraction and replay are timed apart
        ok = games.verify_strategy(result, a, b, variant, k)
        if logic in ("hybrid", "bf"):
            ok = ok and games.back_and_forth_rank(a, b, k) == won
        if logic == "hybrid":
            ok = ok and games.solve_Gk(a, b, k).winner == result.winner
        if logic in COKLEISLI_KIND:
            morphism = comonads.find_cokleisli_morphism(a, b, COKLEISLI_KIND[logic], k)
            ok = ok and (morphism is not None) == won
    if known_equivalent and not won:
        ok = False
    return ("1" if won else "0"), ok


# -- formulas --------------------------------------------------------------------------


def formulas_pool(seed: int) -> Pool:
    """Unimodal structures of 3..5 elements with out-degree 1, each with
    4..6 partners (a relabelled copy first, then near and independent ones).
    A task builds the structure's formulas once and reads them on every
    partner.  The rank is 2: at rank 3 one task takes 1 to 26 s, too few
    tasks per run for a p90."""
    rng = random.Random(seed)
    pool = Pool()
    for i in range(FORMULA_TASKS):
        size = 3 + i % 3
        a = inputs.out_regular_structure(rng, size, inputs.UNIMODAL, 1, 1)
        partners = [
            (inputs.iso_partner(rng, a), True),
            (inputs.near_partner(rng, a), False),
            (inputs.out_regular_structure(rng, size, inputs.UNIMODAL, 1, 1), False),
            (inputs.near_partner(rng, a), False),
            (inputs.out_regular_structure(rng, size, inputs.UNIMODAL, 1, 1), False),
            (inputs.iso_partner(rng, a), True),
        ][: 4 + (i // 3) % 3]
        pool.add(
            f"f{i}",
            formula_task,
            pool.text(a),
            [(pool.text(doc), known) for doc, known in partners],
            FORMULA_K,
        )
    return pool


def formula_task(a_text, partner_texts, k):
    """Build the bounded and temporal characteristic formulas, the Scott
    sentence and its counting normal form once; evaluate them on every
    partner against the back-and-forth relation, the temporal game and
    Scott-type equality; round-trip the characteristic formula as text."""
    a = load(a_text)
    chi = scott.characteristic_formula(a, k)
    chi_t = scott.characteristic_formula(a, k, temporal=True)
    sentence = scott.scott_formula(a, k)
    normal = scott.normalize_counting(sentence, a.signature)
    a_type = scott.scott_type(a, k)
    bits = []
    ok = True
    for text, known in partner_texts:
        b = load(text)
        bounded = semantics.eval_fo(chi, b)
        temporal = semantics.eval_fo(chi_t, b)
        counting = semantics.eval_fo(sentence, b)
        ok = ok and bounded == games.back_and_forth_rank(a, b, k)
        won = games.solve(a, b, V.BACK_FORTH_TEMPORAL, k).winner == DUPLICATOR
        ok = ok and temporal == won
        ok = ok and counting == semantics.eval_fo(normal, b)
        ok = ok and counting == (a_type == scott.scott_type(b, k))
        if known:
            ok = ok and bounded and temporal and counting
        bits.append(f"{bounded:d}{temporal:d}{counting:d}")
    ok = ok and parser.parse_fo(parser.print_fo(chi)) == chi
    return ",".join(bits), ok


# -- constructions ---------------------------------------------------------------------

DEPTH_SIZES = (4, 5, 6)
COVER_CASES = ((4, 2), (4, 3), (5, 3), (6, 3))
WORKSPACE_CASES = ((3, 1), (4, 1), (5, 1), (6, 1), (3, 2))
SENTENCES_PER_ROUND = 6


def constructions_pool(seed: int) -> Pool:
    """Rounds of single-use inputs: depth against coalgebra number, cover /
    coalgebra round trips, workspace builds, invariance of bounded
    sentences, and Gaifman relativization against ball parts.  Every task
    loads its own structures from text, so nothing is shared between
    tasks; the order within a round is shuffled.  Depth tasks stop at 6
    elements: at 7 the exhaustive cover search takes about 0.9 s a task and
    would set the workload's throughput on its own."""
    rng = random.Random(seed)
    pool = Pool()

    def structure(size: int) -> str:
        return pool.text(inputs.random_structure(rng, size, inputs.UNIMODAL, 1, 1.5))

    def corpus(count: int) -> list[str]:
        return [structure(rng.randint(3, 6)) for _ in range(count)]

    for r in range(CONSTRUCTION_ROUNDS):
        start = len(pool.tasks)
        for size in DEPTH_SIZES:
            pool.add(f"c{r}:depth{size}", depth_task, structure(size))
        for size, k in COVER_CASES:
            pool.add(f"c{r}:covers{size}:{k}", cover_task, structure(size), k)
        for size, q in WORKSPACE_CASES:
            pool.add(f"c{r}:workspace{size}:{q}", workspace_task, structure(size), q)
        for j in range(SENTENCES_PER_ROUND):
            rank = 1 + j % 2
            text = pool.text(inputs.random_bounded_sentence(rng, rank))
            pool.add(f"c{r}:invariance{j}", invariance_task, text, rank, corpus(4))
        for j in range(SENTENCES_PER_ROUND):
            radius = 1 + j % 2
            text = pool.text(inputs.random_fo_sentence(rng, j % 3))
            pool.add(f"c{r}:relativize{j}", relativize_task, text, radius, corpus(3))
        block = pool.tasks[start:]
        rng.shuffle(block)
        pool.tasks[start:] = block
    return pool


def depth_task(text):
    """Generated tree depth against the coalgebra number: equal up to the
    offset max(depth - 1, 1).  Every element is reachable, so both are
    finite."""
    s = load(text)
    depth = coalgebras.generated_tree_depth(s)
    number = coalgebras.coalgebra_number(s)
    ok = depth != structures.INF and number == max(depth - 1, 1)
    return f"{depth}/{number}", ok


def cover_task(text, k):
    """Every generated cover of height <= k survives the cover -> coalgebra
    -> cover round trip, and the independent coalgebra enumeration finds as
    many coalgebras as there are covers."""
    s = load(text)
    covers = list(coalgebras.enumerate_generated_covers(s, k))
    ok = True
    for cover in covers:
        algebra = coalgebras.cover_to_coalgebra(cover, k)
        ok = ok and coalgebras.coalgebra_to_cover(algebra) == cover
    found = sum(1 for _ in coalgebras.enumerate_coalgebras(s, None, k))
    return str(len(covers)), ok and found == len(covers)


def workspace_task(text, q):
    """Build the workspace within its 2q|A| size bound and verify it
    exhaustively; the known answer is true."""
    a = load(text)
    workspace, _, _ = characterization.build_workspace(a, q)
    ok = len(workspace) <= 2 * q * len(a) and characterization.verify_workspace(a, q)
    return str(len(workspace)), ok


def invariance_task(sentence, rank, corpus_texts):
    """A random bounded sentence of rank <= r is invariant under taking the
    r-generated substructure (the known answer)."""
    f = parser.parse_fo(sentence)
    corpus = [load(t) for t in corpus_texts]
    report = characterization.check_invariance(f, f"generated:{rank}", corpus)
    return "".join(f"{e.original:d}" for e in report.entries), report.invariant


def relativize_task(sentence, radius, corpus_texts):
    """The Gaifman relativization of a sentence holds exactly when the
    sentence holds in the ball part."""
    f = parser.parse_fo(sentence)
    corpus = [load(t) for t in corpus_texts]
    g = semantics.gaifman_relativize(f, radius, corpus[0].signature)
    bits = []
    ok = True
    for s in corpus:
        value = semantics.eval_fo(g, s)
        ok = ok and value == semantics.eval_fo(f, structures.ball_part(s, radius))
        bits.append(f"{value:d}")
    return "".join(bits), ok


WORKLOADS = {
    "games": games_pool,
    "formulas": formulas_pool,
    "constructions": constructions_pool,
}

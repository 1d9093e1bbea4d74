import ast
import contextlib
import dataclasses
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from hybridkit import syntax as sx
from hybridkit.characterization import (
    MAX_REPLAY_SEQUENCES,
    WorkspaceStrategy,
    build_workspace,
    check_invariance,
    synthesize_bounded_equivalent,
    verify_workspace,
    workspace_game_result,
)
from hybridkit.errors import ResourceLimitError
from hybridkit.games import DUPLICATOR, GameVariant, sequence_key, solve, verify_strategy
from hybridkit.parser import parse_fo
from randgen import random_bounded_sentence, random_structure
from hybridkit.scott import characteristic_formula
from hybridkit.semantics import eval_fo
from hybridkit.structures import (
    Signature,
    Structure,
    ball_part,
    gaifman_distance,
    is_partial_isomorphism,
    reachable_part,
)

import oracles

from fixtures import (
    BOUNDED_FIXTURES,
    C2,
    FIXTURES30,
    ISOLATED_P,
    LOOP,
    PATH3,
    PATH6,
    STAR2,
    UNIMODAL,
)


class TestBuildWorkspace:
    def test_size_bound(self):
        workspace, _, _ = build_workspace(PATH3, 1)
        assert len(workspace) <= 2 * 1 * len(PATH3)

    def test_path6_example(self):
        workspace, left, right = build_workspace(PATH6, 1)
        # ball of radius 2 around a has 3 elements, so |C| = 6 + 3
        assert len(workspace) == 9
        assert len(workspace) <= 12

    def test_ball_covering_gives_equal_sides(self):
        # diameter < 2^q, so the ball is the whole structure
        _, left, right = build_workspace(PATH3, 2)
        assert left == right

    def test_shared_ids_between_sides(self):
        _, left, right = build_workspace(PATH6, 1)
        assert set(right.universe) <= set(left.universe)
        assert left.basepoints == right.basepoints


class TestStrategyCases:
    def test_case_one_copies_near_moves(self):
        machine = WorkspaceStrategy(PATH6, 1)
        state = machine.initial_state()
        nxt = machine.step(state, "left", "A:x1")  # adjacent to the basepoint
        assert nxt.right_play[-1] == "A:x1"
        assert "A:x1" in nxt.c0 and "A:x1" in nxt.d0

    def test_case_three_opens_fresh_summand(self):
        machine = WorkspaceStrategy(PATH6, 1)
        state = machine.initial_state()
        nxt = machine.step(state, "left", "M1:x4")
        assert nxt.right_play[-1] == "M1:x4"  # the shared workspace copy
        assert nxt.rho[-1] == ("M1", "M1")

    def test_case_three_far_real_element(self):
        machine = WorkspaceStrategy(PATH6, 1)
        state = machine.initial_state()
        nxt = machine.step(state, "left", "A:x5")  # distance 5 > 1 from basepoint
        assert nxt.rho[-1] == ("A", "M1")
        assert nxt.right_play[-1] == "M1:x5"

    def test_case_two_follows_recorded_isomorphism(self):
        machine = WorkspaceStrategy(PATH6, 2)
        state = machine.initial_state()
        state = machine.step(state, "left", "A:x4")  # far: case III
        assert state.rho[-1] == ("A", "M1")
        nxt = machine.step(state, "left", "A:x5")  # within 1 of x4: case II
        assert nxt.right_play[-1] == "M1:x5"
        assert nxt.rho[-1] == ("A", "M1")

    def test_radius_halves_each_round(self):
        machine = WorkspaceStrategy(PATH6, 2)
        state = machine.initial_state()
        radii = [state.radius]
        for element in ("A:x1", "A:x2"):
            state = machine.step(state, "left", element)
            radii.append(state.radius)
        assert radii == [4, 2, 1]

    def test_invariants_hold_after_every_step(self):
        machine = WorkspaceStrategy(PATH3, 2)
        state = machine.initial_state()
        for side, element in [
            ("left", "A:b"),
            ("right", "N2:a"),
        ]:
            state = machine.step(state, side, element)
            assert machine.invariant_violations(state) == []


class TestVerifyWorkspace:
    @pytest.mark.parametrize("s", [LOOP, PATH3, C2, STAR2, ISOLATED_P])
    def test_small_fixtures(self, s):
        for q in (1, 2):
            assert verify_workspace(s, q)

    def test_two_basepoint_structures(self):
        from fixtures import BOUNDED_FIXTURES

        for s in BOUNDED_FIXTURES[:3]:
            assert verify_workspace(s, 1)

    def test_path6(self):
        assert verify_workspace(PATH6, 1)

    def test_strategy_verifies_as_ef_strategy(self):
        result, violations = workspace_game_result(PATH3, 1)
        assert violations == []
        _, left, right = build_workspace(PATH3, 1)
        assert verify_strategy(result, left, right, GameVariant.EF, 1)

    def test_sabotaged_case_two_fails(self):
        machine = WorkspaceStrategy(PATH6, 2)
        state = machine.initial_state()
        state = machine.step(state, "left", "A:x4")  # case III, answered in M1
        good = machine.step(state, "left", "A:x5")  # case II follows the same rho
        assert machine.invariant_violations(good) == []
        # sabotage: answer the case-II move with the wrong isomorphism
        bad = type(good)(
            good.left_play,
            good.right_play[:-1] + ("N1:a",),
            good.c0,
            good.c1,
            good.d0,
            (good.d1 - {good.right_play[-1]}) | {"N1:a"},
            good.rho[:-1] + (("A", "N1"),),
            good.round,
            good.q,
        )
        pairs = tuple(zip(bad.left_play, bad.right_play))
        iso = is_partial_isomorphism(pairs, machine.left, machine.right)
        assert machine.invariant_violations(bad) and not iso


class TestWorkspaceQuotient:
    def test_sabotaged_answer_is_reported_once_per_sequence(self, monkeypatch):
        # answer every second-round "A:b" on the left with the basepoint "A:a":
        # each of the first moves leads to one broken sequence, and several
        # of those sequences reach the same pair set
        import hybridkit.characterization as characterization

        honest = WorkspaceStrategy.step
        check = characterization.is_partial_isomorphism
        failed = []

        def sabotaged(self, state, side, element):
            nxt = honest(self, state, side, element)
            if state.round == 1 and side == "left" and element == "A:b":
                nxt = dataclasses.replace(nxt, right_play=nxt.right_play[:-1] + ("A:a",))
            return nxt

        def counted(pairs, a, b):
            ok = check(pairs, a, b)
            if not ok:
                failed.append(frozenset(pairs))
            return ok

        monkeypatch.setattr(WorkspaceStrategy, "step", sabotaged)
        monkeypatch.setattr(characterization, "is_partial_isomorphism", counted)
        monkeypatch.setattr(WorkspaceStrategy, "invariant_violations", lambda self, s: [])
        result, violations = workspace_game_result(PATH3, 2)
        _, left, right = build_workspace(PATH3, 2)
        assert len(violations) == len(left) + len(right)
        assert all(
            v.endswith("('A:b', 'A:a')): not a partial isomorphism") for v in violations
        )
        assert len(set(failed)) == len(failed) < len(violations)
        assert not verify_strategy(result, left, right, GameVariant.EF, 2)


@st.composite
def pointed_structures(draw) -> Structure:
    """A structure of up to 5 elements, unimodal or with two transitions and
    two basepoints, which may coincide."""
    signature = draw(st.sampled_from([UNIMODAL, TWO_POINTED]))
    size = draw(st.integers(1, 5))
    universe = [f"v{i}" for i in range(size)]
    element = st.sampled_from(universe)
    rels = {
        name: draw(st.lists(st.tuples(*[element] * arity), max_size=2 * size))
        for name, arity in sorted(signature.relations.items())
    }
    m = signature.num_basepoints
    basepoints = draw(st.lists(element, min_size=m, max_size=m))
    return Structure(signature, universe, rels, basepoints)


TWO_POINTED = Signature({"P": 1, "E": 2, "F": 2}, ["E", "F"], 2)


def sabotaged_step(last_move: str, answer: str):
    """``WorkspaceStrategy.step`` answering a last-round left move on
    ``last_move`` with ``answer``: still a function of the state alone."""
    honest = WorkspaceStrategy.step

    def step(self, state, side, element):
        nxt = honest(self, state, side, element)
        if state.round == self.q - 1 and side == "left" and element == last_move:
            nxt = dataclasses.replace(nxt, right_play=nxt.right_play[:-1] + (answer,))
        return nxt

    return step


def invariants(check: bool):
    """No patch when ``check`` holds; otherwise a patch under which every
    state keeps its invariants, leaving the partial-isomorphism condition as
    the replay's only check."""
    if check:
        return contextlib.nullcontext()
    return mock.patch.object(WorkspaceStrategy, "invariant_violations", lambda self, s: [])


def replays_agree(a: Structure, q: int) -> None:
    result, violations = workspace_game_result(a, q)
    strategy, expected = oracles.workspace_replay(WorkspaceStrategy(a, q))
    # the first move sequence per key gives that key's answers
    first: dict = {}
    for (pairs, side, element), response in strategy.items():
        first.setdefault((sequence_key(pairs), side, element), response)
    assert list(result.strategy.items()) == list(first.items())
    assert violations == expected


class TestReplayAgainstOracle:
    # the replay expands each distinct state once; the oracle steps through
    # every move sequence and checks every state literally
    @settings(max_examples=30, deadline=None)
    @given(pointed_structures(), st.sampled_from([1, 2]))
    def test_strategy_and_violations_match(self, a, q):
        replays_agree(a, q)

    @settings(max_examples=30, deadline=None)
    @given(pointed_structures(), st.sampled_from([1, 2]), st.booleans())
    def test_sabotaged_replays_match(self, a, q, check_invariants):
        _, left, right = build_workspace(a, q)
        step = sabotaged_step(left.universe[-1], right.basepoints[0])
        with mock.patch.object(WorkspaceStrategy, "step", step), invariants(check_invariants):
            replays_agree(a, q)

    @pytest.mark.parametrize("check_invariants", [True, False])
    def test_quotient_sabotage_matches(self, check_invariants):
        sabotage = sabotaged_step("A:b", "A:a")
        with mock.patch.object(WorkspaceStrategy, "step", sabotage), invariants(check_invariants):
            replays_agree(PATH3, 2)
            assert not verify_workspace(PATH3, 2)


def mutants(parent, child, rng: random.Random, universe):
    """The child with an element dropped from ``c0``, with the tags of a
    ``rho`` entry swapped, with an earlier left play rewritten, with its new
    right play replaced by an earlier one, and with its new pair moved to
    the other part of both bipartitions."""
    if child.c0:
        dropped = rng.choice(sorted(child.c0))
        yield dataclasses.replace(child, c0=child.c0 - {dropped})
    entries = [i for i, entry in enumerate(child.rho) if entry is not None]
    if entries:
        i = rng.choice(entries)
        swapped = child.rho[i][::-1]
        yield dataclasses.replace(child, rho=child.rho[:i] + (swapped,) + child.rho[i + 1 :])
    i = rng.randrange(len(child.left_play) - 1) if len(child.left_play) > 1 else 0
    rewritten = child.left_play[:i] + (rng.choice(universe),) + child.left_play[i + 1 :]
    yield dataclasses.replace(child, left_play=rewritten)
    answer = rng.choice(child.right_play[:-1])
    yield dataclasses.replace(child, right_play=child.right_play[:-1] + (answer,))
    x, y = child.left_play[-1], child.right_play[-1]
    if x in child.c0:
        yield dataclasses.replace(
            child, c0=parent.c0, c1=parent.c1 | {x}, d0=parent.d0, d1=parent.d1 | {y}
        )
    else:
        yield dataclasses.replace(
            child, c0=parent.c0 | {x}, c1=parent.c1, d0=parent.d0 | {y}, d1=parent.d1
        )


class TestFreshPartner:
    # the summands in use, read from rho, are those the played elements'
    # tags name; every workspace fixture replays as with the tags read
    # the last one's element id "x:1" holds the tag separator
    TWO = Structure(
        Signature({"E": 2}, ["E"], 1), ["x:1", "b"], {"E": [("x:1", "b")]}, ["x:1"]
    )
    FIXTURES = [LOOP, PATH3, C2, STAR2, ISOLATED_P, PATH6, *BOUNDED_FIXTURES[:3], TWO]

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("s", FIXTURES, ids=range(len(FIXTURES)))
    def test_replay_matches_the_tags_of_the_plays(self, s, q):
        result, violations = workspace_game_result(s, q)
        calls = []

        def from_plays(machine, *args):
            calls.append(args)
            return oracles.fresh_partner_from_plays(machine, *args)

        with mock.patch.object(WorkspaceStrategy, "_fresh_partner", from_plays):
            expected, expected_violations = workspace_game_result(s, q)
        assert calls
        assert list(result.strategy.items()) == list(expected.strategy.items())
        assert violations == expected_violations


class TestInvariantClauses:
    def test_each_mutant_names_its_clause(self):
        # a real Case II step at q = 2: "A:x4" opened the summand pair
        # (A, M1), and "A:x5" within 1 of it follows the same pair
        machine = WorkspaceStrategy(PATH6, 2)
        parent = machine.step(machine.initial_state(), "left", "A:x4")
        child = machine.step(parent, "left", "A:x5")
        assert machine.invariant_violations(child) == []
        unplayed = [e for e in machine.left.universe if e not in child.left_play]
        clauses = [
            "left bipartition does not split the played elements",  # c0 element dropped
            "not matched by its isomorphism tags",  # rho tags swapped
            "left bipartition does not split the played elements",  # earlier play rewritten
            "right bipartition does not split the played elements",  # new answer replaced
            "left separation violated",  # new pair moved to the near parts
        ]
        found = list(mutants(parent, child, random.Random(0), unplayed))
        assert len(found) == len(clauses)
        for state, clause in zip(found, clauses):
            violations = machine.invariant_violations(state)
            assert any(v.endswith(clause) for v in violations), (state, violations)

    WIDENED = """
import dataclasses
from fixtures import PATH6
from hybridkit.characterization import WorkspaceStrategy
machine = WorkspaceStrategy(PATH6, 1)
state = machine.step(machine.initial_state(), "left", "A:x5")
state = dataclasses.replace(state, c0=state.c0 | {"A:x4", "A:x5"}, d0=state.d0 | {"M1:x4", "M1:x5"})
print(machine.invariant_violations(state))
"""

    def test_violation_order_ignores_string_hashing(self):
        # several near elements outside the ball on each side are reported
        # in universe order, whatever the process's hash seed
        here = os.path.dirname(os.path.abspath(__file__))
        path = [os.path.join(os.path.dirname(here), "src"), here]
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(path))
            proc = subprocess.run(
                [sys.executable, "-c", self.WIDENED],
                capture_output=True, text=True, env=env, timeout=60, check=True,
            )
            outputs.append(ast.literal_eval(proc.stdout))
        assert outputs[0] == outputs[1]
        far = [v for v in outputs[0] if v.startswith("near element")]
        assert far == [
            f"near element {e!r} outside the 1-ball ({side})"
            for e, side in [
                ("A:x4", "left"), ("A:x5", "left"), ("M1:x4", "right"), ("M1:x5", "right"),
            ]
        ]


class TestReplayGuard:
    TWO = Structure(
        Signature({"E": 2}, ["E"], 1), ["x:1", "b"], {"E": [("x:1", "b")]}, ["x:1"]
    )

    def test_large_replay_raises_before_starting(self):
        # 36 elements over both sides at q = 4: about 1.7 M move sequences
        with pytest.raises(ResourceLimitError, match=str(MAX_REPLAY_SEQUENCES)):
            verify_workspace(self.TWO, 4)

    def test_smaller_replay_still_verifies(self):
        assert verify_workspace(self.TWO, 3)


class TestUnionLemma:
    def test_separated_partial_isomorphisms_union(self):
        rng = random.Random(99)
        for _ in range(40):
            s = random_structure(rng, max_size=4, signature=UNIMODAL)
            t = random_structure(rng, max_size=4, signature=UNIMODAL)
            from hybridkit.structures import disjoint_union

            big = disjoint_union(s, t)
            dist = gaifman_distance(big)
            elems = list(big.universe)
            isos = []
            for _ in range(30):
                size = rng.randint(1, 2)
                dom = rng.sample(elems, min(size, len(elems)))
                rng_side = rng.sample(elems, len(dom))
                pairs = list(zip(dom, rng_side))
                if is_partial_isomorphism(pairs, big, big):
                    isos.append(pairs)
            for i, alpha in enumerate(isos):
                for beta in isos[i + 1 :]:
                    dom_d = dist.set_distance(
                        [x for x, _ in alpha], [x for x, _ in beta]
                    )
                    ran_d = dist.set_distance(
                        [y for _, y in alpha], [y for _, y in beta]
                    )
                    if dom_d > 1 and ran_d > 1:
                        assert is_partial_isomorphism(alpha + beta, big, big)


class TestInvariance:
    def test_bounded_sentences_are_generated_invariant(self):
        rng = random.Random(17)
        corpus = FIXTURES30[:12]
        for _ in range(30):
            rank = rng.randint(0, 2)
            f = random_bounded_sentence(rng, UNIMODAL, rank)
            report = check_invariance(f, f"generated:{max(rank, 1)}", corpus)
            assert report.invariant, (f, report.counterexamples)

    def test_invariance_extends_to_larger_radius(self):
        rng = random.Random(18)
        corpus = FIXTURES30[:10]
        for _ in range(20):
            f = random_bounded_sentence(rng, UNIMODAL, 1)
            for radius in (1, 2, 3):
                assert check_invariance(f, f"generated:{radius}", corpus).invariant

    def test_unbounded_sentence_flagged(self):
        f = parse_fo("exists y (P(y))")
        report = check_invariance(f, "generated:1", [ISOLATED_P])
        assert not report.invariant
        entry = report.counterexamples[0]
        assert entry.original is True and entry.transformed is False

    def test_disjoint_invariance_of_bounded_sentences(self):
        rng = random.Random(19)
        corpus = FIXTURES30[:8]
        for _ in range(10):
            f = random_bounded_sentence(rng, UNIMODAL, 1)
            assert check_invariance(f, "disjoint", corpus).invariant

    def test_free_variables_rejected(self):
        with pytest.raises(ValueError):
            check_invariance(parse_fo("P(x)"), "generated:1", [LOOP])

    @pytest.mark.parametrize(
        "notion", ["generated:-1", "ball:-1", "generated:x", "ball:", "generated:1.5"]
    )
    def test_radius_must_be_a_natural_number(self, notion):
        with pytest.raises(ValueError, match=f"notion '{notion}': the radius must be"):
            check_invariance(parse_fo("E(c1,c1)"), notion, [LOOP])


class TestLemmaCrosswalks:
    def test_bounded_equivalence_survives_reachable_part(self):
        subset = FIXTURES30[:10]
        for a in subset:
            for b in subset:
                for m in (1, 2):
                    if solve(a, b, GameVariant.BACK_FORTH_BOUNDED, m).winner == DUPLICATOR:
                        for k in (1, 2):
                            ra, rb = reachable_part(a, k), reachable_part(b, k)
                            assert (
                                solve(ra, rb, GameVariant.BACK_FORTH_BOUNDED, m).winner
                                == DUPLICATOR
                            )

    def test_long_bounded_game_gives_ef_equivalence_on_reachable_parts(self):
        subset = FIXTURES30[:10]
        k, q = 2, 1
        for a in subset:
            for b in subset:
                ra, rb = reachable_part(a, k), reachable_part(b, k)
                bounded = solve(ra, rb, GameVariant.BACK_FORTH_BOUNDED, k * q).winner
                if bounded == DUPLICATOR:
                    assert solve(ra, rb, GameVariant.EF, q).winner == DUPLICATOR

    def test_temporal_equivalence_survives_ball_part(self):
        subset = FIXTURES30[:10]
        for a in subset:
            for b in subset:
                for m in (1, 2):
                    if (
                        solve(a, b, GameVariant.BACK_FORTH_TEMPORAL, m).winner
                        == DUPLICATOR
                    ):
                        for k in (1, 2):
                            sa, sb = ball_part(a, k), ball_part(b, k)
                            assert (
                                solve(sa, sb, GameVariant.BACK_FORTH_TEMPORAL, m).winner
                                == DUPLICATOR
                            )

    def test_long_temporal_game_gives_ef_equivalence_on_ball_parts(self):
        subset = FIXTURES30[:10]
        k, q = 2, 1
        for a in subset:
            for b in subset:
                sa, sb = ball_part(a, k), ball_part(b, k)
                temporal = solve(sa, sb, GameVariant.BACK_FORTH_TEMPORAL, k * q).winner
                if temporal == DUPLICATOR:
                    assert solve(sa, sb, GameVariant.EF, q).winner == DUPLICATOR


class TestSynthesis:
    def test_single_structure_corpus(self):
        f = parse_fo("E(c1,c1)")  # quantifier rank 0, so the target rank is 0
        out = synthesize_bounded_equivalent(f, 1, [LOOP])
        assert out == characteristic_formula(LOOP, 0)

    def test_bounded_input_agrees_on_corpus(self):
        corpus = [LOOP, C2, PATH3, STAR2]
        f = parse_fo("exists y (E(c1,y) & P(y))")
        out = synthesize_bounded_equivalent(f, 1, corpus)
        for s in corpus:
            assert eval_fo(out, s) == eval_fo(f, s)

    def test_relativized_sentence_agrees_on_corpus(self):
        from hybridkit.semantics import gaifman_relativize

        corpus = [LOOP, C2, PATH3, STAR2, ISOLATED_P]
        f = gaifman_relativize(parse_fo("exists y (P(y))"), 1, UNIMODAL)
        out = synthesize_bounded_equivalent(f, 1, corpus)
        for s in corpus:
            assert eval_fo(out, s) == eval_fo(f, s)

    def test_rejects_non_invariant_sentence(self):
        with pytest.raises(ValueError):
            synthesize_bounded_equivalent(
                parse_fo("exists y (P(y))"), 1, [ISOLATED_P]
            )

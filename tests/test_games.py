import hashlib
import time
import types

import pytest

from hybridkit import characterization, comonads, games, scott
from hybridkit.coalgebras import coalgebra_number, enumerate_coalgebras
from hybridkit.comonads import ComonadKind, build_comonad, find_cokleisli_morphism
from hybridkit.errors import ResourceLimitError
from hybridkit.games import (
    DUPLICATOR,
    SPOILER,
    GameResult,
    GameVariant,
    _hall_violator,
    _least_matching,
    back_and_forth_rank,
    solve,
    solve_Gk,
    sequence_key,
    solve_bijection,
    trace_game,
    verify_strategy,
)
from hybridkit.structures import Signature, Structure, is_partial_isomorphism

from fixtures import (
    BOUNDED_FIXTURES,
    C2,
    FIXTURES30,
    LOOP,
    PATH3,
    STAR2,
    STAR3,
    pairs,
    star,
    unimodal,
)
import oracles
from helpers import relabel


class TestSolve:
    def test_initial_violation_decides_round_zero(self):
        assert solve(LOOP, C2, GameVariant.BACK_FORTH_HYBRID, 0).winner == SPOILER

    def test_copycat_on_identical_structures(self):
        for variant in (
            GameVariant.EF,
            GameVariant.BACK_FORTH_HYBRID,
            GameVariant.BACK_FORTH_BOUNDED,
            GameVariant.BACK_FORTH_TEMPORAL,
            GameVariant.EXISTENTIAL_HYBRID,
        ):
            for k in (0, 1, 3):
                assert solve(PATH3, PATH3, variant, k).winner == DUPLICATOR

    def test_existential_hybrid_asymmetry(self):
        assert solve(PATH3, LOOP, GameVariant.EXISTENTIAL_HYBRID, 3).winner == DUPLICATOR
        assert solve(LOOP, PATH3, GameVariant.EXISTENTIAL_HYBRID, 1).winner == SPOILER

    def test_variant_validation(self):
        with pytest.raises(ValueError):
            solve(BOUNDED_FIXTURES[0], BOUNDED_FIXTURES[1], GameVariant.BACK_FORTH_HYBRID, 1)
        with pytest.raises(ValueError):
            solve(PATH3, BOUNDED_FIXTURES[0], GameVariant.EF, 1)


class TestBijection:
    def test_star_cardinality_clash(self):
        assert solve_bijection(STAR2, STAR3, 1).winner == SPOILER

    def test_isomorphic_structures(self):
        relabeled = relabel(STAR2, {"a": "r", "b1": "s", "b2": "t"})
        assert solve_bijection(STAR2, relabeled, 3).winner == DUPLICATOR

    def test_counting_gap_with_plain_game(self):
        assert solve(STAR2, STAR3, GameVariant.BACK_FORTH_BOUNDED, 2).winner == DUPLICATOR
        assert solve(STAR2, STAR3, GameVariant.BACK_FORTH_BOUNDED, 3).winner == SPOILER

    def test_twelve_leaves_solve_extract_and_replay(self):
        # a Hall pair per key, not a pick per matching: 12! matchings would
        # take hours to enumerate
        a, b = star(12), star(12, pos=["b1"])
        started = time.monotonic()
        result = solve_bijection(a, b, 1)
        assert result.winner == SPOILER
        leaves = tuple(f"b{i}" for i in range(1, 13))
        assert result.strategy == {sequence_key((("a", "a"),)): (leaves, leaves[1:])}
        assert verify_strategy(result, a, b, GameVariant.BIJECTION, 1)
        assert time.monotonic() - started < 1.0

    def test_hall_violator_reaches_the_deficient_rows(self):
        # r2 and r3 share the one good column c3; r1 is matched to c1
        good = {("r1", "c1"), ("r1", "c2"), ("r2", "c3"), ("r3", "c3")}
        rows, cols = ("r1", "r2", "r3"), ("c1", "c2", "c3")
        assert _hall_violator(rows, cols, good) == (("r2", "r3"), ("c3",))
        assert _hall_violator(rows, cols, good | {("r3", "c2")}) is None

    def test_least_matching_leaves_the_rest_matchable(self):
        # r1 gives up its least column c1, the only one r2 can take
        good = {("r1", "c1"), ("r1", "c2"), ("r2", "c1")}
        matching = _least_matching(("r1", "r2"), ("c1", "c2"), good)
        assert matching == (("r1", "c2"), ("r2", "c1"))


class TestGk:
    def test_agrees_with_back_forth_game(self):
        subset = FIXTURES30[:12]
        for a, b in pairs(subset):
            for k in (1, 2):
                assert (
                    solve_Gk(a, b, k).winner
                    == solve(a, b, GameVariant.BACK_FORTH_HYBRID, k).winner
                )

    def test_identical(self):
        assert solve_Gk(PATH3, PATH3, 2).winner == DUPLICATOR

    def test_loop_vs_c2(self):
        assert solve_Gk(LOOP, C2, 1).winner == SPOILER

    # winners over the ordered pairs of FIXTURES30[:6], row by row
    WINNERS = {
        1: "DSSSSSSDSSSSSSDDDSSSDDDSSSDDDSSSSSSD",
        2: "DSSSSSSDSSSSSSDSSSSSSDDSSSSDDSSSSSSD",
    }

    def test_plays_on_the_bare_play_tree(self, monkeypatch):
        # the winning condition reads only the plays' elements, so G_k
        # builds no carrier and no structure of any kind
        def no_carrier(*args, **kwargs):
            raise AssertionError("G_k built a carrier")

        built = []
        init = Structure.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(comonads, "build_comonad", no_carrier)
        monkeypatch.setattr(Structure, "__init__", counted)
        for k, winners in self.WINNERS.items():
            got = ""
            for a, b in pairs(FIXTURES30[:6]):
                result = solve_Gk(a, b, k)
                assert verify_strategy(result, a, b, GameVariant.COMONADIC_GK, k)
                got += result.winner[0]
            assert got == winners
        assert built == []

    def test_play_cap_trips(self, monkeypatch):
        # STAR3's hybrid play tree at k = 2 has 13 plays
        plays = len(build_comonad(STAR3, ComonadKind.HYBRID, 2).plays)
        assert plays == 13
        monkeypatch.setattr(comonads, "MAX_PLAYS", plays - 1)
        with pytest.raises(ResourceLimitError, match=f"exceed {plays - 1} plays"):
            solve_Gk(STAR3, STAR2, 2)
        with pytest.raises(ResourceLimitError, match=f"exceed {plays - 1} plays"):
            solve_Gk(STAR2, STAR3, 2)
        monkeypatch.setattr(comonads, "MAX_PLAYS", plays)
        assert solve_Gk(STAR3, STAR3, 2).winner == DUPLICATOR


class TestBackAndForthRank:
    def test_matches_bounded_game(self):
        subset = FIXTURES30[:12]
        for a, b in pairs(subset):
            for k in (0, 1, 2):
                assert back_and_forth_rank(a, b, k) == (
                    solve(a, b, GameVariant.BACK_FORTH_BOUNDED, k).winner == DUPLICATOR
                )

    def test_rank_zero_atomics(self):
        assert back_and_forth_rank(PATH3, PATH3, 0)
        assert not back_and_forth_rank(LOOP, C2, 0)

    def test_deep_rank_stays_within_the_recursion_limit(self):
        # on LOOP every rank keeps the one-element pair: one frame plus the
        # cache wrapper per rank
        assert back_and_forth_rank(LOOP, LOOP, 400)


class TestProperties:
    def test_spoiler_wins_are_monotone_in_k(self):
        subset = FIXTURES30[:10]
        for variant in (
            GameVariant.BACK_FORTH_HYBRID,
            GameVariant.EXISTENTIAL_HYBRID,
            GameVariant.EF,
        ):
            for a, b in pairs(subset):
                last = None
                for k in (0, 1, 2, 3):
                    winner = solve(a, b, variant, k).winner
                    if last == SPOILER:
                        assert winner == SPOILER, (a, b, variant, k)
                    last = winner

    def test_isomorphism_closure(self):
        for a, b in pairs(FIXTURES30[:8]):
            relabeled = relabel(a, {e: f"z{i}" for i, e in enumerate(a.universe)})
            for variant in (GameVariant.BACK_FORTH_HYBRID, GameVariant.EXISTENTIAL_HYBRID):
                assert (
                    solve(a, b, variant, 2).winner
                    == solve(relabeled, b, variant, 2).winner
                )

    def test_back_forth_variants_are_symmetric(self):
        for a, b in pairs(FIXTURES30[:8]):
            for k in (0, 1, 2):
                assert (
                    solve(a, b, GameVariant.BACK_FORTH_HYBRID, k).winner
                    == solve(b, a, GameVariant.BACK_FORTH_HYBRID, k).winner
                )
        # BOUNDED_FIXTURES have two basepoints and two transitions
        for fixtures in (FIXTURES30[:8], BOUNDED_FIXTURES[:6]):
            for a, b in pairs(fixtures):
                for k in (0, 1, 2):
                    assert back_and_forth_rank(a, b, k) == back_and_forth_rank(b, a, k)


class TestVerification:
    @pytest.mark.parametrize(
        "variant",
        [
            GameVariant.EF,
            GameVariant.BACK_FORTH_HYBRID,
            GameVariant.BACK_FORTH_BOUNDED,
            GameVariant.BACK_FORTH_TEMPORAL,
            GameVariant.EXISTENTIAL_HYBRID,
            GameVariant.EXISTENTIAL_BOUNDED,
        ],
    )
    def test_solver_output_verifies(self, variant):
        for a, b in pairs(FIXTURES30[:6]):
            for k in (0, 1, 2):
                result = solve(a, b, variant, k)
                assert verify_strategy(result, a, b, variant, k)

    def test_bijection_output_verifies(self):
        for a, b in pairs(FIXTURES30[:6]):
            for k in (0, 1, 2):
                result = solve_bijection(a, b, k)
                assert verify_strategy(result, a, b, GameVariant.BIJECTION, k)

    def test_two_basepoint_games_verify(self):
        for a, b in pairs(BOUNDED_FIXTURES[:4]):
            for variant in (
                GameVariant.BACK_FORTH_BOUNDED,
                GameVariant.EXISTENTIAL_BOUNDED,
            ):
                result = solve(a, b, variant, 2)
                assert verify_strategy(result, a, b, variant, 2)

    def test_bijection_spoiler_wins_are_monotone(self):
        for a, b in pairs(FIXTURES30[:8]):
            last = None
            for k in (0, 1, 2, 3):
                winner = solve_bijection(a, b, k).winner
                if last == SPOILER:
                    assert winner == SPOILER, (a, b, k)
                last = winner

    def test_gk_output_verifies(self):
        for a, b in pairs(FIXTURES30[:6]):
            result = solve_Gk(a, b, 2)
            assert verify_strategy(result, a, b, GameVariant.COMONADIC_GK, 2)

    def test_corrupted_strategy_fails(self):
        a, b = PATH3, PATH3
        result = solve(a, b, GameVariant.BACK_FORTH_HYBRID, 2)
        assert result.winner == DUPLICATOR
        strategy = dict(result.strategy)
        key = next(k for k in strategy if strategy[k] != "a")
        strategy[key] = "a" if strategy[key] != "a" else "b"
        corrupted = type(result)(result.winner, result.variant, result.k, lambda: strategy)
        assert not verify_strategy(corrupted, a, b, GameVariant.BACK_FORTH_HYBRID, 2)


class TestCrosswalkWithComonads:
    def test_existential_game_matches_morphisms(self):
        subset = FIXTURES30[:10]
        for a, b in pairs(subset):
            for k in (1, 2):
                game = solve(a, b, GameVariant.EXISTENTIAL_HYBRID, k).winner
                morphism = find_cokleisli_morphism(a, b, ComonadKind.HYBRID, k)
                assert (game == DUPLICATOR) == (morphism is not None)


class TestTrace:
    def test_trace_is_stable_and_informative(self):
        text1 = trace_game(solve(LOOP, C2, GameVariant.BACK_FORTH_HYBRID, 1), LOOP, C2)
        text2 = trace_game(solve(LOOP, C2, GameVariant.BACK_FORTH_HYBRID, 1), LOOP, C2)
        assert text1 == text2
        assert "winner: Spoiler" in text1
        assert "round 0" in text1

    def test_duplicator_trace_runs_all_rounds(self):
        result = solve(PATH3, PATH3, GameVariant.BACK_FORTH_HYBRID, 2)
        text = trace_game(result, PATH3, PATH3)
        assert "winner: Duplicator" in text
        assert "round 1" in text and "round 2" in text


class TestPinnedBehaviour:
    def test_strategies_and_traces_are_unchanged(self):
        # sha256 over every winner, strategy entry (expanded to one per move
        # sequence) and trace line, so that a change to any of them fails here
        digest = hashlib.sha256()
        for a, b in pairs(FIXTURES30[:8]):
            for variant in GameVariant:
                if variant is GameVariant.BIJECTION:
                    continue
                for k in (0, 1, 2):
                    if variant is GameVariant.COMONADIC_GK and k == 0:
                        continue
                    result = solve(a, b, variant, k)
                    expanded = oracles.expand_certificate(
                        games._arena(a, b, variant, k), result.strategy, result.winner
                    )
                    entries = sorted(expanded.items())
                    digest.update(repr((result.winner, entries)).encode())
                    digest.update(trace_game(result, a, b).encode())
        assert digest.hexdigest() == (
            "172a2d5fe1a56ce22af37665b43fa2a500a7758a2d42460a38a9c16be31de51a"
        )

    def test_bijection_strategies_and_verdicts_are_unchanged(self):
        # sha256 over every winner, Duplicator matching (expanded to one per
        # move sequence) and replay verdict of the bijection game, one- and
        # two-basepoint; Spoiler's picks per matching are not pinned
        cases = [(a, b, k) for a, b in pairs(FIXTURES30[:8]) for k in (0, 1, 2, 3)]
        cases += [(a, b, k) for a, b in pairs(BOUNDED_FIXTURES[:4]) for k in (0, 1, 2)]
        digest = hashlib.sha256()
        for a, b, k in cases:
            result = solve_bijection(a, b, k)
            arena = games._arena(a, b, GameVariant.BIJECTION, k)
            matchings = []
            if result.winner == DUPLICATOR:
                expanded = oracles.expand_certificate(arena, result.strategy, DUPLICATOR)
                matchings = sorted(expanded.items())
            verdict = verify_strategy(result, a, b, GameVariant.BIJECTION, k)
            digest.update(repr((result.winner, matchings, verdict)).encode())
        assert digest.hexdigest() == (
            "1e24b47a2355aa11b5d718cb885f0b48de52e162cdb105db03fddf686bd2c3bd"
        )


def _forged(winner, variant, k, strategy):
    return GameResult(winner, variant, k, lambda: strategy)


START = sequence_key((("a", "a"),))


class TestReplayRejectsIllegalMoves:
    def test_spoiler_move_on_a_side_the_variant_forbids(self):
        a = unimodal(["a"], [])
        b = unimodal(["b0", "b1"], [], basepoint="b0")
        variant = GameVariant.EXISTENTIAL_EF
        assert solve(a, b, variant, 1).winner == DUPLICATOR
        move = {sequence_key((("a", "b0"),)): ("B", "b1")}
        forged = _forged(SPOILER, variant, 1, move)
        assert not verify_strategy(forged, a, b, variant, 1)

    def test_answer_outside_the_universe(self):
        a = unimodal(["a", "z"], [])
        variant = GameVariant.EXISTENTIAL_EF
        strategy = dict(solve(a, a, variant, 1).strategy)
        strategy[START, "A", "z"] = "ghost"
        forged = _forged(DUPLICATOR, variant, 1, strategy)
        assert not verify_strategy(forged, a, a, variant, 1)

    def test_carrier_answer_that_is_not_a_play(self):
        variant = GameVariant.COMONADIC_GK
        strategy = dict(solve_Gk(STAR2, STAR2, 1).strategy)
        strategy[("a", "a"), "A", "a.b1"] = "b1"
        forged = _forged(DUPLICATOR, variant, 1, strategy)
        assert not verify_strategy(forged, STAR2, STAR2, variant, 1)

    def test_bijection_that_is_not_onto(self):
        variant = GameVariant.BIJECTION
        strategy = dict(solve_bijection(STAR2, STAR2, 1).strategy)
        strategy[START] = (("b1", "b1"), ("b2", "b1"))
        forged = _forged(DUPLICATOR, variant, 1, strategy)
        assert not verify_strategy(forged, STAR2, STAR2, variant, 1)

    def test_bijection_pick_outside_the_accessible_set(self):
        a = unimodal(["a", "b1", "b2", "c"], [("a", "b1"), ("a", "b2"), ("b1", "c")])
        variant = GameVariant.BIJECTION
        result = solve_bijection(a, STAR2, 2)
        assert result.winner == SPOILER
        strategy = {key: (("zzz",), ()) for key in result.strategy}
        forged = _forged(SPOILER, variant, 2, strategy)
        assert not verify_strategy(forged, a, STAR2, variant, 2)

    # a star against its copy with one leaf marked: no unmarked leaf of A may
    # go to b1, so S is every leaf and N every leaf but b1
    MARKED = star(4), star(4, pos=["b1"])

    def test_hall_pair_whose_partners_are_not_fewer(self):
        a, b = self.MARKED
        result = solve_bijection(a, b, 1)
        assert result.winner == SPOILER
        (s, n) = result.strategy[START]
        assert len(n) == len(s) - 1
        assert verify_strategy(result, a, b, GameVariant.BIJECTION, 1)
        # with b1 in N too, no branch is left to play
        forged = _forged(SPOILER, GameVariant.BIJECTION, 1, {START: (s, n + ("b1",))})
        assert not verify_strategy(forged, a, b, GameVariant.BIJECTION, 1)

    def test_hall_pair_that_omits_a_good_partner(self):
        a, b = self.MARKED
        (s, n) = solve_bijection(a, b, 1).strategy[START]
        # b1 -> b2 is a Duplicator win that the smaller N lets Spoiler face
        forged = _forged(SPOILER, GameVariant.BIJECTION, 1, {START: (s, n[1:])})
        assert not verify_strategy(forged, a, b, GameVariant.BIJECTION, 1)

    @pytest.mark.parametrize(
        "variant, a, b, k",
        [
            (GameVariant.EF, STAR2, STAR2, 2),
            (GameVariant.EF, STAR2, STAR3, 3),
            (GameVariant.BIJECTION, STAR2, STAR2, 2),
            (GameVariant.BIJECTION, *MARKED, 1),
        ],
        ids=["ef-duplicator", "ef-spoiler", "bijection-duplicator", "bijection-spoiler"],
    )
    def test_missing_key_raises(self, variant, a, b, k):
        result = solve(a, b, variant, k)
        strategy = dict(result.strategy)
        del strategy[next(iter(strategy))]
        with pytest.raises(ValueError, match="not total"):
            verify_strategy(_forged(result.winner, variant, k, strategy), a, b, variant, k)


class TestPairSetQuotient:
    def test_replay_checks_each_pair_set_once(self, monkeypatch):
        import hybridkit.games as games

        variant = GameVariant.EF
        result = solve(PATH3, PATH3, variant, 3)
        assert result.winner == DUPLICATOR
        keys = {START}
        for ((pair_set, rounds), side, x), y in result.strategy.items():
            keys.add((pair_set, rounds))
            keys.add((pair_set | {(x, y) if side == "A" else (y, x)}, rounds + 1))
        pair_sets = {pair_set for pair_set, _ in keys}

        calls = []
        check = games.is_partial_isomorphism

        def counted(pairs, a, b):
            calls.append(frozenset(pairs))
            return check(pairs, a, b)

        monkeypatch.setattr(games, "is_partial_isomorphism", counted)
        assert verify_strategy(result, PATH3, PATH3, variant, 3)
        assert len(calls) == len(pair_sets) == len(set(calls))
        assert set(calls) == pair_sets
        assert len(calls) < len(keys)

    def test_bad_answer_under_one_of_two_orders_fails(self):
        # (b,b) then (c,c) and (c,c) then (b,b) reach one pair set; a wrong
        # answer a round deeper under either order alone fails the replay
        # of the strategy expanded to one answer per move sequence
        variant = GameVariant.EF
        result = solve(PATH3, PATH3, variant, 3)
        assert result.winner == DUPLICATOR
        arena = games._arena(PATH3, PATH3, variant, 3)
        strategy = oracles.expand_certificate(arena, result.strategy, DUPLICATOR)
        assert oracles.sequence_replay(arena, strategy, DUPLICATOR)
        first = (("a", "a"), ("b", "b"), ("c", "c"))
        second = (("a", "a"), ("c", "c"), ("b", "b"))
        assert strategy[first, "A", "c"] == strategy[second, "A", "c"] == "c"
        strategy[second, "A", "c"] = "b"
        assert not oracles.sequence_replay(arena, strategy, DUPLICATOR)
        # the same answer under the first order alone fails as well
        strategy[second, "A", "c"] = "c"
        strategy[first, "A", "c"] = "b"
        assert not oracles.sequence_replay(arena, strategy, DUPLICATOR)

    def test_one_answer_per_key(self):
        # both orders share one key, so a wrong answer there fails both
        variant = GameVariant.EF
        result = solve(PATH3, PATH3, variant, 3)
        key = sequence_key((("a", "a"), ("b", "b"), ("c", "c")))
        strategy = dict(result.strategy)
        assert strategy[key, "A", "c"] == "c"
        strategy[key, "A", "c"] = "b"
        forged = _forged(DUPLICATOR, variant, 3, strategy)
        assert not verify_strategy(forged, PATH3, PATH3, variant, 3)

    def test_bijection_replay_checks_each_pair_set_once(self, monkeypatch):
        import hybridkit.games as games

        result = solve_bijection(STAR2, STAR2, 3)
        assert result.winner == DUPLICATOR
        keys = {START}
        for (pair_set, rounds), matching in result.strategy.items():
            keys.add((pair_set, rounds))
            keys.update((pair_set | {pair}, rounds + 1) for pair in matching)
        pair_sets = {pair_set for pair_set, _ in keys}
        # a repeated pick reaches one pair set after two different numbers of rounds
        assert len(keys) > len(pair_sets)

        calls = []
        check = games.is_partial_isomorphism

        def counted(pairs, a, b):
            calls.append(frozenset(pairs))
            return check(pairs, a, b)

        monkeypatch.setattr(games, "is_partial_isomorphism", counted)
        assert verify_strategy(result, STAR2, STAR2, GameVariant.BIJECTION, 3)
        assert len(calls) == len(set(calls))
        assert set(calls) == pair_sets

    def test_bijection_replay_checks_every_order(self):
        # both orders of the two leaves reach one pair set; a bijection that
        # is not onto under the second order alone must still fail the replay
        # of the strategy expanded to one matching per move sequence
        variant = GameVariant.BIJECTION
        result = solve_bijection(STAR2, STAR2, 3)
        assert result.winner == DUPLICATOR
        arena = games._arena(STAR2, STAR2, variant, 3)
        strategy = oracles.expand_certificate(arena, result.strategy, DUPLICATOR)
        assert oracles.bijection_replay(arena, strategy, DUPLICATOR)
        first = (("a", "a"), ("b1", "b1"), ("b2", "b2"))
        second = (("a", "a"), ("b2", "b2"), ("b1", "b1"))
        assert strategy[first] == strategy[second]
        strategy[second] = (("b1", "b1"), ("b2", "b1"))
        assert not oracles.bijection_replay(arena, strategy, DUPLICATOR)


TERNARY = Signature({"E": 2, "R": 3}, ["E"], 1)
WITH_R = Structure(TERNARY, ["a", "b", "c"], {"R": [("a", "b", "c")]}, ["a"])
WITHOUT_R = Structure(TERNARY, ["a", "b", "c"], {}, ["a"])
UNARY_EDGE = Signature({"E": 2, "P": 1}, ["E"], 1)


class TestReplyFilter:
    # a tuple over three distinct elements has no atom code, so ``fits``
    # checks it per reply, in both directions in the back-and-forth games
    PLAYED = (("a", "a"), ("b", "b"))

    def test_wide_tuple_must_be_preserved(self):
        arena = games._arena(WITH_R, WITHOUT_R, GameVariant.EXISTENTIAL_EF, 2)
        assert list(arena.fits(self.PLAYED, "A", "c")) == []
        assert solve(WITH_R, WITHOUT_R, GameVariant.EXISTENTIAL_EF, 2).winner == SPOILER

    def test_wide_tuple_must_be_reflected(self):
        arena = games._arena(WITHOUT_R, WITH_R, GameVariant.EF, 2)
        assert list(arena.fits(self.PLAYED, "A", "c")) == []
        assert list(arena.fits(self.PLAYED, "B", "c")) == []
        assert solve(WITHOUT_R, WITH_R, GameVariant.EF, 2).winner == SPOILER

    def test_wide_tuples_that_agree_keep_the_reply(self):
        arena = games._arena(WITH_R, WITH_R, GameVariant.EF, 2)
        assert list(arena.fits(self.PLAYED, "A", "c")) == ["c"]
        assert solve(WITH_R, WITH_R, GameVariant.EF, 3).winner == DUPLICATOR

    @pytest.mark.parametrize(
        "a_rels, b_rels, kept",
        [
            # E(a, b) lands on a loop when b's reply repeats a's image u
            ({"E": [("a", "b")]}, {"E": [("u", "u")]}, ["u"]),
            ({"E": [("a", "b")]}, {"E": [("u", "v")]}, ["v"]),
            # as does P(b)
            ({"P": [("b",)]}, {"P": [("u",)]}, ["u"]),
            ({"P": [("b",)]}, {"P": [("v",)]}, ["v"]),
        ],
    )
    def test_existential_reply_repeating_an_image(self, a_rels, b_rels, kept):
        a = Structure(UNARY_EDGE, ["a", "b"], a_rels, ["a"])
        b = Structure(UNARY_EDGE, ["u", "v"], b_rels, ["u"])
        arena = games._arena(a, b, GameVariant.EXISTENTIAL_EF, 1)
        assert list(arena.fits((("a", "u"),), "A", "b")) == kept

    @pytest.mark.parametrize("variant", [GameVariant.EXISTENTIAL_EF, GameVariant.EF])
    def test_repeated_move_keeps_its_earlier_image(self, variant):
        a = Structure(UNARY_EDGE, ["a", "b"], {}, ["a"])
        b = Structure(UNARY_EDGE, ["u", "v"], {}, ["u"])
        arena = games._arena(a, b, variant, 1)
        assert list(arena.fits((("a", "v"),), "A", "a")) == ["v"]


def _reached(fn) -> tuple[set[str], set]:
    """The names used by ``fn``, its nested closures and every package
    function they name, transitively, and those functions."""
    names: set[str] = set()
    functions = {fn}
    todo = [fn]
    while todo:
        f = todo.pop()
        codes = [f.__code__]
        while codes:
            code = codes.pop()
            names.update(code.co_names)
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            for name in code.co_names:
                target = f.__globals__.get(name)
                if (
                    isinstance(target, types.FunctionType)
                    and target.__module__.startswith("hybridkit")
                    and target not in functions
                ):
                    functions.add(target)
                    todo.append(target)
    return names, functions


class TestCrossChecksStayApart:
    # the independent checks validate the game engine, so none may reach it
    ARENA_NAMES = {
        "_Arena",
        "_CarrierArena",
        "_BijectionArena",
        "_arena",
        "solve",
        "fits",
        "atom_codes",
    }

    @pytest.mark.parametrize(
        "check",
        [
            back_and_forth_rank,
            find_cokleisli_morphism,
            scott.scott_type,
            coalgebra_number,
            enumerate_coalgebras,
            characterization.ef_types_agree,
        ],
        ids=lambda fn: fn.__name__,
    )
    def test_cross_check_names_no_arena(self, check):
        names, _ = _reached(check)
        assert not names & self.ARENA_NAMES

    @pytest.mark.parametrize(
        "part",
        [
            games._Arena.fits,
            games._Arena.holds,
            games._Arena._condition,
            is_partial_isomorphism,
            Structure.atom_codes,
        ],
        ids=lambda fn: fn.__qualname__,
    )
    def test_arena_never_reaches_the_shared_atom_step(self, part):
        # so each crosswalk keeps one side off Structure.atoms_at_last
        assert "atoms_at_last" not in _reached(part)[0]

    def test_cross_checks_read_the_shared_atom_step(self):
        for check in (back_and_forth_rank, find_cokleisli_morphism, scott.scott_type):
            assert "atoms_at_last" in _reached(check)[0]

    def test_walk_reaches_helpers_and_the_arena(self):
        assert scott._types in _reached(scott.scott_type)[1]
        assert characterization._ef_type in _reached(characterization.ef_types_agree)[1]
        for entry in (solve, solve_bijection, solve_Gk, verify_strategy):
            assert "_arena" in _reached(entry)[0]

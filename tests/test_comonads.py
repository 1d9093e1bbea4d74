import ast
import gc
import hashlib
import pathlib
import random

import pytest

import hybridkit
from hybridkit import comonads

from hybridkit.errors import InvalidStructureError, ResourceLimitError
from hybridkit.comonads import (
    ComonadKind,
    build_comonad,
    check_comonad_laws,
    cokleisli_extension,
    comultiplication,
    counit,
    dump_carrier,
    find_cokleisli_morphism,
    play_parts,
)
from hybridkit.structures import Signature, Structure, is_homomorphism, with_identity_I

from helpers import is_cokleisli_homomorphism, lands_in_carrier, lift_homomorphism
from randgen import random_cokleisli_map, random_structure

from fixtures import (
    BACK_EDGE,
    BOUNDED2,
    BOUNDED_FIXTURES,
    C2,
    FIXTURES30,
    LOOP,
    PATH3,
    SINGLE,
    UNIMODAL,
    fitting_kinds,
)


class TestBuild:
    def test_hybrid_path3_k2(self):
        c = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        assert c.plays == ("a", "a.b", "a.b.b", "a.b.c")

    def test_one_point_no_relations(self):
        c = build_comonad(SINGLE, ComonadKind.HYBRID, 3)
        assert c.plays == ("a",)

    def test_temporal_sees_backward_edges(self):
        temporal = build_comonad(BACK_EDGE, ComonadKind.HYBRID_TEMPORAL, 1)
        hybrid = build_comonad(BACK_EDGE, ComonadKind.HYBRID, 1)
        assert temporal.plays == ("a", "a.b")
        assert hybrid.plays == ("a",)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            build_comonad(PATH3, ComonadKind.HYBRID, 0)

    def test_bounded_needs_basepoint(self):
        from hybridkit.structures import Signature, Structure

        sig = Signature({"E": 2}, ["E"], 0)
        s = Structure(sig, ["a"], {"E": []}, [])
        with pytest.raises(ValueError):
            build_comonad(s, ComonadKind.BOUNDED, 1)

    def test_modal_requires_unimodal(self):
        with pytest.raises(ValueError):
            build_comonad(BOUNDED_FIXTURES[0], ComonadKind.MODAL, 1)

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(comonads, "MAX_PLAYS", 5)
        with pytest.raises(ResourceLimitError):
            build_comonad(PATH3, ComonadKind.EF, 3)

    @pytest.mark.parametrize("s", FIXTURES30[:10], ids=range(10))
    def test_universe_inclusions(self, s):
        k = 2
        plays = {
            kind: set(build_comonad(s, kind, k).plays)
            for kind in (
                ComonadKind.MODAL,
                ComonadKind.HYBRID,
                ComonadKind.HYBRID_TEMPORAL,
                ComonadKind.EF,
            )
        }
        assert plays[ComonadKind.MODAL] <= plays[ComonadKind.HYBRID]
        assert plays[ComonadKind.HYBRID] <= plays[ComonadKind.HYBRID_TEMPORAL]
        assert plays[ComonadKind.HYBRID_TEMPORAL] <= plays[ComonadKind.EF]
        bounded = set(build_comonad(s, ComonadKind.BOUNDED, k).plays)
        assert plays[ComonadKind.HYBRID] == bounded

    @pytest.mark.parametrize("s", FIXTURES30[:10], ids=range(10))
    def test_induced_substructure_of_ef(self, s):
        k = 2
        ef = build_comonad(s, ComonadKind.EF, k)
        for kind in (ComonadKind.HYBRID, ComonadKind.HYBRID_TEMPORAL, ComonadKind.BOUNDED):
            sub = build_comonad(s, kind, k)
            assert ef.carrier.induced(sub.plays) == sub.carrier

    @pytest.mark.parametrize("s", FIXTURES30[:12], ids=range(12))
    def test_relation_instances_pairwise_comparable(self, s):
        c = build_comonad(s, ComonadKind.HYBRID, 2, with_I=True)
        for name, tuples in c.carrier.relations.items():
            for tup in tuples:
                for p in tup:
                    for q in tup:
                        pp, qq = play_parts(p), play_parts(q)
                        assert pp[: len(qq)] == qq or qq[: len(pp)] == pp

    def test_modal_relates_only_immediate_extensions(self):
        c = build_comonad(PATH3, ComonadKind.MODAL, 2)
        assert set(c.carrier.relations["E"]) == {("a", "a.b"), ("a.b", "a.b.c")}

    def test_identity_relation(self):
        c = build_comonad(LOOP, ComonadKind.HYBRID, 2, with_I=True)
        i_rel = set(c.carrier.relations["I"])
        assert ("a", "a.a") in i_rel and ("a.a", "a") in i_rel
        assert all((p, p) in i_rel for p in c.plays)

    def test_bounded_m2_forced_prefix(self):
        s = BOUNDED_FIXTURES[0]
        c = build_comonad(s, ComonadKind.BOUNDED, 2)
        bp = s.basepoints
        assert c.plays[0] == bp[0]
        assert c.carrier.basepoints == (bp[0], f"{bp[0]}.{bp[1]}")
        for play in c.plays:
            parts = play_parts(play)
            assert parts[: min(len(parts), 2)] == bp[: len(parts)]


class TestAgainstBruteForce:
    """The BFS construction against a direct enumeration of all candidate
    sequences, and the lifted relations against their definitions."""

    @staticmethod
    def oracle_plays(s, kind, k):
        from itertools import product as iproduct

        m = s.signature.num_basepoints
        edges = {t for n in s.signature.transitions for t in s.relations[n]}

        def admissible(seq):
            if len(seq) <= m:
                return seq == s.basepoints[: len(seq)]
            if seq[:m] != s.basepoints:
                return False
            for j in range(m, len(seq)):
                played = seq[:j]
                nxt = seq[j]
                if kind is ComonadKind.EF:
                    continue
                if kind is ComonadKind.MODAL:
                    if (played[-1], nxt) not in edges:
                        return False
                elif kind is ComonadKind.HYBRID or kind is ComonadKind.BOUNDED:
                    if not any((p, nxt) in edges for p in played):
                        return False
                else:
                    if not any(
                        (p, nxt) in edges or (nxt, p) in edges for p in played
                    ):
                        return False
            return True

        out = set()
        for length in range(1, k + m + 1):
            for seq in iproduct(s.universe, repeat=length):
                if admissible(seq):
                    out.add(".".join(seq))
        return out

    @pytest.mark.parametrize("s", FIXTURES30[:8], ids=range(8))
    @pytest.mark.parametrize(
        "kind",
        [ComonadKind.EF, ComonadKind.MODAL, ComonadKind.HYBRID,
         ComonadKind.HYBRID_TEMPORAL, ComonadKind.BOUNDED],
    )
    def test_universes_match_enumeration(self, s, kind):
        k = 2
        built = set(build_comonad(s, kind, k).plays)
        assert built == self.oracle_plays(s, kind, k)

    @pytest.mark.parametrize("s", FIXTURES30[:6], ids=range(6))
    def test_lifted_relations_match_definitions(self, s):
        c = build_comonad(s, ComonadKind.HYBRID, 2, with_I=True)
        plays = c.plays

        def comparable(p, q):
            pp, qq = play_parts(p), play_parts(q)
            return pp[: len(qq)] == qq or qq[: len(pp)] == pp

        for name, arity in s.signature.relations.items():
            base = set(s.relations[name])
            expected = set()
            if arity == 1:
                expected = {(p,) for p in plays if (play_parts(p)[-1],) in base}
            else:
                from itertools import product as iproduct

                for tup in iproduct(plays, repeat=arity):
                    if all(comparable(p, q) for p in tup for q in tup) and tuple(
                        play_parts(p)[-1] for p in tup
                    ) in base:
                        expected.add(tup)
            assert set(c.carrier.relations[name]) == expected, name
        expected_i = {
            (p, q)
            for p in plays
            for q in plays
            if comparable(p, q) and play_parts(p)[-1] == play_parts(q)[-1]
        }
        assert set(c.carrier.relations["I"]) == expected_i

    def test_modal_lifting_matches_definition(self):
        c = build_comonad(PATH3, ComonadKind.MODAL, 3)
        edges = set(PATH3.relations["E"])
        expected = {
            (p, q)
            for p in c.plays
            for q in c.plays
            if play_parts(q)[:-1] == play_parts(p)
            and (play_parts(p)[-1], play_parts(q)[-1]) in edges
        }
        assert set(c.carrier.relations["E"]) == expected


class TestCounitAndExtension:
    def test_counit_values(self):
        c = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        assert counit(c, "a.b") == "b"
        assert counit(c, "a") == "a"

    def test_counit_rejects_foreign_play(self):
        c = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        with pytest.raises(ValueError):
            counit(c, "a.c")

    @pytest.mark.parametrize("s", FIXTURES30[:8], ids=range(8))
    def test_counit_is_homomorphism(self, s):
        c = build_comonad(s, ComonadKind.HYBRID, 2)
        eps = {p: counit(c, p) for p in c.plays}
        assert is_homomorphism(eps, c.carrier, s)
        ci = build_comonad(s, ComonadKind.HYBRID, 2, with_I=True)
        eps_i = {p: counit(ci, p) for p in ci.plays}
        assert is_homomorphism(eps_i, ci.carrier, with_identity_I(s))

    def test_counit_extension_is_identity(self):
        c = build_comonad(PATH3, ComonadKind.HYBRID, 3)
        eps = {p: counit(c, p) for p in c.plays}
        assert cokleisli_extension(eps, c, c) == {p: p for p in c.plays}

    def test_constant_map_extension(self):
        c_path = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        c_loop = build_comonad(LOOP, ComonadKind.HYBRID, 2)
        h = {p: "a" for p in c_path.plays}
        h_star = cokleisli_extension(h, c_path, c_loop)
        assert h_star["a.b"] == "a.a"
        assert lands_in_carrier(h_star, c_loop)

    def test_comultiplication(self):
        c = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        assert comultiplication(c, "a.b") == ("a", "a.b")
        assert comultiplication(c, "a") == ("a",)

    def test_extension_requires_total_map(self):
        c = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        with pytest.raises(ValueError):
            cokleisli_extension({"a": "a"}, c, c)

    @pytest.mark.parametrize("s", FIXTURES30[:8], ids=range(8))
    def test_counit_after_comultiplication(self, s):
        c = build_comonad(s, ComonadKind.HYBRID, 2)
        for p in c.plays:
            assert comultiplication(c, p)[-1] == p


class TestLaws:
    def test_random_unimodal_fixtures_pass(self):
        rng = random.Random(31)
        for _ in range(25):
            base = random_structure(rng, max_size=3, signature=UNIMODAL)
            k = rng.randint(1, 3)
            c_a = build_comonad(base, ComonadKind.HYBRID, k)
            h, image_b = random_cokleisli_map(rng, c_a)
            c_b = build_comonad(image_b, ComonadKind.HYBRID, k)
            g, image_c = random_cokleisli_map(rng, c_b)
            c_c = build_comonad(image_c, ComonadKind.HYBRID, k)
            report = check_comonad_laws(c_a, c_b, c_c, h, g)
            assert report.all_pass, report.failures

    def test_bounded_m2_fixtures_pass(self):
        rng = random.Random(32)
        for base in BOUNDED_FIXTURES[:5]:
            c_a = build_comonad(base, ComonadKind.BOUNDED, 2)
            h, image_b = random_cokleisli_map(rng, c_a)
            c_b = build_comonad(image_b, ComonadKind.BOUNDED, 2)
            g, image_c = random_cokleisli_map(rng, c_b)
            c_c = build_comonad(image_c, ComonadKind.BOUNDED, 2)
            report = check_comonad_laws(c_a, c_b, c_c, h, g)
            assert report.all_pass, report.failures

    def test_corrupted_extension_fails_counit_law(self, monkeypatch):
        # the first coextension the check computes, that of h, loses the
        # last move of every play longer than one move
        c = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        eps = {p: counit(c, p) for p in c.plays}
        calls = []

        def corrupted_first(h, c_a, c_b):
            star = cokleisli_extension(h, c_a, c_b)
            if calls:
                return star
            calls.append(None)
            bad_star = {}
            for play, image in star.items():
                parts = play_parts(image)
                bad_star[play] = ".".join(parts[:-1]) if len(parts) > 1 else image
            return bad_star

        monkeypatch.setattr(comonads, "cokleisli_extension", corrupted_first)
        report = check_comonad_laws(c, c, c, eps, eps)
        assert not report.counit_law


def _corrupt_call(monkeypatch, n):
    """Make the ``n``-th coextension a law check computes (1-based) drop the
    last move of every play longer than one move."""
    calls = []

    def corrupted(h, c_a, c_b):
        star = cokleisli_extension(h, c_a, c_b)
        calls.append(None)
        if len(calls) != n:
            return star
        return {
            play: ".".join(play_parts(image)[:-1]) if "." in image else image
            for play, image in star.items()
        }

    monkeypatch.setattr(comonads, "cokleisli_extension", corrupted)


class TestLawPins:
    """One sabotaged input per failure branch of ``check_comonad_laws``; the
    coextensions are computed for h, g, the counit and g after h, in order."""

    def setup_method(self):
        self.c = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        self.eps = {p: counit(self.c, p) for p in self.c.plays}

    def check(self, h):
        return check_comonad_laws(self.c, self.c, self.c, h, self.eps)

    def test_counit(self, monkeypatch):
        _corrupt_call(monkeypatch, 1)
        report = self.check(self.eps)
        assert (report.counit_law, report.identity_law) == (False, True)
        assert not report.associativity_law
        assert report.failures == (
            "counit law fails at 'a.b'",
            "associativity law fails at 'a.b'",
        )

    def test_identity(self, monkeypatch):
        _corrupt_call(monkeypatch, 3)
        report = self.check(self.eps)
        assert (report.counit_law, report.identity_law) == (True, False)
        assert report.associativity_law
        assert report.failures == ("identity law fails at 'a.b'",)

    def test_associativity_escape(self):
        # a.b goes to c, and a.c is no play of PATH3
        h = {p: "c" if p.endswith("b") else counit(self.c, p) for p in self.c.plays}
        report = self.check(h)
        assert (report.counit_law, report.identity_law) == (True, True)
        assert not report.associativity_law
        assert report.failures == (
            "associativity law not checkable at 'a.b': "
            "'a.c' is outside the middle carrier",
        )

    def test_associativity(self, monkeypatch):
        _corrupt_call(monkeypatch, 4)
        report = self.check(self.eps)
        assert (report.counit_law, report.identity_law) == (True, True)
        assert not report.associativity_law
        assert report.failures == ("associativity law fails at 'a.b'",)


class TestMorphismSearch:
    def test_path3_to_loop_exists(self):
        witness = find_cokleisli_morphism(PATH3, LOOP, ComonadKind.HYBRID, 3)
        assert witness is not None
        c = build_comonad(PATH3, ComonadKind.HYBRID, 3, with_I=True)
        assert is_cokleisli_homomorphism(witness, c, LOOP)
        assert set(witness.values()) == {"a"}

    def test_loop_to_path3_blocked(self):
        assert find_cokleisli_morphism(LOOP, PATH3, ComonadKind.HYBRID, 1) is None

    def test_search_keeps_the_carrier_guards(self, monkeypatch):
        monkeypatch.setattr(comonads, "MAX_PLAYS", 5)
        with pytest.raises(ResourceLimitError):
            find_cokleisli_morphism(PATH3, PATH3, ComonadKind.EF, 3)
        with pytest.raises(ValueError):
            find_cokleisli_morphism(PATH3, PATH3, ComonadKind.HYBRID, 0)
        s = BOUNDED_FIXTURES[0]
        with pytest.raises(ValueError):
            find_cokleisli_morphism(s, s, ComonadKind.MODAL, 1)
        carrier = build_comonad(SINGLE, ComonadKind.HYBRID, 1, with_I=True).carrier
        with pytest.raises(InvalidStructureError):
            find_cokleisli_morphism(carrier, carrier, ComonadKind.EF, 1)

    def test_identity_lift_refuses_a_base_that_interprets_I(self):
        carrier = build_comonad(SINGLE, ComonadKind.HYBRID, 1, with_I=True).carrier
        with pytest.raises(InvalidStructureError, match="already interprets 'I'"):
            build_comonad(carrier, ComonadKind.EF, 1, with_I=True)

    @pytest.mark.parametrize("s", FIXTURES30[:8], ids=range(8))
    def test_identity_always_exists(self, s):
        witness = find_cokleisli_morphism(s, s, ComonadKind.HYBRID, 2)
        assert witness is not None
        c = build_comonad(s, ComonadKind.HYBRID, 2, with_I=True)
        assert is_cokleisli_homomorphism(witness, c, s)
        # the counit itself is always a witness
        eps = {p: counit(c, p) for p in c.plays}
        assert is_cokleisli_homomorphism(eps, c, s)

    def test_deterministic_witness(self):
        w1 = find_cokleisli_morphism(PATH3, C2, ComonadKind.HYBRID, 2)
        w2 = find_cokleisli_morphism(PATH3, C2, ComonadKind.HYBRID, 2)
        assert w1 == w2

    @pytest.mark.parametrize(
        "kind",
        [
            ComonadKind.EF,
            ComonadKind.MODAL,
            ComonadKind.HYBRID,
            ComonadKind.HYBRID_TEMPORAL,
            ComonadKind.BOUNDED,
        ],
    )
    def test_identity_exists_for_every_kind(self, kind):
        assert find_cokleisli_morphism(PATH3, PATH3, kind, 2) is not None


class TestFunctoriality:
    @pytest.mark.parametrize("s", FIXTURES30[:6], ids=range(6))
    def test_lifted_homomorphism(self, s):
        rng = random.Random(40)
        from randgen import random_quotient

        f, image = random_quotient(rng, s)
        c_a = build_comonad(s, ComonadKind.HYBRID, 2)
        c_b = build_comonad(image, ComonadKind.HYBRID, 2)
        lifted = lift_homomorphism(f, c_a, c_b)
        assert lands_in_carrier(lifted, c_b)
        assert is_homomorphism(lifted, c_a.carrier, c_b.carrier)


class TestDump:
    def test_stable_dump(self):
        c = build_comonad(PATH3, ComonadKind.HYBRID, 2)
        text = dump_carrier(c)
        assert text.splitlines()[:7] == [
            "kind: hybrid",
            "k: 2",
            "plays: 4",
            "a",
            "a.b",
            "a.b.b",
            "a.b.c",
        ]
        assert dump_carrier(c) == text


def copy_of(s: Structure) -> Structure:
    """An equal structure that shares no index or stored carrier with ``s``."""
    return Structure(s.signature, s.universe, s.relations, s.basepoints)


class TestSharedCarrier:
    def test_same_key_reuses_the_pieces(self):
        s = copy_of(PATH3)
        first = build_comonad(s, ComonadKind.HYBRID, 2)
        again = build_comonad(s, ComonadKind.HYBRID, 2)
        assert again == first
        assert again.carrier is first.carrier
        assert again.parts is first.parts
        assert again.prefixes is first.prefixes
        assert again.children("a") is first.children("a")

    @pytest.mark.parametrize("with_I", [False, True])
    def test_equal_structures_build_equal_carriers(self, with_I):
        s = BOUNDED_FIXTURES[0]
        ours = build_comonad(copy_of(s), ComonadKind.BOUNDED, 2, with_I)
        theirs = build_comonad(copy_of(s), ComonadKind.BOUNDED, 2, with_I)
        assert ours.carrier is not theirs.carrier
        assert (ours.kind, ours.k, ours.base, ours.carrier, ours.with_I) == (
            theirs.kind, theirs.k, theirs.base, theirs.carrier, theirs.with_I
        )
        assert ours.carrier.relations == theirs.carrier.relations
        assert ours.parts == theirs.parts
        assert ours.prefixes == theirs.prefixes
        assert ours._children == theirs._children

    def test_each_key_has_its_own_carrier(self):
        s = copy_of(PATH3)
        first = build_comonad(s, ComonadKind.HYBRID, 2)
        others = [
            (ComonadKind.HYBRID, 3, False),
            (ComonadKind.EF, 2, False),
            (ComonadKind.HYBRID, 2, True),
        ]
        for kind, k, with_I in others:
            got = build_comonad(s, kind, k, with_I)
            assert got == build_comonad(copy_of(PATH3), kind, k, with_I)
            assert (got.kind, got.k, got.with_I) == (kind, k, with_I)
            back = build_comonad(s, ComonadKind.HYBRID, 2)
            assert back == first
            assert back.carrier is not first.carrier
            first = back

    def test_a_stored_carrier_keeps_the_play_cap(self, monkeypatch):
        s = copy_of(PATH3)
        plays = len(build_comonad(s, ComonadKind.EF, 3).plays)
        monkeypatch.setattr(comonads, "MAX_PLAYS", plays - 1)
        with pytest.raises(ResourceLimitError, match=f"exceed {plays - 1} plays"):
            build_comonad(s, ComonadKind.EF, 3)
        monkeypatch.setattr(comonads, "MAX_PLAYS", plays)
        assert len(build_comonad(s, ComonadKind.EF, 3).plays) == plays

    def test_no_reference_cycle(self):
        gc.collect()
        gc.disable()
        try:
            s = copy_of(PATH3)
            c = build_comonad(s, ComonadKind.HYBRID, 2, with_I=True)
            del s, c
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_invalid_requests_raise_every_time(self):
        s = copy_of(PATH3)
        bounded = copy_of(BOUNDED_FIXTURES[0])
        no_basepoint = Structure(Signature({"E": 2}, ["E"], 0), ["a"], {"E": []}, [])
        dotted = Structure(Signature({"E": 2}, ["E"], 1), ["a.b"], {"E": []}, ["a.b"])
        with_I = build_comonad(copy_of(SINGLE), ComonadKind.HYBRID, 1, with_I=True).carrier
        calls = [
            (ValueError, lambda: build_comonad(s, ComonadKind.HYBRID, 0)),
            (ValueError, lambda: build_comonad(bounded, ComonadKind.MODAL, 1)),
            (ValueError, lambda: build_comonad(no_basepoint, ComonadKind.BOUNDED, 1)),
            (ValueError, lambda: build_comonad(dotted, ComonadKind.EF, 1)),
            (InvalidStructureError, lambda: build_comonad(with_I, ComonadKind.EF, 1, True)),
        ]
        for structure in (s, bounded, no_basepoint, with_I):  # each holds a carrier
            build_comonad(structure, ComonadKind.EF, 1)
        for error, call in calls:
            for _ in range(2):
                with pytest.raises(error):
                    call()


class TestPinnedCarriers:
    def test_dumps_are_unchanged(self):
        # computed while the carrier was built by splitting its play strings
        digest = hashlib.sha256()
        for s in FIXTURES30[:8] + BOUNDED_FIXTURES:
            for kind in fitting_kinds(s):
                for k in (1, 2, 3):
                    for with_I in (False, True):
                        c = build_comonad(s, kind, k, with_I=with_I)
                        digest.update(dump_carrier(c).encode())
                        bps = " ".join(c.carrier.basepoints)
                        digest.update(f"basepoints: {bps}\n".encode())
        assert digest.hexdigest() == (
            "010539a121e2a8538db829f43b2056dfe0c3627f19ad6b7c8b8a46f1405faefe"
        )

    @staticmethod
    def in_carrier_order(s, plays):
        """Plays sorted by length, then by base universe positions."""
        pos = {e: i for i, e in enumerate(s.universe)}
        ranks = {p: [pos[e] for e in play_parts(p)] for p in plays}
        return sorted(plays, key=lambda p: (len(ranks[p]), ranks[p]))

    def test_ef_carrier_without_basepoints(self):
        sig = Signature({"E": 2, "P": 1}, ["E"], 0)
        rels = {"E": [("b", "a"), ("a", "c")], "P": [("c",)]}
        s = Structure(sig, ["b", "a", "c"], rels, [])
        c = build_comonad(s, ComonadKind.EF, 2)
        oracle = TestAgainstBruteForce.oracle_plays(s, ComonadKind.EF, 2)
        assert list(c.plays) == self.in_carrier_order(s, oracle)
        assert c.carrier.basepoints == ()

    def test_repeated_basepoints(self):
        rels = {"E": [("a", "b")], "F": [("b", "a")], "P": []}
        s = Structure(BOUNDED2, ["b", "a"], rels, ["a", "a"])
        for kind in fitting_kinds(s):
            c = build_comonad(s, kind, 2)
            oracle = TestAgainstBruteForce.oracle_plays(s, kind, 2)
            assert list(c.plays) == self.in_carrier_order(s, oracle), kind
            assert c.carrier.basepoints == ("a", "a.a")

    @pytest.mark.parametrize("s", FIXTURES30[:4], ids=range(4))
    def test_search_witness_is_keyed_in_carrier_order(self, s):
        for kind in fitting_kinds(s):
            witness = find_cokleisli_morphism(s, s, kind, 2)
            assert list(witness) == list(build_comonad(s, kind, 2).plays), kind


PACKAGE = pathlib.Path(hybridkit.__file__).parent


def _names(path: pathlib.Path) -> set[str]:
    """Every name, attribute and imported name in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


class TestPlayEncodingStaysPrivate:
    # other modules read a carrier's maps, never the separator-joined strings
    ENCODING_NAMES = {"play_parts", "play_join", "PLAY_SEP"}

    @pytest.mark.parametrize(
        "path",
        [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "comonads.py"],
        ids=lambda path: path.name,
    )
    def test_other_modules_do_not_name_the_encoding(self, path):
        assert not _names(path) & self.ENCODING_NAMES

    def test_the_walk_finds_the_encoding_in_comonads(self):
        assert self.ENCODING_NAMES <= _names(PACKAGE / "comonads.py")

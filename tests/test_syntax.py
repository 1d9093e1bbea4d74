"""Hash-consed first-order syntax: interning, the weak intern table, the
per-node free variables, rank and boundedness, checked against naive tree
walks and a naive evaluator written here."""
import copy
import dataclasses
import gc
import hashlib
import inspect
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hybridkit import syntax as sx
from hybridkit.errors import ParseError
from hybridkit.parser import parse_fo, print_fo
from hybridkit.scott import characteristic_formula, normalize_counting, scott_formula
from hybridkit.semantics import eval_fo, gaifman_relativize, standard_translation

from fixtures import BOUNDED_FIXTURES, C2, FIXTURES30, UNIMODAL
from helpers import interned_count
from randgen import random_bounded_sentence, random_fo_sentence, random_hybrid_formula

#: Two elements, a loop and one edge, P everywhere: its rank-4 characteristic
#: formula is 275,730 nodes written out as a tree.
SHARED = FIXTURES30[20]

# -- naive references: plain tree walks, no caching ----------------------------------


def children(f):
    return [
        value
        for value in (getattr(f, field.name) for field in dataclasses.fields(f))
        if isinstance(value, sx.FOFormula)
    ]


def naive_free(f) -> frozenset:
    if isinstance(f, (sx.Rel, sx.Acc, sx.Eq)):
        terms = f.args if isinstance(f, sx.Rel) else (
            f.sources if isinstance(f, sx.Acc) else (f.left, f.right)
        )
        out = {t.name for t in terms if isinstance(t, sx.Var)}
        if isinstance(f, sx.Acc):
            out.add(f.var)
        return frozenset(out)
    out = frozenset().union(*(naive_free(c) for c in children(f)))
    if hasattr(f, "var"):
        out -= {f.var}
    return out


def naive_rank(f) -> int:
    below = max((naive_rank(c) for c in children(f)), default=0)
    quantified = isinstance(
        f, (sx.Forall, sx.Exists, sx.BoundedForall, sx.BoundedExists, sx.CountExists)
    )
    return below + 1 if quantified else below


def naive_bounded(f, signature) -> bool:
    if isinstance(f, (sx.Forall, sx.Exists)):
        return False
    if isinstance(f, (sx.BoundedForall, sx.BoundedExists, sx.CountExists)):
        return sx.is_transition_guard(f.guard, f.var, signature) and naive_bounded(
            f.body, signature
        )
    return all(naive_bounded(c, signature) for c in children(f))


def naive_eval(f, s, env) -> bool:
    def term(t):
        return env[t.name] if isinstance(t, sx.Var) else s.basepoints[t.index - 1]

    def holds(g, e):
        return naive_eval(g, s, {**env, f.var: e})

    if isinstance(f, sx.Rel):
        return tuple(term(t) for t in f.args) in s.relations[f.name]
    if isinstance(f, sx.Eq):
        return term(f.left) == term(f.right)
    if isinstance(f, sx.Top):
        return True
    if isinstance(f, sx.Bottom):
        return False
    if isinstance(f, sx.Acc):
        return any(
            (term(t), env[f.var]) in s.relations[name]
            for name in s.signature.transitions
            for t in f.sources
        )
    if isinstance(f, sx.Not):
        return not naive_eval(f.sub, s, env)
    if isinstance(f, sx.And):
        return naive_eval(f.left, s, env) and naive_eval(f.right, s, env)
    if isinstance(f, sx.Or):
        return naive_eval(f.left, s, env) or naive_eval(f.right, s, env)
    if isinstance(f, sx.Forall):
        return all(holds(f.body, e) for e in s.universe)
    if isinstance(f, sx.Exists):
        return any(holds(f.body, e) for e in s.universe)
    if isinstance(f, sx.BoundedForall):
        return all(not holds(f.guard, e) or holds(f.body, e) for e in s.universe)
    if isinstance(f, sx.BoundedExists):
        return any(holds(f.guard, e) and holds(f.body, e) for e in s.universe)
    if isinstance(f, sx.CountExists):
        hits = sum(1 for e in s.universe if holds(f.guard, e) and holds(f.body, e))
        return hits >= f.count
    raise TypeError(f)


def distinct(root) -> list:
    """Every distinct subformula, the root first."""
    seen: dict = {}
    stack = [root]
    while stack:
        f = stack.pop()
        if f not in seen:
            seen[f] = None
            stack.extend(children(f))
    return list(seen)


def tree_size(root) -> int:
    """Nodes of the formula written out as a tree, counted without writing
    it out."""
    size: dict = {}

    def visit(f) -> int:
        if f not in size:
            size[f] = 1 + sum(visit(c) for c in children(f))
        return size[f]

    return visit(root)


# -- interning ------------------------------------------------------------------------


def build_sample():
    y = sx.Var("y")
    guard = sx.Rel("E", (sx.Const(1), y))
    return sx.And(
        sx.BoundedExists("y", guard, sx.Not(sx.Rel("P", (y,)))),
        sx.CountExists(2, "y", guard, sx.Eq(y, sx.Const(1))),
    )


class TestInterning:
    def test_equal_constructions_are_one_object(self):
        assert build_sample() is build_sample()
        assert sx.Var("y") is sx.Var(name="y")
        assert sx.Rel("E", (sx.Const(1), sx.Var("y"))) is sx.Rel(
            args=(sx.Const(1), sx.Var("y")), name="E"
        )
        assert sx.Top() is sx.TRUE
        assert sx.And(sx.TRUE, sx.FALSE) is not sx.Or(sx.TRUE, sx.FALSE)

    def test_copies_and_pickles_are_the_node(self):
        f = build_sample()
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f

    def test_reparse_of_chi_is_chi(self):
        for k in (1, 2, 3):
            chi = characteristic_formula(C2, k, temporal=True)
            assert parse_fo(print_fo(chi)) is chi

    def test_table_releases_dead_formulas(self):
        gc.collect()
        before = interned_count()
        chi = characteristic_formula(SHARED, 3)
        normalized = normalize_counting(scott_formula(SHARED, 2), UNIMODAL)
        assert interned_count() > before
        del chi, normalized
        gc.collect()
        assert interned_count() <= before

    def test_fields_are_only_syntactic_parts(self):
        expected = {
            sx.Var: ["name"],
            sx.Const: ["index"],
            sx.Rel: ["name", "args"],
            sx.Eq: ["left", "right"],
            sx.Top: [],
            sx.Bottom: [],
            sx.Not: ["sub"],
            sx.And: ["left", "right"],
            sx.Or: ["left", "right"],
            sx.Forall: ["var", "body"],
            sx.Exists: ["var", "body"],
            sx.BoundedForall: ["var", "guard", "body"],
            sx.BoundedExists: ["var", "guard", "body"],
            sx.CountExists: ["count", "var", "guard", "body"],
            sx.Acc: ["sources", "var"],
        }
        node_classes = {
            value
            for value in vars(sx).values()
            if isinstance(value, type)
            and dataclasses.is_dataclass(value)
            and issubclass(value, (sx.Term, sx.FOFormula))
        }
        assert node_classes == set(expected)
        for cls, names in expected.items():
            assert [field.name for field in dataclasses.fields(cls)] == names
            assert list(inspect.signature(cls).parameters) == names

    def test_nodes_have_no_instance_dict(self):
        for f in (sx.Var("y"), sx.TRUE, build_sample()):
            assert not hasattr(f, "__dict__")

    def test_nodes_are_immutable(self):
        f = build_sample()
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.left = sx.TRUE
        assert f is build_sample()


# -- per-node fields against tree walks ----------------------------------------------


class TestStoredFields:
    def test_chi_sharing_counts(self):
        chi = characteristic_formula(SHARED, 4)
        assert tree_size(chi) == 275730
        assert len(distinct(chi)) == 1276  # 2,845 distinct objects before interning

    def test_chi_fields_match_tree_walks(self):
        # every distinct subformula up to rank 2, then the whole formula at
        # rank 3: the tree walks alone take seconds at rank 4
        checked = [f for k in (0, 1, 2) for f in distinct(characteristic_formula(SHARED, k))]
        checked.append(characteristic_formula(SHARED, 3))
        for f in checked:
            assert sx.free_vars(f) == naive_free(f)
            assert sx.quantifier_rank(f) == naive_rank(f)
            assert sx.is_bounded(f, UNIMODAL) == naive_bounded(f, UNIMODAL)

    def test_is_bounded_visits_each_distinct_node_once(self, monkeypatch):
        chi = characteristic_formula(SHARED, 4)
        checked = []
        real = sx.is_transition_guard

        def counting(guard, var, signature):
            checked.append(guard)
            return real(guard, var, signature)

        monkeypatch.setattr(sx, "is_transition_guard", counting)
        assert sx.is_bounded(chi, UNIMODAL)
        guarded = (sx.BoundedForall, sx.BoundedExists, sx.CountExists)
        assert len(checked) == sum(isinstance(f, guarded) for f in distinct(chi))

    def test_open_subformulas(self):
        f = build_sample()
        body = f.left.body
        assert body.free == ("y",)
        assert sx.free_vars(f) == frozenset()
        inner = sx.And(body, sx.Rel("E", (sx.Var("x"), sx.Var("z"))))
        assert inner.free == ("x", "y", "z")
        assert sx.free_vars(sx.Acc((sx.Var("x"),), "y")) == {"x", "y"}

    def test_unguarded_quantifier_is_not_bounded(self):
        f = sx.And(build_sample(), sx.Exists("y", sx.Rel("P", (sx.Var("y"),))))
        assert not sx.is_bounded(f, UNIMODAL)
        assert naive_bounded(f, UNIMODAL) is False


# -- random formulas ---------------------------------------------------------------

VARS = ("y1", "y2", "y3")
TERMS = st.sampled_from([sx.Const(1)] + [sx.Var(v) for v in VARS])


def _guard(draw, var):
    source = draw(TERMS.filter(lambda t: t != sx.Var(var)))
    if draw(st.booleans()):
        return sx.Rel("E", (source, sx.Var(var)))
    return sx.Rel("E", (sx.Var(var), source))


@st.composite
def formulas(draw, depth=3):
    """A random first-order formula over P, Q and E, nested at most
    ``depth`` deep, whose free variables are among y1..y3."""
    kinds = ["rel", "eq", "top", "acc"]
    if depth > 0:
        kinds += ["not", "and", "or", "forall", "exists", "bforall", "bexists", "count"]
    kind = draw(st.sampled_from(kinds))
    if kind == "rel":
        name = draw(st.sampled_from(["P", "Q", "E"]))
        arity = 2 if name == "E" else 1
        return sx.Rel(name, tuple(draw(TERMS) for _ in range(arity)))
    if kind == "eq":
        return sx.Eq(draw(TERMS), draw(TERMS))
    if kind == "top":
        return draw(st.sampled_from([sx.TRUE, sx.FALSE]))
    if kind == "acc":
        return sx.Acc((draw(TERMS),), draw(st.sampled_from(VARS)))
    sub = formulas(depth=depth - 1)
    if kind == "not":
        return sx.Not(draw(sub))
    if kind in ("and", "or"):
        ctor = sx.And if kind == "and" else sx.Or
        return ctor(draw(sub), draw(sub))
    var = draw(st.sampled_from(VARS))
    if kind == "forall":
        return sx.Forall(var, draw(sub))
    if kind == "exists":
        return sx.Exists(var, draw(sub))
    guard = _guard(draw, var)
    if kind == "bforall":
        return sx.BoundedForall(var, guard, draw(sub))
    if kind == "bexists":
        return sx.BoundedExists(var, guard, draw(sub))
    return sx.CountExists(draw(st.integers(1, 3)), var, guard, draw(sub))


def rebuild(f):
    """A structurally equal copy made by fresh constructor calls."""
    parts = []
    for name in f.__match_args__:
        value = getattr(f, name)
        if isinstance(value, tuple):
            value = tuple(rebuild(t) for t in value)
        elif isinstance(value, (sx.FOFormula, sx.Term)):
            value = rebuild(value)
        parts.append(value)
    return type(f)(*parts)


@settings(max_examples=150, deadline=None)
@given(
    formulas(),
    st.sampled_from(FIXTURES30[:12]),
    st.lists(st.integers(0, 3), min_size=len(VARS), max_size=len(VARS)),
)
def test_random_formulas_intern_and_evaluate(f, s, picks):
    assert rebuild(f) is f
    assert sx.free_vars(f) == naive_free(f)
    assert sx.quantifier_rank(f) == naive_rank(f)
    assert sx.is_bounded(f, UNIMODAL) == naive_bounded(f, UNIMODAL)
    env = {v: s.universe[i % len(s.universe)] for v, i in zip(VARS, picks)}
    assert eval_fo(f, s, env) == naive_eval(f, s, env)


# -- pinned walker outputs ------------------------------------------------------------


def _hybrid_parts(f):
    """``f`` and every hybrid node below it, read off the dataclass fields."""
    yield f
    for field in dataclasses.fields(f):
        part = getattr(f, field.name)
        if isinstance(part, sx.HybridFormula):
            yield from _hybrid_parts(part)


def _dag(root) -> str:
    """``root`` written once per distinct node, in post-order, each node as
    its class and its parts, a subformula by its number."""
    ids: dict = {}

    def visit(f) -> int:
        if f not in ids:
            parts = [
                str(visit(part)) if isinstance(part, sx.FOFormula) else repr(part)
                for part in (getattr(f, name) for name in f.__match_args__)
            ]
            lines.append(f"{type(f).__name__}({', '.join(parts)})")
            ids[f] = len(ids)
        return ids[f]

    lines: list[str] = []
    visit(root)
    return "; ".join(lines)


def _walker_outputs():
    """One line per output of the formula walkers: relativization, counting
    normalization, the boundedness test, the three hybrid walkers and the
    standard translation, over fixtures and seeded random formulas."""
    rng = random.Random(16)
    signatures = {s.signature: None for s in FIXTURES30 + BOUNDED_FIXTURES}
    for sig in signatures:
        for _ in range(40):
            for f in (
                random_bounded_sentence(rng, sig, 2),
                random_fo_sentence(rng, sig, 2),
            ):
                yield f"bounded {sx.is_bounded(f, sig)} {sx.is_bounded(f, UNIMODAL)}"
                for k in (1, 2):
                    yield print_fo(gaifman_relativize(f, k, sig))
    for s in FIXTURES30 + BOUNDED_FIXTURES:
        for k in (1, 2):
            yield _dag(normalize_counting(scott_formula(s, k), s.signature))
    for _ in range(300):
        f = random_hybrid_formula(rng, rng.randint(0, 3))
        for g in (f, sx.At(sx.Nom(2), sx.DiaInv(f)), sx.BoxInv(sx.Conj(sx.Nom(3), f))):
            for part in _hybrid_parts(g):
                free = sorted(sx.free_world_vars(part))
                yield f"hybrid {free} {sx.max_nominal(part)} {sx.hybrid_depth(part)}"
            yield print_fo(standard_translation(g))


#: Names for the constructors: some the parser reads, some it refuses, and
#: one it reads only as a relation (``c1``).
NAMES = st.one_of(
    st.sampled_from(["x", "y1", "E", "c1", "c01", "true", "acc", "_", ""]),
    st.text("cxyE_01 -'", max_size=4),
)


class TestPinnedWalkers:
    def test_a_term_in_a_formula_field_is_refused(self):
        # a first-order constructor refuses a term where a formula belongs,
        # and a hybrid walker refuses a non-formula when it reaches it
        walks = [
            lambda: sx.is_bounded(sx.Not(sx.Var("x")), UNIMODAL),
            lambda: normalize_counting(sx.And(sx.TRUE, sx.Var("x")), UNIMODAL),
            lambda: gaifman_relativize(sx.Exists("y", sx.Var("y")), 1, UNIMODAL),
            lambda: sx.free_world_vars(sx.Neg("x")),
            lambda: sx.hybrid_depth(sx.Box(3)),
        ]
        for walk in walks:
            with pytest.raises(TypeError, match="^not a (first-order|hybrid) formula"):
                walk()

    def test_construction_refuses_a_misplaced_part(self):
        x = sx.Var("x")
        # a guard no other test builds, so each count misses the intern table
        guard = sx.Rel("Refused", (sx.Const(1), sx.Var("y")))
        builds = {
            "^not a first-order formula: Var": [
                lambda: sx.Not(x),
                lambda: sx.And(sx.TRUE, x),
                lambda: sx.BoundedExists("y", x, sx.TRUE),
            ],
            "^not a term: Top": [
                lambda: sx.Eq(sx.TRUE, x),
                lambda: sx.Rel("E", (sx.TRUE, x)),
            ],
            "^not a term: Not": [lambda: sx.Acc((sx.Not(sx.TRUE),), "y")],
        }
        for message, calls in builds.items():
            for build in calls:
                with pytest.raises(TypeError, match=message):
                    build()
        # "at least 0" would hold everywhere, yet count as no witness found
        for count in (0, -1, True):
            message = f"^a count must be an int of at least 1, got {count}$"
            with pytest.raises(ValueError, match=message):
                sx.CountExists(count, "y", guard, sx.FALSE)

    def test_a_name_must_be_a_string(self):
        # a non-string name would print as text that parse_fo refuses
        builds = [
            lambda: sx.Var(5),
            lambda: sx.Rel(7, (sx.Const(1),)),
            lambda: sx.Exists(5, sx.TRUE),
            lambda: sx.Forall(None, sx.TRUE),
            lambda: sx.BoundedExists(5, sx.TRUE, sx.TRUE),
            lambda: sx.CountExists(2, 5, sx.TRUE, sx.TRUE),
            lambda: sx.Acc((sx.Const(1),), 5),
            lambda: sx.Exists(var=5, body=sx.TRUE),
        ]
        for build in builds:
            with pytest.raises(TypeError, match="^not a name: (5|7|None)$"):
                build()

    def test_a_name_must_parse_back(self):
        # each printed as text that parse_fo refuses, or reads as another node
        builds = {
            "variable name": [
                lambda: sx.Exists("", sx.TRUE),
                lambda: sx.Exists("5", sx.TRUE),
                lambda: sx.Exists("true", sx.TRUE),
                lambda: sx.Forall("c1", sx.TRUE),
                lambda: sx.Acc((sx.Const(1),), "y-1"),
                lambda: sx.Rel("P", (sx.Var("x y"),)),
                lambda: sx.Var("c2"),
                lambda: sx.Var("true"),
            ],
            "relation name": [
                lambda: sx.Rel("acc", (sx.Const(1),)),
                lambda: sx.Rel("E'", (sx.Const(1),)),
            ],
        }
        for what, calls in builds.items():
            for build in calls:
                with pytest.raises(ValueError, match=f"^not a {what} the parser reads: "):
                    build()
        # a keyword is no variable, bound or not, while c1 may name a relation
        with pytest.raises(ParseError, match="expected a variable, found 'true'"):
            parse_fo("exists true (P(c1))")
        for text in ("c1(c1)", "acc(c1; _)"):
            assert print_fo(parse_fo(text)) == text

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.lists(NAMES, min_size=3, max_size=3))
    def test_a_node_built_from_names_prints_back(self, kind, names):
        a, b, c = names
        builds = [
            lambda: sx.Rel(a, (sx.Var(b), sx.Const(1))),
            lambda: sx.Eq(sx.Var(a), sx.Var(b)),
            lambda: sx.Exists(a, sx.Rel("P", (sx.Var(b),))),
            lambda: sx.Forall(a, sx.Rel(b, (sx.Const(1),))),
            lambda: sx.Acc((sx.Var(a),), b),
            lambda: sx.BoundedExists(
                a, sx.Rel(b, (sx.Const(1), sx.Var(a))), sx.Rel("P", (sx.Var(c),))
            ),
        ]
        try:
            node = builds[kind]()
        except ValueError:
            return
        assert parse_fo(print_fo(node)) is node

    def test_a_bool_count_is_refused_while_its_int_twin_lives(self):
        # True == 1, so an intern lookup before the check would find the twin
        guard = sx.Rel("E", (sx.Const(1), sx.Var("y")))
        twin = sx.CountExists(1, "y", guard, sx.TRUE)
        message = "^a count must be an int of at least 1, got True$"
        with pytest.raises(ValueError, match=message):
            sx.CountExists(True, "y", guard, sx.TRUE)
        with pytest.raises(ValueError, match=message):
            sx.CountExists(count=True, var="y", guard=guard, body=sx.TRUE)
        assert sx.CountExists(1, "y", guard, sx.TRUE) is twin

    def test_a_bad_constant_index_is_refused_while_c1_lives(self):
        # True == 1 == 1.0, so an intern lookup before the check would find c1
        c1 = sx.Const(1)
        for index in (True, 0, 1.0):
            message = f"a constant index must be an int of at least 1, got {index}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sx.Const(index)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sx.Const(index=index)
        assert sx.Const(1) is c1
        text = "exists y (E(c1,y) & P(y))"
        assert print_fo(parse_fo(text)) == text

    def test_walker_outputs_are_unchanged(self):
        # computed before the walkers shared one structural walk
        digest = hashlib.sha256()
        for line in _walker_outputs():
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == (
            "9b37897330c35b59e52ff2d4a169c83e112936832835d9137308324c3d169bfe"
        )

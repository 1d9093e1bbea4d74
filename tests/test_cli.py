import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hybridkit import games
from hybridkit.cli import LOGIC_VARIANTS, run
from hybridkit.games import GameVariant
from hybridkit.parser import parse_fo, print_fo

from cli_cases import CASES

HERE = os.path.dirname(os.path.abspath(__file__))


def invoke(argv):
    sink = io.StringIO()
    code = run([a.format(d="data") for a in argv], out=sink)
    return f"exit: {code}\n{sink.getvalue()}"


@pytest.fixture(autouse=True)
def in_tests_dir(monkeypatch):
    monkeypatch.chdir(HERE)


@pytest.mark.parametrize("stem, argv", CASES, ids=[stem for stem, _ in CASES])
def test_golden(stem, argv):
    with open(os.path.join(HERE, "golden", f"{stem}.txt"), encoding="utf-8") as fh:
        expected = fh.read()
    assert invoke(argv) == expected


@pytest.mark.parametrize("stem, argv", CASES, ids=[stem for stem, _ in CASES])
def test_byte_identical_across_runs(stem, argv):
    assert invoke(argv) == invoke(argv)


@pytest.mark.parametrize("command", ["equiv", "game"])
def test_trace_solves_the_game_once(monkeypatch, command):
    solved = []
    solve = games._Arena.solve

    def counted(arena):
        solved.append(arena.variant)
        return solve(arena)

    monkeypatch.setattr(games._Arena, "solve", counted)
    argv = [command, "--left", "data/star2.json", "--right", "data/star3.json"]
    if command == "equiv":
        argv += ["--logic", "bf", "--depth", "3", "--trace"]
    else:
        argv += ["--variant", "ef", "--k", "2", "--trace"]
    run(argv, out=io.StringIO())
    assert len(solved) == 1


def test_usage_error_exit_code():
    sink = io.StringIO()
    assert run(["equiv", "--left", "data/loop.json"], out=sink) == 2


def test_unknown_command_exit_code():
    assert run(["frobnicate"], out=io.StringIO()) == 2


def _hub(tmp_path):
    """A basepoint with nine successors, written to a file."""
    from hybridkit.structures import structure_to_data
    from fixtures import star

    path = tmp_path / "hub.json"
    path.write_text(json.dumps(structure_to_data(star(9))))
    return path


def test_resource_guard_exit_code(tmp_path):
    # the 6-round EF carrier of ten elements passes the 200,000-play cap
    path = _hub(tmp_path)
    sink = io.StringIO()
    code = run(
        ["comonad", "--structure", str(path), "--kind", "ef", "--k", "6"],
        out=sink,
    )
    assert code == 3
    assert "resource limit" in sink.getvalue()


def test_wide_bijection_round_gets_a_verdict(tmp_path):
    # nine accessible elements a side: no cap on the bijection game
    path = _hub(tmp_path)
    sink = io.StringIO()
    code = run(
        ["equiv", "--left", str(path), "--right", str(path), "--logic", "bijection", "--depth", "1"],
        out=sink,
    )
    assert code == 0
    assert "equivalent: yes" in sink.getvalue()


@pytest.mark.parametrize("q", ["4", "2000"])
def test_large_workspace_replay_is_a_resource_exit(tmp_path, q):
    # 18 elements a side at q = 4 make about 1.7 M move sequences to replay;
    # at q = 2000 the guard must trip before any distance table is built
    doc = {
        "signature": {"relations": {"E": 2}, "transitions": ["E"]},
        "universe": ["x:1", "b"],
        "relations": {"E": [["x:1", "b"]]},
        "basepoints": ["x:1"],
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    sink = io.StringIO()
    started = time.monotonic()
    code = run(["workspace", "--structure", str(path), "--q", q, "--verify"], out=sink)
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert sink.getvalue().splitlines()[-1].startswith("resource limit: ")


@pytest.mark.parametrize(
    "formula",
    [
        " & ".join(["E(c1,c1)"] * 1500),
        "(" * 3000 + "E(c1,c1)" + ")" * 3000,
    ],
    ids=["flat_and_1500", "nested_parens_3000"],
)
def test_recursion_limit_is_a_resource_exit(formula, capsys):
    sink = io.StringIO()
    argv = ["check", "--structure", "data/loop.json", "--formula", formula, "--logic", "fo"]
    assert run(argv, out=sink) == 3
    assert sink.getvalue() == "resource limit: recursion too deep\n"
    assert "Traceback" not in capsys.readouterr().err


def test_module_entry_point_matches_golden():
    with open(os.path.join(HERE, "golden", "depth_path3.txt"), encoding="utf-8") as fh:
        expected = fh.read()
    src = os.path.join(os.path.dirname(HERE), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hybridkit", "depth", "--structure", "data/path3.json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=HERE,
        timeout=60,
    )
    assert f"exit: {proc.returncode}\n{proc.stdout}" == expected
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["characteristic", "--structure", "data/loop.json", "--k", "-1"],
            "rank must be non-negative, got -1",
        ),
        (
            ["equiv", "--left", "data/loop.json", "--right", "data/c2.json"]
            + ["--logic", "hybrid", "--depth", "-1"],
            "round count must be non-negative, got -1",
        ),
    ]
    + [
        (
            ["invariance", "--formula", "E(c1,c1)", "--notion", notion]
            + ["--corpus", "data/corpus"],
            f"notion '{notion}': the radius must be a natural number",
        )
        for notion in ("generated:-1", "ball:-1", "generated:x", "ball:")
    ]
    + [
        (
            ["translate", "--formula", "dia p", "--anchor", "1x"],
            "anchor '1x': at position 0: expected a term, found '1'",
        ),
        (
            ["translate", "--formula", "dia p", "--anchor", "forall"],
            "anchor 'forall': at position 0: expected a term, found 'forall'",
        ),
        (
            ["translate", "--formula", "dia p", "--anchor", "x y"],
            "anchor 'x y': at position 2: unexpected trailing input 'y'",
        ),
        (
            ["translate", "--formula", "dia p", "--transition", "E(x"],
            "transition 'E(x': expected a relation name",
        ),
        (
            ["translate", "--formula", "dia p", "--transition", "exists"],
            "transition 'exists': expected a relation name",
        ),
        (
            ["translate", "--formula", "dia p", "--anchor", "c0"],
            "anchor 'c0': at position 0: 'c0' names no basepoint: indices start at 1",
        ),
        (
            ["translate", "--formula", "@c0 p"],
            "at position 1: 'c0' names no basepoint: indices start at 1",
        ),
        (
            ["translate", "--formula", "@c01 p"],
            "at position 1: 'c01' has a leading zero",
        ),
        (
            ["check", "--structure", "data/loop.json", "--logic", "fo"]
            + ["--formula", "E(c01,c1)"],
            "at position 2: 'c01' has a leading zero",
        ),
        (
            ["check", "--structure", "data/loop.json", "--formula", "e"],
            "relation 'E' has arity 2, used with 1 argument",
        ),
        (
            ["check", "--structure", "data/loop.json", "--logic", "fo"]
            + ["--formula", "E(c1,c1,c1)"],
            "relation 'E' has arity 2, used with 3 arguments",
        ),
        (
            ["invariance", "--formula", "E(c1,c1,c1)", "--notion", "generated:1"]
            + ["--corpus", "data/corpus"],
            "relation 'E' has arity 2, used with 3 arguments",
        ),
    ],
    ids=[
        "characteristic_k_negative",
        "equiv_depth_negative",
        "generated_negative",
        "ball_negative",
        "generated_not_a_number",
        "ball_empty",
        "translate_anchor_number",
        "translate_anchor_keyword",
        "translate_anchor_two_terms",
        "translate_transition_not_a_name",
        "translate_transition_keyword",
        "translate_anchor_c0",
        "translate_nominal_c0",
        "translate_nominal_leading_zero",
        "check_fo_constant_leading_zero",
        "check_hybrid_atom_wrong_arity",
        "check_fo_atom_wrong_arity",
        "invariance_atom_wrong_arity",
    ],
)
def test_bad_number_is_an_input_error(capsys, argv, message):
    sink = io.StringIO()
    assert run(argv, out=sink) == 2
    assert sink.getvalue() == f"error: {message}\n"
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("left, right", [("aa", "ab"), ("ab", "aa")])
def test_repeated_constant_is_reported_as_one_sided_equality(tmp_path, left, right):
    paths = []
    for bps in (left, right):
        doc = {**GOOD, "relations": {"E": [["a", "b"]], "P": []}, "basepoints": list(bps)}
        paths.append(tmp_path / f"{bps}.json")
        paths[-1].write_text(json.dumps(doc))
    sink = io.StringIO()
    argv = ["equiv", "--left", str(paths[0]), "--right", str(paths[1])]
    assert run(argv + ["--logic", "bf", "--depth", "1"], out=sink) == 1
    assert sink.getvalue().splitlines()[-1] == "reason: c1 = c2 holds on one side only"


@pytest.mark.parametrize(
    "anchor, expected",
    [
        ("c1", "exists y (E(c1,y) & P(y))"),
        ("y", "exists y1 (E(y,y1) & P(y1))"),
    ],
)
def test_translate_anchor_is_a_term(anchor, expected):
    sink = io.StringIO()
    assert run(["translate", "--formula", "dia p", "--anchor", anchor], out=sink) == 0
    printed = sink.getvalue().strip()
    assert printed == expected
    assert print_fo(parse_fo(printed)) == printed


GOOD = {
    "signature": {"relations": {"E": 2, "P": 1}, "transitions": ["E"]},
    "universe": ["a", "b"],
    "relations": {"E": [["a", "b"]], "P": [["b"]]},
    "basepoints": ["a"],
}


@pytest.mark.parametrize(
    "patch, where",
    [
        ({"relations": {"E": 5}}, "relations.E: must be a list of tuples"),
        ({"relations": {"E": [5]}}, "relations.E[0]: must be a list of element ids"),
        ({"relations": {"E": "ab"}}, "relations.E: must be a list of tuples"),
        ({"relations": {"E": [[["a"], "b"]]}}, "relations.E[0][0]: element ids"),
        (
            {"signature": {"relations": {"E": 2}, "transitions": [["E"]]}},
            "signature.transitions[0]: relation names",
        ),
        ({"basepoints": [["a"]]}, "basepoints[0]: element ids"),
        (
            {"signature": {"relations": {"E": 2, "P": True}, "transitions": ["E"]}},
            "signature.relations.P: arity must be a positive integer, got True",
        ),
        (
            {"signature": {"relations": {"E": 2, "P": False}, "transitions": ["E"]}},
            "signature.relations.P: arity must be a positive integer, got False",
        ),
        (
            {"signature": {"relations": {"next-step": 2}, "transitions": ["next-step"]}},
            "signature.relations.next-step: not a relation name the parser reads",
        ),
        (
            {"signature": {"relations": {"E": 2, "acc": 1}, "transitions": ["E"]}},
            "signature.relations.acc: not a relation name the parser reads",
        ),
    ],
    ids=[
        "relation_not_a_list",
        "tuple_not_a_list",
        "relation_a_string",
        "entry_not_a_string",
        "transition_not_a_string",
        "basepoint_not_a_string",
        "arity_true",
        "arity_false",
        "relation_name_not_an_identifier",
        "relation_name_a_keyword",
    ],
)
def test_malformed_document_is_an_input_error(tmp_path, capsys, patch, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**GOOD, **patch}))
    sink = io.StringIO()
    argv = ["check", "--structure", str(path), "--formula", "p"]
    assert run(argv, out=sink) == 2
    assert sink.getvalue().startswith(f"error: {where}")
    assert "Traceback" not in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text("abEP", max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("abEP", max_size=2), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def documents(draw):
    """A structure document over {E, P}: valid, or with one node replaced by
    an arbitrary JSON value or removed."""
    universe = [f"u{i}" for i in range(draw(st.integers(0, 4)))]
    element = st.sampled_from(universe) if universe else st.nothing()
    m = draw(st.integers(0, 2)) if universe else 0
    doc = {
        "signature": {"relations": {"E": 2, "P": 1}, "transitions": ["E"]},
        "universe": universe,
        "relations": {
            "E": draw(st.lists(st.lists(element, min_size=2, max_size=2), max_size=6))
            if universe
            else [],
            "P": draw(st.lists(st.lists(element, min_size=1, max_size=1), max_size=3))
            if universe
            else [],
        },
        "basepoints": draw(st.lists(element, min_size=m, max_size=m)),
    }
    if draw(st.booleans()):
        paths = list(_paths(doc))
        *parent, last = draw(st.sampled_from(paths))
        node = doc
        for step in parent:
            node = node[step]
        if isinstance(node, dict) and draw(st.booleans()):
            del node[last]
        else:
            node[last] = draw(JSON_VALUES)
    return doc


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


FORMULAS = ["p", "dia p", "down x. dia x", "E(c1,c1)", "exists y (E(c1,y) & P(y))", "@"]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    documents(),
    documents(),
    st.sampled_from(["check-hybrid", "check-fo", "equiv", "game"]),
    st.data(),
)
def test_cli_fuzz_exits_with_a_documented_code(left, right, command, data):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, doc in enumerate((left, right)):
            paths.append(os.path.join(tmp, f"s{i}.json"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        if command.startswith("check"):
            logic = command.split("-")[1]
            formula = data.draw(st.sampled_from(FORMULAS))
            argv = ["check", "--structure", paths[0], "--formula", formula]
            argv += ["--logic", logic]
        elif command == "equiv":
            argv = ["equiv", "--left", paths[0], "--right", paths[1]]
            argv += ["--logic", data.draw(st.sampled_from(sorted(LOGIC_VARIANTS)))]
            argv += ["--depth", str(data.draw(st.integers(0, 2)))]
        else:
            variant = data.draw(st.sampled_from([v.value for v in GameVariant]))
            argv = ["game", "--left", paths[0], "--right", paths[1]]
            argv += ["--variant", variant, "--k", str(data.draw(st.integers(0, 2)))]
        if command in ("equiv", "game") and data.draw(st.booleans()):
            argv.append("--trace")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(argv, out=io.StringIO())
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()

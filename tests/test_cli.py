import io
import os
import subprocess
import sys

import pytest

from hybridkit.cli import run

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


def test_usage_error_exit_code():
    sink = io.StringIO()
    assert run(["equiv", "--left", "data/loop.json"], out=sink) == 2


def test_unknown_command_exit_code():
    assert run(["frobnicate"], out=io.StringIO()) == 2


def test_resource_guard_exit_code(tmp_path):
    # a bijection round over more accessible elements than the solver cap
    import json

    from hybridkit.structures import structure_to_data
    from fixtures import UNIMODAL
    from hybridkit.structures import Structure

    hub = Structure(
        UNIMODAL,
        ["a"] + [f"b{i}" for i in range(9)],
        {"E": [("a", f"b{i}") for i in range(9)]},
        ["a"],
    )
    path = tmp_path / "hub.json"
    path.write_text(json.dumps(structure_to_data(hub)))
    sink = io.StringIO()
    code = run(
        ["equiv", "--left", str(path), "--right", str(path), "--logic", "bijection", "--depth", "1"],
        out=sink,
    )
    assert code == 3
    assert "resource limit" in sink.getvalue()


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

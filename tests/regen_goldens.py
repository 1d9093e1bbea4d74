"""Regenerate the CLI golden files.  Run from anywhere:

    python3 tests/regen_goldens.py
"""
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cli_cases import CASES
from hybridkit.cli import run

GOLDEN = os.path.join(HERE, "golden")


def render(argv):
    # relative data paths keep machine-specific prefixes out of the goldens
    sink = io.StringIO()
    code = run([a.format(d="data") for a in argv], out=sink)
    return f"exit: {code}\n{sink.getvalue()}"


def main():
    os.chdir(HERE)
    os.makedirs(GOLDEN, exist_ok=True)
    for stem, argv in CASES:
        path = os.path.join(GOLDEN, f"{stem}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(argv))
        print(f"wrote golden/{stem}.txt")


if __name__ == "__main__":
    main()

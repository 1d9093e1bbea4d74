"""The benchmark's traced runs: ``perfbench/run.py --trace 1`` wraps the
package's entry points by module attribute and reads the shapes of what they
return, which untraced runs and the other tests never exercise."""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["games", "formulas", "constructions"])
def test_traced_run_completes_without_failures(workload):
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "0.5", "--trace", "1",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["failed"] == 0

"""Record the end-to-end metrics of one benchmark workload in BENCH_<label>.json.

Usage, from anywhere inside a source checkout:

    python3 bench/record.py --workload games --seed 1 --runs 10
    python3 bench/record.py --workload games --seed 1 --runs 10 --parent DIR

Each run is ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
in its own process, where T is the ``run_seconds`` of ``BENCHMARK.json``.
The record holds, per end-to-end metric, every run's value and their median
and quartiles, with the first-100 verdict digests and failure counts.  With
``--parent`` (another checkout, say of the parent commit) the runs alternate
between the two checkouts, each pair starting with the other side than the
last, and the record adds the parent's runs and how many pairs the checkout
won per metric.  Before writing, the script prints the difference between
the new medians and those of the BENCH file it replaces, if there is one.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300
DIGEST = re.compile(r"verdicts: first \d+ sha256 (\w+)")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its end-to-end values, its
    failure count and its first-100 verdict digest."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(
        argv, cwd=checkout, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"record: no output from the run in {checkout}")
    result = json.loads(lines[-1])
    found = (DIGEST.match(line) for line in lines)
    digest = next((m.group(1) for m in found if m), None)
    return {
        "values": {name: entry["value"] for name, entry in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "verdicts_first100": digest,
    }


def summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Median, quartiles and every value of each metric over the runs."""
    out = {}
    for metric in metrics:
        values = [run["values"][metric["name"]] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[metric["name"]] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "values": values,
        }
    return out


def side(checkout: str, runs: list[dict], metrics: list[dict]) -> dict:
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=checkout,
        capture_output=True,
        text=True,
    ).stdout.strip()
    return {
        "commit": commit or None,
        "metrics": summary(runs, metrics),
        "failed": [run["failed"] for run in runs],
        "attempted": [run["attempted"] for run in runs],
        "verdicts_first100": sorted({run["verdicts_first100"] for run in runs}),
    }


def wins(change: list[dict], parent: list[dict], metric: dict) -> int:
    """Pairs in which the checkout read strictly better than the parent."""
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    return sum(
        sign * (c["values"][name] - p["values"][name]) > 0
        for c, p in zip(change, parent)
    )


def main() -> int:
    top = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    top.add_argument("--workload", required=True)
    top.add_argument("--seed", type=int, default=1)
    top.add_argument("--runs", type=int, default=10)
    top.add_argument("--label", help="file label (default: the workload name)")
    top.add_argument("--parent", help="another checkout to alternate runs with")
    args = top.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    change_runs: list[dict] = []
    parent_runs: list[dict] = []
    for i in range(args.runs):
        order = [(ROOT, change_runs)]
        if args.parent:
            order.append((os.path.abspath(args.parent), parent_runs))
            if i % 2:
                order.reverse()
        for checkout, runs in order:
            runs.append(run_once(checkout, args.workload, args.seed, seconds))
            rate = runs[-1]["values"]["tasks_per_s"]
            print(f"run {i + 1}/{args.runs} {checkout}: tasks_per_s {rate:.1f}", flush=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "runs": args.runs,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **side(ROOT, change_runs, metrics),
    }
    if args.parent:
        record["parent"] = side(os.path.abspath(args.parent), parent_runs, metrics)
        record["pairs_won"] = {m["name"]: wins(change_runs, parent_runs, m) for m in metrics}

    path = os.path.join(ROOT, f"BENCH_{args.label or args.workload}.json")
    previous = None
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
    for metric in metrics:
        name = metric["name"]
        now = record["metrics"][name]
        line = f"{name:<12} {now['median']:10.3f} [{now['q1']:.3f}, {now['q3']:.3f}]"
        line += f" {metric['unit']}"
        if args.parent:
            was = record["parent"]["metrics"][name]
            line += (
                f"   parent {was['median']:.3f} [{was['q1']:.3f}, {was['q3']:.3f}],"
                f" won {record['pairs_won'][name]}/{args.runs}"
            )
        if previous is not None:
            before = previous["metrics"][name]["median"]
            change = (now["median"] / before - 1) * 100
            line += f"   previous file {before:.3f} ({change:+.1f}%)"
        print(line)
    if previous is None:
        print(f"no previous {os.path.basename(path)} to compare with")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0 if not any(record["failed"]) else 1


if __name__ == "__main__":
    sys.exit(main())

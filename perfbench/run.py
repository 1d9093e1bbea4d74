"""Certified-verdict benchmark for hybridkit.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload games --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One process, one thread, closed loop: a single caller runs one task, waits
for its verdict and its independent cross-check, then starts the next.  The
package is imported from ``src/`` of the checkout and receives only inputs
generated here from the seed.  There is no I/O and no waiting inside the
timed region, so no wait metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Any
failed task makes the exit code 1.  ``--workload all`` runs every workload
in its own processes, untraced and traced, and prints one table.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("games", "formulas", "constructions")

#: Set-up is timed in this many fresh processes per run; the median counts.
SETUP_PROBES = 3
#: The verdict digest of this many first tasks is comparable between runs
#: of one seed whatever their length.
DIGEST_PREFIX = 100
END_TO_END = (
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_ms", "ms"),
    ("task_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
CHILD_TIMEOUT_S = 175


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import hybridkit from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hybridkit", "__init__.py")):
        fail(f"no package sources at {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import hybridkit

    if not os.path.abspath(hybridkit.__file__).startswith(SRC + os.sep):
        fail(f"hybridkit was imported from {hybridkit.__file__}, not from {SRC}")


def sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time, over fresh processes, from process start to the
    point where the first task could run: interpreter start, package
    import, input generation and loading."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe"]
        argv += ["--workload", workload, "--seed", str(seed)]
        began = perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(perf_counter() - began)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail("set-up probe failed")
    return statistics.median(times)


def run_workload(args) -> int:
    import_package()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    import workloads

    pool = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    tasks = pool.tasks
    latencies: list[float] = []
    verdicts: list[str] = []
    failures: list[str] = []
    start = perf_counter()
    end = start
    while end - start < args.seconds:
        key, fn, fn_args = tasks[len(latencies) % len(tasks)]
        began = perf_counter()
        try:
            verdict, ok = fn(*fn_args)
        except Exception as exc:  # a crash is a failed task, never a verdict
            verdict, ok = f"error:{type(exc).__name__}", False
            failures.append(f"{key}: {traceback.format_exc()}")
        else:
            if not ok:
                failures.append(f"{key}: verdict {verdict} failed its check")
        end = perf_counter()
        latencies.append(end - began)
        verdicts.append(f"{key}={verdict}")

    elapsed = end - start
    attempted = len(latencies)
    failed = len(failures)
    tasks_per_s = (attempted - failed) / elapsed
    p50_ms = 1000 * statistics.median(latencies)
    p90_ms = 1000 * statistics.quantiles(latencies, n=10)[8]
    beyond = sum(1 for t in latencies if 1000 * t > p90_ms)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"python={platform.python_version()} nproc={os.cpu_count()}"
    )
    print(f"inputs: {len(pool.texts)} documents, sha256 {sha(pool.texts)}")
    print(
        f"tasks: {attempted} attempted ({len(tasks)} in the pool), {failed} failed, "
        f"failed_share {failed / attempted:.4f}, {elapsed:.2f} s timed"
    )
    print(
        f"latency: p50 {p50_ms:.3f} ms, p90 {p90_ms:.3f} ms "
        f"over {attempted} samples ({beyond} beyond p90)"
    )
    print(
        f"verdicts: first {min(DIGEST_PREFIX, attempted)} sha256 "
        f"{sha(verdicts[:DIGEST_PREFIX])}, all {attempted} sha256 {sha(verdicts)}"
    )
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "tasks_per_s": tasks_per_s,
            "task_p50_ms": p50_ms,
            "task_p90_ms": p90_ms,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = tracing.layer_metrics(
            tracer, args.workload, attempted, sum(latencies), tasks_per_s
        )
        edges = sorted(tracer.edges.items(), key=lambda item: -item[1])
        for (parent, child), calls in edges[:12]:
            print(f"span edge: {parent} -> {child}: {calls} calls")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced and traced, each in its own process."""
    results = {}
    code = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload]
            argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            argv += ["--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit {done.returncode}")
                code = 1
            try:
                results[(workload, trace)] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                code = 1
    print()
    print(f"{'metric':<16}{'unit':<7}" + "".join(f"{w:>16}" for w in WORKLOAD_NAMES))
    rows = [(name, unit) for name, unit in END_TO_END] + [("failed_share", "ratio")]
    for name, unit in rows:
        cells = []
        for workload in WORKLOAD_NAMES:
            got = results.get((workload, 0))
            if got is None:
                cells.append("-")
            elif name == "failed_share":
                cells.append(f"{got['failed'] / got['attempted']:.4f}")
            else:
                cells.append(f"{got['metrics'][name]['value']:.4f}")
        print(f"{name:<16}{unit:<7}" + "".join(f"{c:>16}" for c in cells))
    cells = []
    for workload in WORKLOAD_NAMES:
        plain, traced = results.get((workload, 0)), results.get((workload, 1))
        if plain is None or traced is None:
            cells.append("-")
            continue
        ratio = traced["metrics"]["trace.tasks_per_s"]["value"] / plain["metrics"]["tasks_per_s"]["value"]
        cells.append(f"{ratio:.3f}")
    print(f"{'traced/untraced':<16}{'ratio':<7}" + "".join(f"{c:>16}" for c in cells))
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": {f"{w}/trace={t}": r for (w, t), r in sorted(results.items())},
    }
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    top = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    top.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    top.add_argument("--seed", type=int, default=1)
    top.add_argument("--seconds", type=float, default=40.0)
    top.add_argument("--trace", type=int, choices=(0, 1), default=0)
    top.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = top.parse_args(argv)
    if args.setup_probe:
        import_package()
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the granule package: one workload per process, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kmeans-blobs --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` measures the same rounds untraced for half the time, then
starts a second process that installs the span wrappers and repeats them
for the other half; it reports the per-layer metrics and the tracing
overhead, and writes the spans as JSONL under ``.perfbench/traces/``.
The last line of standard output is the JSON result; the lines before it
record the environment, the inputs and the sample counts.  Metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MAX_THREADS = 2
CHILD_TIMEOUT_S = 170.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap the BLAS/OpenMP pools at min(nproc, MAX_THREADS) before numpy loads."""
    cap = min(nproc(), MAX_THREADS)
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cap:
            os.environ[var] = str(cap)


def import_package():
    """Import granule from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "granule" / "__init__.py").is_file():
        sys.exit(f"perfbench: no granule package under {src}")
    sys.path.insert(0, str(src))
    import granule

    if src.resolve() not in Path(granule.__file__).resolve().parents:
        sys.exit(f"perfbench: imported granule from {granule.__file__}, not from {src}")
    return granule


def measure(wl, seconds: float, tally) -> list:
    """Closed-loop rounds until the next one would end after ``seconds``; at least one."""
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        try:
            times, layer = wl.round(len(rounds))
        except Exception:  # a failing library call fails the run, not the benchmark
            traceback.print_exc()
            tally.record(f"round {len(rounds)}", "raised " + traceback.format_exc(limit=1).strip())
            break
        times["round_s"] = sum(times.values())
        rounds.append((times, layer))
        walls.append(time.perf_counter() - r0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return rounds


def medians(dicts: list) -> dict:
    """Per-key median; a key whose value is None in any round is missing (None)."""
    out = {}
    for key in dicts[0] if dicts else ():
        vals = [d.get(key) for d in dicts]
        out[key] = None if any(v is None for v in vals) else statistics.median(vals)
    return out


@dataclass
class Run:
    workload: object
    tracer: object
    tally: object
    setup_s: float
    rounds: list

    def times(self) -> dict:
        """Median seconds of each timing over the rounds."""
        return medians([t for t, _ in self.rounds])


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> Run:
    from checks import Tally
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    tracer = Tracer() if traced else NullTracer()
    try:
        wl = WORKLOADS[name](seed, workdir, tracer, tally)
        setup_s = wl.setup()
        if traced:
            wl.install_wrappers()
        try:
            rounds = measure(wl, seconds, tally)
        finally:
            if traced:
                tracer.unwrap()
        if not traced and rounds:
            wl.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return Run(wl, tracer, tally, setup_s, rounds)


def environment(granule, seed: int) -> dict:
    import numpy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "granule": granule.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("GRANULE_THREADS",)},
        "seed": seed,
    }


def traced_child(args) -> int:
    """Body of the traced process: rounds with wrappers, spans to JSONL, summary to a file."""
    run = run_workload(args.workload, args.seed, args.seconds, True)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{args.workload}-seed{args.seed}.jsonl"
    run.tracer.write_jsonl(trace_path)
    summary = {
        "times": run.times(),
        "layer": medians([layer for _, layer in run.rounds]),
        "rounds": len(run.rounds),
        "trace": str(trace_path.relative_to(ROOT)),
        "tally": [run.tally.attempted, run.tally.failed, run.tally.problems],
    }
    Path(args.child_out).write_text(json.dumps(summary))
    return 0


def spawn_traced(args, seconds: float, deadline: float) -> dict:
    out = WORK / f"child-{os.getpid()}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "1",
           "--child-out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              timeout=max(deadline - time.perf_counter(), 1.0))
        if proc.returncode != 0:
            sys.exit(f"perfbench: traced run exited with {proc.returncode}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def metric_values(specs: list, values: dict) -> dict:
    """Values for every metric in ``specs``.

    A per-layer metric the workload does not exercise is 0; one whose
    wrapped name the package no longer has (value None) is left out and
    listed on standard error.
    """
    out = {}
    for spec in specs:
        value = values.get(spec["name"], 0)
        if value is None:
            print(f"# missing metric {spec['name']}", file=sys.stderr)
            continue
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"perfbench: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    cap_threads()
    granule = import_package()

    if args.child_out:
        return traced_child(args)

    seconds = args.seconds / 2 if args.trace else args.seconds
    run = run_workload(args.workload, args.seed, seconds, False)
    if not run.rounds:
        sys.exit("perfbench: no round completed")
    tally = run.tally
    times = run.times()
    print(f"# workload {args.workload}: {len(run.rounds)} untraced rounds; "
          + ", ".join(f"op{i}_s = {op}" for i, op in enumerate(run.workload.ops, 1)))
    print("# env " + json.dumps(environment(granule, args.seed), sort_keys=True))
    print("# inputs " + json.dumps(run.workload.inputs, sort_keys=True))

    if args.trace:
        child = spawn_traced(args, seconds, started + CHILD_TIMEOUT_S)
        tally.merge(*child["tally"])
        values = dict(child["layer"])
        for key, untraced in times.items():
            values[f"trace.overhead_frac.{key}"] = (child["times"][key] - untraced) / untraced
        metrics = metric_values(spec["per_layer"], values)
        print(f"# traced rounds {child['rounds']}, spans in {child['trace']}")
    else:
        values = dict(times, setup_s=run.setup_s,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = metric_values(spec["end_to_end"], values)

    for problem in tally.problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(f"# checks attempted {tally.attempted}, failed {tally.failed}, "
          f"failed_frac {tally.failed_frac:.6g}")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark pbcjones end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --record-reference      # rewrite reference.json

Run from the repository root; the package is imported from ``src/`` next
to this directory, never from an installed copy.  One process runs one
workload with ``workers=1``: it times the set-up of fresh processes,
then repeats whole passes for ``--seconds`` and reports medians.  With
``--trace 1`` it runs half the time untraced and half traced, and
reports per-layer metrics instead of end-to-end ones.  The last line of
standard output is one JSON object; the exit code is 1 when any output
fails a check and 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORKLOAD_NAMES = ("open_trefoil", "jersey", "melt_pipeline", "chainmail")
SETUP_PROBES = 5
MIN_PASSES = 3

END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))


def load_program():
    """Import pbcjones from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        import pbcjones
    except ImportError as exc:
        print(f"error: cannot import pbcjones from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC.resolve() not in Path(pbcjones.__file__).resolve().parents:
        print(f"error: pbcjones was imported from {pbcjones.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads
    return workloads


def workdir_for(name: str, seed: int, suffix: str = "") -> str:
    """Scratch directory of one run, relative to the working directory.

    The melt reports record their input paths, so a fixed relative path
    keeps their size, a work counter, the same in every checkout.
    """
    path = BENCH / "work" / f"{name}-seed{seed}{suffix}"
    path.mkdir(parents=True, exist_ok=True)
    return os.path.relpath(path)


def time_setup(name: str, seed: int) -> float:
    """Median seconds from spawning a fresh process to its inputs being built.

    Each probe prints the system-wide monotonic clock when its inputs
    are ready, so neither interpreter teardown nor the parent's wait
    loop enters the measurement.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                               "--workload", name, "--seed", str(seed)],
                              cwd=ROOT, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_passes(wl, workload, seconds: float, reference, tracer=None):
    """Repeat passes for the given time.

    Returns pass times, pass results, per-pass layer self times (traced
    only) and every failed check.
    """
    times, results, counters, problems = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()
        if tracer is not None:
            tracer.pass_index += 1
            tracer.start_pass()
        t0 = time.perf_counter()
        try:
            res = workload.run_pass()
        except Exception as exc:  # a pass that raises is a failed pass, not a crash
            traceback.print_exc()
            res = wl.PassResult(attempted=1, failed=1, problems=[f"pass raised {exc!r}"])
        if reference is not None:
            diff = wl.check_reference(workload.name, res.outputs, reference.get(workload.name))
            if diff:
                res.problems.append(f"outputs differ from the reference: {diff}")
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            res.counters = {**res.counters, **tracer.pass_counters()}
            counters.append(tracer.pass_self_times())
        if results and (res.counters != results[0].counters
                        or res.outputs != results[0].outputs):
            res.problems.append("counters or outputs differ from the first pass")
        if res.problems and not res.failed:
            res.failed = res.attempted
        problems.extend(res.problems)
        results.append(res)
    return times, results, counters, problems


def run_workload(args) -> int:
    wl = load_program()
    reference = json.loads(Path(args.reference).read_text()) if args.seed == 0 else None
    setup_s = time_setup(args.workload, args.seed) if not args.trace else None
    workdir = workdir_for(args.workload, args.seed)
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            import tracing
            times, results, _, problems = run_passes(wl, workload, args.seconds / 2, reference)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                ttimes, tresults, self_times, tproblems = run_passes(
                    wl, workload, args.seconds / 2, reference, tracer)
            finally:
                tracer.unpatch()
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
            metrics = tracing.layer_metrics(tresults[0].counters, self_times, tracer,
                                          ttimes, times)
            results += tresults
            problems += tproblems
        else:
            times, results, _, problems = run_passes(wl, workload, args.seconds, reference)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    skipped = sum(r.skipped for r in results)
    if not args.trace:
        metrics = {name: {"value": value, "unit": unit} for (name, unit), value in zip(
            END_TO_END, (statistics.median(times), setup_s, peak_mb,
                         (attempted - failed - skipped) / attempted))}
    correct = not problems

    print(f"{args.workload} seed {args.seed}: {len(times)} passes, pass seconds "
          f"median {statistics.median(times):.4f}: {' '.join(f'{t:.3f}' for t in times)}")
    print(f"  counters per pass: {json.dumps(results[-1].counters, sort_keys=True)}")
    print(f"  attempted {attempted}, skipped {skipped}, failed {failed}")
    for problem in sorted(set(problems)):
        print(f"  FAILED CHECK: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def probe_setup(args) -> int:
    """Import the program and build one workload's inputs, then print the clock."""
    wl = load_program()
    workdir = workdir_for(args.workload, args.seed, "-setup")
    try:
        wl.WORKLOADS[args.workload](args.seed, workdir)
        print(repr(time.monotonic()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def record_reference(args) -> int:
    """Write the seed-0 outputs of every workload to the reference file."""
    wl = load_program()
    ref = {}
    for name in WORKLOAD_NAMES:
        workdir = workdir_for(name, 0)
        try:
            res = wl.WORKLOADS[name](0, workdir).run_pass()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if res.problems:
            print(f"{name}: {res.problems}", file=sys.stderr)
            return 1
        ref[name] = res.outputs
    Path(args.reference).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay separate."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--reference", str(args.reference)], cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(REFERENCE),
                   help="seed-0 outputs to compare against")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.record_reference:
        return record_reference(args)
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        return probe_setup(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

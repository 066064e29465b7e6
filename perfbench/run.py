"""Benchmark of `holobraid suite`: end-to-end cost of a verdict, and where it goes.

From the repository root:

    python3 perfbench/run.py --workload suite-l7-oracle --seed 1 --seconds 30 --trace 0

The harness never imports holobraid.  It starts WORKER_PROCESSES fresh
worker processes (worker.py) one after another, each with one BLAS thread
and a share of ``--seconds``; the machine's speed drifts from one process to
the next, and pooling several of them keeps a run's medians steady.  Each
worker imports holobraid, warms it with a one-trial suite of the workload
without triples (``setup_s`` is the median time from process start to this
point), then calls ``holobraid.cli.main(["suite", ...])`` in a closed loop,
one suite at a time:

* ``--trace 0`` prints every end-to-end metric named in BENCHMARK.json;
  timings are medians over the timed suite calls (set-up: over the worker
  processes), each scaled by the time of the workload's reference kernel
  measured beside it (see REFERENCE_S).  The metadata line holds the
  unscaled medians.
* ``--trace 1`` makes an untraced and a traced call on each seed, each
  first in turn, and prints every per-layer metric: per-function calls,
  busy and self time from spans (spans.py), each the median over the traced
  calls, and ``trace.overhead_ratio``.

Every suite call passes the verdict gate in workloads.py or the run is
reported as incorrect.  The last line of standard output is the result
object; the line before it holds the run's metadata.  The exit code is 0
whenever a result is printed, and 2 when the program cannot be started.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_PROCESSES = 5
# One BLAS thread.  On a 2-core x86_64 VM, three processes per setting of
# the 5-trial ell = 7 suite took 2.11-2.46 s with one OpenBLAS thread (within
# a process: 2.11-2.22 s) and 1.52-1.98 s with two.  Two threads are faster
# but twice as noisy, and they compete with the neighbours for both cores.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# a run ends within 180 s: workers still running after this are killed
RUN_LIMIT_S = 160
# Timings are reported in seconds of a machine on which each worker.Reference
# kernel takes this long (about its time on a 2-core x86_64 VM): each suite
# time and set-up time is divided by the time of its workload's kernel,
# measured beside it, so that the time-varying speed of a shared machine
# cancels out of the quotient.
REFERENCE_S = 0.033


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("HOLOBRAID_THREADS", None)  # closed loop: no worker pool
    return env


def run_worker(args: list[str], timeout: float) -> tuple[int, list[dict], str]:
    """Run worker.py to completion; returns (exit code, JSON lines, stderr)."""
    t0 = monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args,
                             "--t0", repr(t0)],
                            cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nworker killed after {timeout:.0f} s"
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:  # cut short by a kill, or stray output
            continue
    return proc.returncode, lines, err


def git_revision() -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def median_of(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def end_to_end(records: list[dict], judged: list[dict], dones: list[dict],
               ready: list[dict]) -> dict[str, float | None]:
    attempted = sum(r["attempted"] for r in judged)
    failed = sum(r["failed"] for r in judged)
    accuracy: dict[str, list[float]] = {}
    for r in judged:
        for name, values in r.get("accuracy", {}).items():
            accuracy.setdefault(name, []).extend(values)

    def scaled(r: dict, name: str) -> float:
        return REFERENCE_S * r[name] / r["reference_s"]

    return {
        "setup_s": median_of([scaled(r, "setup_s") for r in ready]),
        "wall_s": median_of([scaled(r, "wall_s") for r in records]),
        "trials_per_s": median_of([r["trials"] / scaled(r, "wall_s")
                                   for r in records]),
        "peak_rss_mb": max((d["peak_rss_mb"] for d in dones), default=None),
        "pass_ratio": 1 - failed / attempted if attempted else None,
        **{name: median_of(values) for name, values in accuracy.items()},
    }


def per_layer(records: list[dict]) -> dict[str, float | None]:
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r["wall_s"] for r in records if not r["traced"]]
    names = {name for r in traced for name in r["layers"]}
    out = {name: median_of([r["layers"][name] for r in traced
                            if name in r["layers"]]) for name in names}
    if traced and plain:
        out["trace.overhead_ratio"] = (statistics.median(r["wall_s"] for r in traced)
                                       / statistics.median(plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "holobraid" / "__init__.py").is_file():
        print(f"error: no holobraid source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    lines, codes, errors = [], [], []
    seconds = args.seconds / WORKER_PROCESSES
    deadline = monotonic() + RUN_LIMIT_S
    for part in range(WORKER_PROCESSES):
        if monotonic() >= deadline:
            break
        code, part_lines, err = run_worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--part", str(part), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            timeout=deadline - monotonic())
        codes.append(code)
        lines += part_lines
        errors.append(err.strip())
        if part == 0 and not (part_lines and part_lines[0].get("ready")):
            print(f"error: holobraid did not start (exit {code}):\n{err}",
                  file=sys.stderr)
            return 2

    ready = [line for line in lines if line.get("ready")]
    records = [line["suite"] for line in lines if "suite" in line]
    dones = [line for line in lines if line.get("done")]
    # every verdict the gate sees: warm-up calls, timed calls, route probes
    judged = ([line["warm"] for line in ready] + records
              + [line["probe"] for line in lines if "probe" in line])
    reasons = [f"seed {r['seed']}: {reason}"
               for r in judged for reason in r["reasons"]]
    if any(codes) or len(dones) != WORKER_PROCESSES:  # crashed, killed or not run
        reasons.append(f"worker exit codes {codes}: {errors}")
    values = (per_layer(records) if args.trace else
              end_to_end(records, judged, dones, ready))
    metrics = {}
    for metric in wanted:
        value = values.get(metric["name"])
        if value is None:
            reasons.append(f"metric {metric['name']} was not measured")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for reason in reasons:
        print(f"incorrect: {reason}", file=sys.stderr)

    attempted = sum(r["attempted"] for r in judged)
    failed = sum(r["failed"] for r in judged)
    if attempted == 0:  # nothing ran: count the run itself as one failure
        attempted = failed = 1
    print(json.dumps({"meta": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "suite_calls": len(records),
        "suite_argv": WORKLOADS[args.workload].argv(0, "")[:-4],
        "threads": THREAD_ENV, "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "unscaled_medians": {
            "wall_s": median_of([r["wall_s"] for r in records]),
            "setup_s": median_of([r["setup_s"] for r in ready]),
            "reference_s": median_of([r["reference_s"] for r in records])},
        **(dones[-1]["meta"] if dones else {})}}))
    print(json.dumps({"correct": not reasons, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

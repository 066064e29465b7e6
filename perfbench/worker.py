"""One fresh benchmark process: import holobraid, warm it, then call
``holobraid.cli.main(["suite", ...])`` in a closed loop, one suite at a time.

run.py starts it.  By hand, from the repository root:

    python3 perfbench/worker.py --workload suite-l3-many --seed 1 --seconds 5 \
        --trace 0 --t0 "$(python3 -c 'import time; print(time.monotonic())')"

Every line of standard output is one JSON object: ``ready`` once holobraid
is imported and warm (with its ``setup_s``, counted from ``--t0``), one
``suite`` record per suite call (with ``--trace 1`` an untraced and a traced
call of the same seed, in turn first), for a closed-form workload one
``probe`` record of an oracle-vs-closed-form pair, and ``done`` with the
peak RSS of the suite calls and the library versions.
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import replace
from pathlib import Path
from time import monotonic, perf_counter

from spans import Tracer, summarize
from workloads import (PROBE_ROUTE_TOL, WORKLOADS, Workload,
                       failed_operations, gate, suite_seed,
                       trial_accuracy)

ROOT = Path(__file__).resolve().parents[1]
WARM_INDEX = 0xFFFF  # suite_seed index of the warm-up call
WORK_DIR = Path(__file__).resolve().parent / ".work"


def import_cli():
    """Import holobraid from this checkout."""
    sys.path.insert(0, str(ROOT / "src"))
    from holobraid import cli
    return cli


def run_suite_call(cli, workload: Workload, seed: int, report_path: str,
                   tracer: Tracer | None = None) -> dict:
    """Time one CLI suite call and judge its verdicts.

    An exception escaping the CLI (a HolobraidError or any traceback) fails
    every operation of the call instead of stopping the benchmark.
    """
    Path(report_path).unlink(missing_ok=True)
    argv = workload.argv(seed, report_path)
    record = {"seed": seed, "traced": tracer is not None,
              "trials": workload.trials, "attempted": workload.operations}
    code = error = None
    if tracer is not None:
        tracer.reset()
    with tracer if tracer is not None else nullcontext():
        start = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:
            error = traceback.format_exc()
        wall = perf_counter() - start
    record["wall_s"] = wall
    if error is None and not Path(report_path).is_file():
        error = f"exit code {code} and no report"
    if error is not None:
        record.update(failed=workload.operations,
                      reasons=[error.strip().splitlines()[-1]], traceback=error)
        return record
    report = json.loads(Path(report_path).read_text())
    record.update(failed=failed_operations(report), reasons=gate(code, report),
                  accuracy=trial_accuracy(report))
    if tracer is not None:
        record["layers"] = summarize(tracer.spans, wall, tracer.accepted)
        record["layers"]["report.bytes"] = Path(report_path).stat().st_size
    return record


def warm_up(cli, workload: Workload, seed: int, report_path: str) -> dict:
    """Fill holobraid's lazy caches so that no timed suite pays for them.

    A one-trial suite without triples runs the workload's routes once; the
    permutation matrix of the triple products is filled directly, since one
    triple costs as much as a whole timed suite at ell 9.
    """
    record = run_suite_call(cli, replace(workload, trials=1, hybe_every=0),
                            seed, report_path)
    if workload.hybe_every:
        from holobraid import hybe
        swap23 = getattr(hybe, "_swap23", None)  # a private cache; may go away
        if swap23 is not None:
            swap23(workload.ell)
    return record


def route_probe(workload: Workload, seed: int) -> dict:
    """Oracle and closed form on the first pair of a suite (untimed)."""
    from holobraid import (closed_form_R, compare_up_to_scalar, primitive_root,
                           sample_params, solve_intertwiner)
    record = {"seed": seed, "attempted": 1, "failed": 0, "reasons": []}
    try:
        p1, p2 = sample_params(primitive_root(workload.ell), seed, 0,
                               radius=workload.radius, count=2)
        oracle = solve_intertwiner(p1, p2)
        _, deviation = compare_up_to_scalar(oracle.R, closed_form_R(p1, p2).R)
    except Exception:
        error = traceback.format_exc()
        record.update(failed=1, reasons=[error.strip().splitlines()[-1]],
                      traceback=error)
        return record
    if not deviation < PROBE_ROUTE_TOL:
        record.update(failed=1, reasons=[f"route deviation {deviation:.3e}"])
    record["accuracy"] = {
        "route_agreement_digits": [-math.log10(deviation)],
        "oracle_gap_digits": [math.log10(oracle.singular_gap)]}
    return record


class Reference:
    """Two fixed kernels, independent of holobraid, timed beside each suite call.

    This machine's speed swings by up to 1.7x over seconds to minutes, with
    the load of the neighbours that share it, and a whole run can fall in a
    slow or a fast spell.  Interpreter-bound and BLAS-bound code do not swing
    alike, so there is one kernel for each kind of work a suite does:
    ``interpreter`` runs loops with many small numpy calls (the per-trial
    overhead that dominates ell 3), ``blas`` runs GEMM and eigh on a
    200 x 200 complex matrix (the oracle's eigh and the triple products at
    ell 7 and 9).  A worker runs only the kernel its workload names, and
    run.py divides each suite's time by that kernel's time.  The BLAS
    kernel's arrays take about 3 MB, far below the peak RSS of the
    workloads that use it.
    """

    def __init__(self, kind: str):
        import numpy
        self.np, self.kind = numpy, kind
        rng = numpy.random.default_rng(0)
        if kind == "interpreter":
            self.small = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        else:
            m = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
            self.square, self.hermitian = m, m @ m.conj().T

    def time(self) -> float:
        """Seconds the kernel takes once."""
        np = self.np
        start = perf_counter()
        if self.kind == "interpreter":
            a, acc = self.small, 0
            for i in range(100_000):
                acc += i * i % 7
            for _ in range(600):
                np.kron(a[:3, :3], a[:3, :3]) @ a
        else:
            for _ in range(3):
                self.square @ self.square
            for _ in range(2):
                np.linalg.eigh(self.hermitian)
        return perf_counter() - start


def library_meta() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # older numpy: no dict mode
        blas = {"error": repr(exc)}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                              "openblas configuration", "error")
                     if k in blas}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", type=int, default=0,
                    help="index of this process among the run's worker processes")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before it started "
                         "this process; setup_s is measured from it")
    args = ap.parse_args(argv)
    out = sys.stdout

    def emit(obj: dict) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        report_path = os.path.join(tmp, "report.json")
        cli = import_cli()
        warm = warm_up(cli, workload, suite_seed(args.seed, WARM_INDEX, args.part),
                       report_path)
        setup_s = monotonic() - args.t0
        reference = Reference(workload.reference)
        times = [reference.time() for _ in range(5)]
        before = times[-1]
        emit({"ready": True, "setup_s": setup_s, "warm": warm,
              "reference_s": statistics.median(times)})
        tracer = Tracer() if args.trace else None
        start = perf_counter()
        k, last = 0, 0.0
        # start another suite only if one more of the same length still
        # ends within --seconds
        while k == 0 or perf_counter() - start + last <= args.seconds:
            begin = perf_counter()
            seed = suite_seed(args.seed, k, args.part)
            # with --trace 1 the traced call goes first on every other k, and
            # on k = 0 in every other worker (the first call of a process
            # pays for fresh memory pages), so that the order cancels out of
            # trace.overhead_ratio
            calls = ([None] if tracer is None else
                     [None, tracer] if (k + args.part) % 2 == 0 else [tracer, None])
            for call_tracer in calls:
                record = run_suite_call(cli, workload, seed, report_path,
                                        call_tracer)
                after = reference.time()
                record["reference_s"] = (before + after) / 2
                before = after
                emit({"suite": record})
            last = perf_counter() - begin
            k += 1
        # read before the probe, whose oracle is no part of the workload
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload.route == "closed-form":
            emit({"probe": route_probe(workload, suite_seed(args.seed, 0, args.part))})
    emit({"done": True, "peak_rss_mb": peak_rss_mb, "meta": library_meta()})
    return 0


if __name__ == "__main__":
    sys.exit(main())

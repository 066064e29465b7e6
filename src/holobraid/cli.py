"""Command-line front end.

Subcommands:
  suite      full per-trial battery with JSON report
  braid-map  the suite's character checks of trial i's pair and the
             set-theoretic Yang-Baxter check of its triple (no matrix solves)
  rmatrix    suite trial i without its triple; --dump-dir writes the first
             representation's K, L, E, F and the trial's R as TSV
  hybe       suite trial i with its triple, and the triple's 15 colorings
  series     q-series and orbit identities at a given order

Each command builds one JSON report: --report writes it to a file, and
without --report every command but suite prints it.  braid-map, rmatrix
and hybe run the suite's own trial code and gate at its THRESHOLDS.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import dumps
from .cyclic import z0_character
from .hybe import derive_colorings
from .qseries import (check_f_functional, pairing_monomial, phi_orbit_closure,
                      q_factorial_b, q_shift_coefficient_check, series_f,
                      series_f_product)
from .report import (check_entry, emit_report, new_report, params_entry,
                     residual_entry, worst_residual, write_report)
from .roots import primitive_root
from .sampling import sample_params
from .suite import (THRESHOLDS, SuiteConfig, character_checks, check_summary,
                    phi_variant_evidence, run_suite, run_trial, third_params)

ROUTES = ("oracle", "closed-form", "both")


def _bounded(parse, ok, bound: str):
    """An argparse type: parse the value, and reject it unless ok(value)."""
    def check(value: str):
        x = parse(value)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {x}")
        return x
    check.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return check


_odd_ell = _bounded(int, lambda n: n >= 3 and n % 2 == 1, "odd and >= 3")
_count = _bounded(int, lambda n: n >= 1, ">= 1")
_every = _bounded(int, lambda n: n >= 0, ">= 0")
_radius = _bounded(float, lambda r: 0 < r <= 1, "in (0, 1]")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=_odd_ell, default=3, help="odd root-of-unity degree")
    p.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    p.add_argument("--radius", type=_radius, default=0.1,
                   help="half-width of the log-space sampling box")
    p.add_argument("--report", default=None, help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="holobraid",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run the full verification battery")
    _add_common(p)
    p.add_argument("--trials", type=_count, default=20)
    p.add_argument("--route", choices=ROUTES, default="both")
    p.add_argument("--hybe-every", type=_every, default=5,
                   help="run a triple test every N-th trial (0 disables)")

    p = sub.add_parser("braid-map", help="character and coloring checks only")
    _add_common(p)
    p.add_argument("--trials", type=_count, default=50)

    p = sub.add_parser("rmatrix", help="one suite trial without its triple")
    _add_common(p)
    p.add_argument("--trial", type=_every, default=0, help="trial index to sample")
    p.add_argument("--route", choices=ROUTES, default="both")
    p.add_argument("--dump-dir", default=None,
                   help="write the trial's K, L, E, F and R as TSV files here")

    p = sub.add_parser("hybe", help="one suite trial with its Yang-Baxter triple")
    _add_common(p)
    p.add_argument("--trial", type=_every, default=0, help="trial index to sample")
    p.add_argument("--route", choices=ROUTES, default="oracle")

    p = sub.add_parser("series", help="q-series and orbit identity checks")
    _add_common(p)
    p.add_argument("--order", type=_count, default=30)
    return ap


def _cmd_suite(args) -> tuple[int, dict]:
    cfg = SuiteConfig(ell=args.ell, trials=args.trials, seed=args.seed,
                      radius=args.radius, route=args.route,
                      hybe_every=args.hybe_every)
    code, report = run_suite(cfg)
    s = report["summary"]
    print(f"suite ell={cfg.ell}: {s['passed']}/{s['trials']} trials passed, "
          f"adjudications_resolved={s['adjudications_resolved']}, "
          f"det_probe_ok={s['det_probe_ok']}")
    return code, report


def _cmd_braid_map(args) -> tuple[int, dict]:
    ctx = primitive_root(args.ell)
    report = new_report({"command": "braid-map", "ell": args.ell,
                         "seed": args.seed, "trials": args.trials,
                         "radius": args.radius})
    trials = report["trials"]
    for i in range(args.trials):
        p1, p2 = sample_params(ctx, args.seed, i, radius=args.radius, count=2)
        checks, evidence = character_checks(z0_character(p1), z0_character(p2))
        col = derive_colorings(p1, p2, third_params(ctx, args.seed, i, args.radius))
        checks["set_ybe"] = check_entry(col.finals_deviation(), THRESHOLDS["set_ybe"])
        trials.append({"index": i, "checks": checks, "evidence": evidence,
                       "pass": all(c["pass"] for c in checks.values())})
    n_pass = sum(tr["pass"] for tr in trials)
    report["summary"] = {"trials": args.trials, "passed": n_pass,
                         "checks": check_summary(trials)}
    return (0 if n_pass == args.trials else 1), report


def _cmd_trial(args) -> tuple[int, dict]:
    """rmatrix and hybe: suite trial args.trial, with its triple for hybe."""
    cfg = SuiteConfig(ell=args.ell, trials=1, seed=args.seed, radius=args.radius,
                      route=args.route, hybe_every=int(args.command == "hybe"))
    trial, intw, col, _ = run_trial(cfg, primitive_root(args.ell), args.trial)
    out = {"command": args.command, "ell": args.ell, "seed": args.seed, **trial}
    if col is not None:
        out["colorings"] = {f.name: params_entry(getattr(col, f.name))
                            for f in fields(col)}
    dump_dir = getattr(args, "dump_dir", None)
    if dump_dir:
        os.makedirs(dump_dir, exist_ok=True)
        stem = os.path.join(dump_dir, f"trial{args.trial}_")
        for kind, m in zip("KLEF", intw.pair.reps[0].as_tuple()):
            dumps.dump_rep_matrix(f"{stem}{kind}.tsv", m, kind, intw.pair.in_params[0])
        dumps.dump_intertwiner(f"{stem}R.tsv", intw)
    # a rejected triple does not fail a suite trial, but it fails hybe
    rejected = trial.get("hybe", {}).get("rejected", False)
    return (0 if trial["pass"] and not rejected else 1), out


def _cmd_series(args) -> tuple[int, dict]:
    ctx = primitive_root(args.ell)
    order = args.order
    checks = {}
    for q in (0.3, 0.5, 0.7 + 0.1j):
        f_sum = series_f(q, order)
        f_prod = series_f_product(q, order)
        checks[f"f_sum_vs_product_q={q}"] = float(
            np.max(np.abs(f_sum.coeffs - f_prod.coeffs)))
        checks[f"f_functional_q={q}"] = check_f_functional(q, order)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(200):
        s = (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
        if abs(s) > 0.5 or abs(1 - s**ctx.ell) < 1e-3:
            continue
        worst = worst_residual(worst, phi_orbit_closure(ctx, s))
    checks["orbit_telescoping"] = worst
    checks["phi_variants"] = phi_variant_evidence(ctx, order=max(order, 60))
    bn = 0.0
    for n in range(1, 13):
        bn = worst_residual(bn, q_shift_coefficient_check(n, 0.37 + 0.21j))
    checks["q_shift_coefficients"] = bn
    checks["pairing_diag"] = float(abs(
        pairing_monomial(2, 3, 2, 3, 0.5) - 2 * q_factorial_b(3, 0.5)))
    checks["pairing_offdiag"] = float(abs(pairing_monomial(1, 2, 2, 1, 0.5)))
    out = {"command": "series", "ell": args.ell, "order": order,
           "checks": {k: (residual_entry(v) if not isinstance(v, dict)
                          else {kk: residual_entry(vv) for kk, vv in v.items()})
                      for k, v in checks.items()}}
    flat_ok = all(v < 1e-10 for v in checks.values() if not isinstance(v, dict))
    return (0 if flat_ok else 1), out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "suite": _cmd_suite,
        "braid-map": _cmd_braid_map,
        "rmatrix": _cmd_trial,
        "hybe": _cmd_trial,
        "series": _cmd_series,
    }[args.command]
    try:
        code, report = handler(args)
        if args.report:
            write_report(report, args.report)
            print(f"report written to {args.report}")
        elif args.command != "suite":
            print(emit_report(report))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

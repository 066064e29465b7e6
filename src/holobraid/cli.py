"""Command-line front end.

Subcommands:
  suite      full per-trial battery with JSON report
  braid-map  coloring-map checks only (no matrix solves)
  rmatrix    one pair: solve, closed form, comparison, optional TSV dump
  hybe       one triple: coloring chains and the Yang-Baxter product test
  series     q-series and orbit identities at a given order
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dumps
from .cyclic import z0_character
from .hybe import derive_colorings, hybe_residual
from .intertwiner import (PairContext, closed_form_R, compare_up_to_scalar,
                          solve_intertwiner)
from .qseries import (check_f_functional, pairing_monomial, phi_orbit_closure,
                      q_factorial_b, q_shift_coefficient_check, series_f,
                      series_f_product)
from .report import (complex_pair, emit_report, new_report, params_entry,
                     residual_entry, write_report)
from .roots import primitive_root
from .sampling import sample_params
from .suite import SuiteConfig, character_checks, phi_variant_evidence, run_suite


def _odd_ell(value: str) -> int:
    ell = int(value)
    if ell < 3 or ell % 2 == 0:
        raise argparse.ArgumentTypeError(f"ell must be odd and >= 3, got {ell}")
    return ell


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=_odd_ell, default=3, help="odd root-of-unity degree")
    p.add_argument("--seed", type=int, default=0, help="64-bit sampling seed")
    p.add_argument("--radius", type=float, default=0.1,
                   help="half-width of the log-space sampling box")
    p.add_argument("--report", default=None, help="write a JSON report here")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="holobraid",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run the full verification battery")
    _add_common(p)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="intertwining residual gate")
    p.add_argument("--route", choices=["oracle", "closed-form", "both"],
                   default="both")
    p.add_argument("--hybe-every", type=int, default=5,
                   help="run a triple test every N-th trial (0 disables)")
    p.add_argument("--dump-dir", default=None,
                   help="write TSV matrix dumps of the first trial here")

    p = sub.add_parser("braid-map", help="coloring-map checks only")
    _add_common(p)
    p.add_argument("--trials", type=int, default=50)

    p = sub.add_parser("rmatrix", help="solve one pair and compare routes")
    _add_common(p)
    p.add_argument("--trial", type=int, default=0, help="trial index to sample")
    p.add_argument("--route", choices=["oracle", "closed-form", "both"],
                   default="both")
    p.add_argument("--dump", default=None, help="TSV path for the solved matrix")

    p = sub.add_parser("hybe", help="one holonomy Yang-Baxter triple")
    _add_common(p)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--route", choices=["oracle", "closed-form"], default="oracle")

    p = sub.add_parser("series", help="q-series and orbit identity checks")
    _add_common(p)
    p.add_argument("--order", type=int, default=30)
    return ap


def _cmd_suite(args) -> int:
    cfg = SuiteConfig(ell=args.ell, trials=args.trials, seed=args.seed,
                      tol=args.tol, radius=args.radius, route=args.route,
                      report_path=args.report, dump_dir=args.dump_dir,
                      hybe_every=args.hybe_every)
    code, report = run_suite(cfg)
    s = report["summary"]
    print(f"suite ell={cfg.ell}: {s['passed']}/{s['trials']} trials passed, "
          f"adjudications_resolved={s['adjudications_resolved']}, "
          f"det_probe_ok={s['det_probe_ok']}")
    if args.report:
        print(f"report written to {args.report}")
    return code


def _cmd_braid_map(args) -> int:
    ctx = primitive_root(args.ell)
    report = new_report({"command": "braid-map", "ell": args.ell,
                         "seed": args.seed, "trials": args.trials,
                         "radius": args.radius})
    worst: dict[str, float] = {}
    for i in range(args.trials):
        p1, p2, p3 = sample_params(ctx, args.seed, i, radius=args.radius, count=3)
        res = character_checks(z0_character(p1), z0_character(p2))
        col = derive_colorings(p1, p2, p3)
        res["set_ybe"] = col.finals_deviation()
        report["trials"].append(
            {"index": i, "checks": {k: residual_entry(v) for k, v in res.items()}})
        for k, v in res.items():
            worst[k] = max(worst.get(k, 0.0), v)
    report["summary"] = {k: residual_entry(v) for k, v in sorted(worst.items())}
    ok = worst["braiding_round_trip"] < 1e-10 and worst["set_ybe"] < 1e-9
    if args.report:
        write_report(report, args.report)
    else:
        print(emit_report(report))
    return 0 if ok else 1


def _cmd_rmatrix(args) -> int:
    ctx = primitive_root(args.ell)
    p1, p2 = sample_params(ctx, args.seed, args.trial, radius=args.radius, count=2)
    out = {"command": "rmatrix", "ell": args.ell, "seed": args.seed,
           "trial": args.trial,
           "params": [params_entry(p1), params_entry(p2)]}
    intw = None
    pair = PairContext(p1, p2)
    if args.route in ("oracle", "both"):
        intw = solve_intertwiner(p1, p2, pair=pair)
        out["oracle"] = {"residual": residual_entry(intw.residual),
                         "kernel_dim": intw.kernel_dim,
                         "band_exp": intw.band_exp}
    if args.route in ("closed-form", "both"):
        closed = closed_form_R(p1, p2, pair=pair)
        out["closed_form"] = {"residual": residual_entry(closed.residual),
                              "a_exp": closed.chi.a_exp,
                              "s": complex_pair(closed.chi.s)}
        if intw is None:
            intw = closed
        else:
            scalar, dev = compare_up_to_scalar(intw.R, closed.R)
            out["comparison"] = {"scalar": complex_pair(scalar),
                                 "deviation": residual_entry(dev)}
    if args.dump:
        dumps.dump_intertwiner(args.dump, intw)
        out["dump"] = args.dump
    if args.report:
        write_report(out, args.report)
    else:
        print(emit_report(out))
    return 0 if intw.residual < 1e-8 else 1


def _cmd_hybe(args) -> int:
    ctx = primitive_root(args.ell)
    p1, p2 = sample_params(ctx, args.seed, args.trial, radius=args.radius, count=2)
    p3, = sample_params(ctx, args.seed, args.trial + (1 << 32),
                        radius=args.radius, count=1)
    col = derive_colorings(p1, p2, p3)
    c, dev, info = hybe_residual(p1, p2, p3, route=args.route)
    out = {"command": "hybe", "ell": args.ell, "seed": args.seed,
           "trial": args.trial, "route": args.route,
           "colorings": {
               name: params_entry(getattr(col, name))
               for name in ("x", "y", "z", "y1", "z1", "x1", "z2", "x2", "y2",
                            "xa", "ya", "xb", "za", "yb", "zb")},
           "set_ybe": residual_entry(col.finals_deviation()),
           "c": complex_pair(c),
           "c_modulus": float(abs(c)),
           "c_argument": float(np.angle(c)),
           "residual": residual_entry(dev),
           "info": info}
    if args.report:
        write_report(out, args.report)
    else:
        print(emit_report(out))
    return 0 if dev < 1e-7 and abs(abs(c) - 1) < 1e-8 else 1


def _cmd_series(args) -> int:
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
        worst = max(worst, phi_orbit_closure(ctx, s))
    checks["orbit_telescoping"] = worst
    checks["phi_variants"] = phi_variant_evidence(ctx, order=max(order, 60))
    bn = 0.0
    for n in range(1, 13):
        bn = max(bn, q_shift_coefficient_check(n, 0.37 + 0.21j))
    checks["q_shift_coefficients"] = bn
    checks["pairing_diag"] = float(abs(
        pairing_monomial(2, 3, 2, 3, 0.5) - 2 * q_factorial_b(3, 0.5)))
    checks["pairing_offdiag"] = float(abs(pairing_monomial(1, 2, 2, 1, 0.5)))
    out = {"command": "series", "ell": args.ell, "order": order,
           "checks": {k: (residual_entry(v) if not isinstance(v, dict)
                          else {kk: residual_entry(vv) for kk, vv in v.items()})
                      for k, v in checks.items()}}
    flat_ok = all(v < 1e-10 for v in checks.values() if not isinstance(v, dict))
    if args.report:
        write_report(out, args.report)
    else:
        print(emit_report(out))
    return 0 if flat_ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "suite": _cmd_suite,
        "braid-map": _cmd_braid_map,
        "rmatrix": _cmd_rmatrix,
        "hybe": _cmd_hybe,
        "series": _cmd_series,
    }[args.command]
    try:
        return handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands:
  suite      full per-trial battery with JSON report
  braid-map  the suite's character checks of trial i's pair and the
             set-theoretic Yang-Baxter check of its triple (no matrix solves)
  rmatrix    suite trial i without its triple; --dump-dir writes the first
             representation's K, L, E, F and the trial's R as TSV
  hybe       suite trial i with its triple, and the triple's 15 colorings

Each command builds one JSON report: --report writes it to a file, and
without --report every command but suite prints it.  braid-map, rmatrix
and hybe run the suite's own trial code, and the suite decides every
trial's verdict (suite.gates and suite.trial_passes).
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import dumps
from .cyclic import z0_character
from .report import emit_report, new_report, params_entry, write_report
from .roots import primitive_root
from .sampling import sample_params
from .suite import (SuiteConfig, character_checks, check_summary, gates,
                    run_suite, run_trial, run_triple, trial_passes)

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
    """--ell, --seed, --radius and --report."""
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
        residuals, evidence = character_checks(z0_character(p1), z0_character(p2))
        triple, record, _ = run_triple(args.seed, i, args.radius, p1, p2)
        trial = {"index": i, "checks": gates({**residuals, **triple}), "evidence": evidence}
        if record:  # a coloring chain that raised
            trial["hybe"] = record
        trial["pass"] = trial_passes(trial)
        trials.append(trial)
    n_pass = sum(tr["pass"] for tr in trials)
    report["summary"] = {"trials": args.trials, "passed": n_pass,
                         "checks": check_summary(trials)}
    return (0 if n_pass == args.trials else 1), report


def _cmd_trial(args) -> tuple[int, dict]:
    """rmatrix and hybe: suite trial args.trial, with its triple for hybe."""
    cfg = SuiteConfig(ell=args.ell, trials=1, seed=args.seed, radius=args.radius,
                      route=args.route, hybe_every=int(args.command == "hybe"))
    trial, intw, col, _ = run_trial(cfg, primitive_root(args.ell), args.trial)
    out = {"command": args.command, "ell": args.ell, "seed": args.seed,
           "radius": args.radius, "route": args.route, **trial}
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
    return (0 if trial["pass"] else 1), out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "suite": _cmd_suite,
        "braid-map": _cmd_braid_map,
        "rmatrix": _cmd_trial,
        "hybe": _cmd_trial,
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
